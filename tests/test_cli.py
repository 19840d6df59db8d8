import ast
import hashlib
import importlib
import importlib.util
import itertools
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import csftrees
from csftrees import _kernels, cli, decomposition, graphs, symfunc, theorems
from csftrees.cli import main
from csftrees.errors import GraphError, InternalError
from csftrees.generators import enumerate_free_trees
from csftrees.graphs import Tree, parse_edge_list
from csftrees.theorems import SURVEY_CSV_HEADER, survey, survey_report_to_json_dict

P3 = "n 3\n0 1\n1 2\n"
P4 = "n 4\n0 1\n1 2\n2 3\n"
S4 = "n 4\n0 1\n0 2\n0 3\n"
REVERSED14 = (
    "n 14\n0 1\n0 7\n0 13\n1 2\n1 6\n2 3\n2 5\n3 4\n7 8\n7 10\n7 12\n8 9\n10 11\n"
)
SPIDER_11_1_1 = "n 14\n0 1\n0 12\n0 13\n1 2\n2 3\n3 4\n4 5\n5 6\n6 7\n7 8\n8 9\n9 10\n10 11\n"
TWO_S3 = '{"stars": [3, 3], "gluings": [{"stars": [0, 1]}]}\n'


def _child_env(**extra):
    """The environment of a fresh interpreter that imports csftrees from
    this tree."""
    src = os.path.dirname(os.path.dirname(csftrees.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path, **extra)


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_compute_monomial(tmp_path, capsys):
    path = _write(tmp_path, "p3.txt", P3)
    assert main(["compute", "--input", path, "--basis", "m"]) == 0
    out = capsys.readouterr().out
    assert out.endswith("\n")
    assert json.loads(out) == {
        "n": 3,
        "basis": "m",
        "terms": [
            {"partition": [2, 1], "coeff": 1},
            {"partition": [1, 1, 1], "coeff": 6},
        ],
    }


def test_compute_powersum(tmp_path, capsys):
    path = _write(tmp_path, "p3.txt", P3)
    assert main(["compute", "--input", path, "--basis", "p"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "n": 3,
        "basis": "p",
        "terms": [
            {"partition": [3], "coeff": 1},
            {"partition": [2, 1], "coeff": -2},
            {"partition": [1, 1, 1], "coeff": 1},
        ],
    }


def test_compute_out_file_matches_stdout(tmp_path, capsys):
    path = _write(tmp_path, "p4.txt", P4)
    assert main(["compute", "--input", path, "--basis", "m"]) == 0
    stdout = capsys.readouterr().out
    outfile = str(tmp_path / "f.json")
    assert main(["compute", "--input", path, "--basis", "m", "--out", outfile]) == 0
    assert Path(outfile).read_text() == stdout


def test_compute_accepts_non_tree(tmp_path, capsys):
    path = _write(tmp_path, "k3.txt", "n 3\n0 1\n1 2\n0 2\n")
    assert main(["compute", "--input", path, "--basis", "m"]) == 0
    assert json.loads(capsys.readouterr().out)["terms"] == [
        {"partition": [1, 1, 1], "coeff": 6}
    ]


def test_compute_monomial_of_tree_is_basis_change_of_dp(tmp_path, capsys, monkeypatch):
    def no_stable_partitions(n, edges):
        raise AssertionError("stable partitions counted on a tree")

    monkeypatch.setattr(_kernels, "stable_type_counts", no_stable_partitions)
    path = _write(tmp_path, "s4.txt", S4)
    assert main(["compute", "--input", path, "--basis", "m"]) == 0
    assert json.loads(capsys.readouterr().out)["terms"] == [
        {"partition": [3, 1], "coeff": 1},
        {"partition": [2, 1, 1], "coeff": 6},
        {"partition": [1, 1, 1, 1], "coeff": 24},
    ]


def test_compute_powersum_caps_n_fast(tmp_path, capsys):
    # one edge on 70 vertices: building the p(70) tables alone took ~27 s
    path = _write(tmp_path, "wide.txt", "n 70\n0 1\n")
    t0 = time.perf_counter()
    assert main(["compute", "--input", path, "--basis", "p"]) == 1
    assert time.perf_counter() - t0 < 1.0
    assert capsys.readouterr().err == "error: csf_powersum capped at n <= 25, got 70\n"


def test_compute_checks_the_caps_before_the_walk(tmp_path, capsys, monkeypatch):
    """A declared n of 10^6 is refused before the graph is walked, in
    either basis: the walk's adjacency list alone grows with n."""
    def no_walk(adj, roots):
        raise AssertionError("a graph past the caps was walked")

    monkeypatch.setattr(graphs, "_walk_row", no_walk)
    path = _write(tmp_path, "huge.txt", "n 1000000\n0 1\n")
    for basis, cap in (("p", "csf_powersum capped at n <= 25"), ("m", "csf_monomial capped at n <= 14")):
        assert main(["compute", "--input", path, "--basis", basis]) == 1
        assert capsys.readouterr().err == f"error: {cap}, got 1000000\n"


def test_internal_error_exits_3(tmp_path, capsys, monkeypatch):
    def broken(g):
        raise InternalError("invariant broken")

    monkeypatch.setattr(symfunc, "csf_powersum", broken)
    path = _write(tmp_path, "p3.txt", P3)
    assert main(["compute", "--input", path, "--basis", "p"]) == 3
    assert capsys.readouterr().err == "error: internal check failed: invariant broken\n"


def test_package_has_no_assert_statements():
    """Checks that matter raise explicitly; python -O would strip an assert."""
    src = os.path.dirname(csftrees.__file__)
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), encoding="utf-8") as fh:
                tree = ast.parse(fh.read())
            assert not any(isinstance(node, ast.Assert) for node in ast.walk(tree)), name


def test_record_subclasses_define_no_init():
    """Record.__init__ is the one constructor of the twelve value types: no
    class of the package that derives from Record defines its own."""
    package = Path(csftrees.__file__).parent
    bases, own_init = {}, set()
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef):
                bases[node.name] = {b.id for b in node.bases if isinstance(b, ast.Name)}
                if any(isinstance(f, ast.FunctionDef) and f.name == "__init__" for f in node.body):
                    own_init.add(node.name)
    records = {"Record"}
    while grown := {c for c, b in bases.items() if b & records} - records:
        records |= grown
    records.remove("Record")
    assert len(records) == 12, sorted(records)
    assert not records & own_init, sorted(records & own_init)


def test_traced_entry_points_resolve():
    """Every function the benchmark's tracer wraps by name still exists."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "trace_child.py")
    spec = importlib.util.spec_from_file_location("trace_child", path)
    trace_child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(trace_child)
    for modname, names in trace_child.ENTRY_POINTS.items():
        module = importlib.import_module(f"csftrees.{modname}")
        for name in names:
            obj = module
            for attr in name.split("."):
                obj = getattr(obj, attr, None)
            assert callable(obj), f"csftrees.{modname}.{name}"


def test_decompose(tmp_path, capsys):
    path = _write(tmp_path, "s4.txt", S4)
    assert main(["decompose", "--input", path]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "levels": [{"b": 3, "eta": 1}],
        "alpha_correction": 0,
    }


def test_decompose_rejects_non_tree(tmp_path, capsys):
    path = _write(tmp_path, "k3.txt", "n 3\n0 1\n1 2\n0 2\n")
    assert main(["decompose", "--input", path]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("command", ["decompose", "compare"])
def test_each_tree_file_is_validated_once(tmp_path, capsys, monkeypatch, command):
    checked = []
    check = graphs.Graph.__post_init__

    def counted(self):
        checked.append(self.n)
        check(self)

    monkeypatch.setattr(graphs.Graph, "__post_init__", counted)
    a = _write(tmp_path, "a.txt", P4)
    if command == "decompose":
        argv, files = ["decompose", "--input", a], 1
    else:
        argv, files = ["compare", "--a", a, "--b", _write(tmp_path, "b.txt", S4), "--theorems"], 2
    assert main(argv) == 0
    assert checked == [4] * files


def test_compare_plain(tmp_path, capsys):
    a = _write(tmp_path, "a.txt", P4)
    b = _write(tmp_path, "b.txt", S4)
    assert main(["compare", "--a", a, "--b", b]) == 0
    assert json.loads(capsys.readouterr().out) == {"n_a": 4, "n_b": 4, "x_equal": False}
    # relabeled path: X equal, no error without --theorems
    c = _write(tmp_path, "c.txt", "n 4\n3 2\n2 1\n1 0\n")
    assert main(["compare", "--a", a, "--b", c]) == 0
    assert json.loads(capsys.readouterr().out)["x_equal"] is True
    d = _write(tmp_path, "d.txt", P3)
    assert main(["compare", "--a", a, "--b", d]) == 0
    assert json.loads(capsys.readouterr().out) == {"n_a": 4, "n_b": 3, "x_equal": False}


def test_compare_theorems(tmp_path, capsys):
    a = _write(tmp_path, "a.txt", S4)
    b = _write(tmp_path, "b.txt", P4)
    assert main(["compare", "--a", a, "--b", b, "--theorems"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["x_equal"] is False
    lv, cw, sm = rep["theorems"]
    assert (lv["theorem"], lv["status"], lv["case"], lv["m1"], lv["m2"]) == (
        "LEAVES_RHO", "Applicable", 1, 3, 2,
    )
    assert (cw["theorem"], cw["status"], cw["m1"], cw["m2"]) == (
        "COMPONENTWISE", "Applicable", 3, 2,
    )
    assert (sm["theorem"], sm["status"]) == ("SUMMED", "NotApplicable")


def test_compare_theorems_computes_facts_once(tmp_path, capsys, monkeypatch):
    """Each tree's code and leaf peel are computed once per request, and the
    verdicts are those of the public checkers."""
    calls = {"canonical_code": 0, "_peel": 0}

    def counted(module, name):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(graphs, "canonical_code")
    counted(decomposition, "_peel")
    text_a = "n 8\n0 1\n1 2\n2 3\n3 4\n4 5\n5 6\n6 7\n"
    text_b = "n 8\n0 1\n0 2\n0 3\n3 4\n4 5\n4 6\n6 7\n"
    a, b = _write(tmp_path, "a.txt", text_a), _write(tmp_path, "b.txt", text_b)
    assert main(["compare", "--a", a, "--b", b, "--theorems"]) == 0
    out = capsys.readouterr().out
    assert calls == {"canonical_code": 2, "_peel": 2}
    monkeypatch.undo()
    ta, tb = (Tree(g.n, g.edges) for g in map(parse_edge_list, (text_a, text_b)))
    expected = {
        "n_a": 8,
        "n_b": 8,
        "x_equal": False,
        "theorems": [
            theorems.verdict_to_json_dict(check(ta, tb))
            for check in (theorems.thm_leaves_check, theorems.thm_componentwise_check,
                          theorems.thm_sum_check)
        ],
    }
    assert out == json.dumps(expected, indent=2) + "\n"


def test_compare_theorems_preconditions(tmp_path, capsys):
    """compare --theorems and the three checkers refuse each pair with one text."""
    a = _write(tmp_path, "a.txt", P4)
    b = _write(tmp_path, "b.txt", P3)
    c = _write(tmp_path, "c.txt", "n 4\n3 2\n2 1\n1 0\n")
    checks = (theorems.thm_leaves_check, theorems.thm_componentwise_check, theorems.thm_sum_check)
    for x, y, reason in ((a, b, "equal vertex counts"), (a, c, "non-isomorphic"),
                         (b, b, "non-isomorphic")):
        assert main(["compare", "--a", x, "--b", y, "--theorems"]) == 1
        err = capsys.readouterr().err
        assert reason in err
        ta, tb = cli._read_tree(x), cli._read_tree(y)
        for check in checks:
            with pytest.raises(GraphError) as exc:
                check(ta, tb)
            assert err == f"error: {exc.value}\n"


def test_compare_theorems_reports_reversed_maxima(tmp_path, capsys):
    """A case-4 refusal whose block maxima are reversed says so (m = (7, 8))
    instead of calling them a tie."""
    a = _write(tmp_path, "a.txt", REVERSED14)
    b = _write(tmp_path, "b.txt", SPIDER_11_1_1)
    assert main(["compare", "--a", a, "--b", b, "--theorems"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["x_equal"] is False
    lv = rep["theorems"][0]
    assert (lv["theorem"], lv["status"], lv["m1"], lv["m2"]) == (
        "LEAVES_RHO", "NotApplicable", None, None)
    assert lv["detail"] == (
        "case-4 bound holds for all k >= 3, but the block maxima are reversed "
        "(m1 = 7 < m2 = 8); the bound does not force a strict conclusion")


def test_pair_checkers_are_called_through_module_attributes(tmp_path, capsys, monkeypatch):
    """survey and compare --theorems both look the three checkers' rules up
    on the theorems module at call time (compare through the checkers), so
    a wrapper set there sees every call: the same nonzero number per rule
    in a survey, one each in compare."""
    names = ("_leaves_rule", "_componentwise_rule", "_sum_rule")
    calls = dict.fromkeys(names, 0)

    def counted(name):
        real = getattr(theorems, name)

        def wrapper(*args):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(theorems, name, wrapper)

    for name in names:
        counted(name)
    survey(8)
    assert len(set(calls.values())) == 1 and calls[names[0]] > 0
    calls.update(dict.fromkeys(names, 0))
    a, b = _write(tmp_path, "a.txt", P4), _write(tmp_path, "b.txt", S4)
    assert main(["compare", "--a", a, "--b", b, "--theorems"]) == 0
    capsys.readouterr()
    assert calls == dict.fromkeys(names, 1)


def test_survey_stdout(capsys):
    assert main(["survey", "--n", "4"]) == 0
    assert json.loads(capsys.readouterr().out) == survey_report_to_json_dict(survey(4))


def test_survey_files_deterministic_across_jobs(tmp_path):
    paths = {}
    for jobs in ("1", "2"):
        out = str(tmp_path / f"rep{jobs}.json")
        csvp = str(tmp_path / f"rows{jobs}.csv")
        assert main(["survey", "--n", "6", "--jobs", jobs, "--out", out, "--csv", csvp]) == 0
        paths[jobs] = (Path(out).read_bytes(), Path(csvp).read_bytes())
    assert paths["1"] == paths["2"]
    header = paths["1"][1].decode().splitlines()[0]
    assert header == ",".join(SURVEY_CSV_HEADER)


# sha256 of the survey's JSON report and CSV, frozen so that any drift in
# the report bytes fails the suite
SURVEY_DIGESTS = {
    9: ("a71fe650afd56ed10ef7cb7997b0f26a8a5487a153541d03d42b32fe46cc743f",
        "cf76f48d0fe1ed086ea2f382e6013c38e3d05f10c3e08b42192373eff797b8b3"),
    10: ("43a4747c6b25e92e3b830e852ee46c0420222b58ae93dd2ef90ae0f832a9449e",
         "1698b83f51412eaffc6a115660fe57a02cb3b7dc7fe66ee9014f45cbdb0f3729"),
    11: ("054a3372cc37487e8240f3a0aca05784afb7c87fd81a102341db924545793a01",
         "9a6421fd5eedd3bdf65b1e2989699e2c05fbc7f16032b2209dccb2b400026d59"),
    12: ("aa37858965c11b9636b1af291da92f9a230af87e47b30ca40d9b72534d98027c",
         "d58bddf01a4463f837bf30ea9fe7755262acf4a067d73d2e31c9e00c85cacac6"),
}


@pytest.mark.parametrize("n", sorted(SURVEY_DIGESTS))
def test_survey_output_digests(tmp_path, n):
    out, csvp = tmp_path / "rep.json", tmp_path / "rows.csv"
    assert main(["survey", "--n", str(n), "--out", str(out), "--csv", str(csvp)]) == 0
    digests = tuple(hashlib.sha256(p.read_bytes()).hexdigest() for p in (out, csvp))
    assert digests == SURVEY_DIGESTS[n]


@pytest.mark.parametrize("seed", ["0", "1"])
def test_survey_bytes_do_not_depend_on_the_hash_seed(tmp_path, seed):
    """survey --n 12 in a fresh interpreter under a fixed hash seed writes
    the SURVEY_DIGESTS[12] bytes: at n = 12 the X stage already runs the
    tree DP inside a shared digest bucket, so every stage's dicts and sets
    take part."""
    out, csvp = tmp_path / "rep.json", tmp_path / "rows.csv"
    argv = ["survey", "--n", "12", "--out", str(out), "--csv", str(csvp)]
    subprocess.run([sys.executable, "-m", "csftrees.cli", *argv], check=True,
                   env=_child_env(PYTHONHASHSEED=seed))
    digests = tuple(hashlib.sha256(p.read_bytes()).hexdigest() for p in (out, csvp))
    assert digests == SURVEY_DIGESTS[12]


# sha256 of the survey's JSON report at sizes where trees tie on the
# invariant key (i(T; x), edge splits), so the tree DP runs on some of them
SURVEY_JSON_DIGESTS = {
    13: "72b39e36293a0b1bc22311bb2277c194189b0cbb0260ff4a50e76a30742ee094",
    14: "bfd88c9e63b8e328be51102978ea2a11b5721f94c686bbb8306aeb685f3f4b61",
    15: "17fd74584d74fadcf293d2b4c06db3262f0a02c71f042dcfd5bf03fcbf6099b4",
}


@pytest.mark.parametrize("n", sorted(SURVEY_JSON_DIGESTS))
def test_survey_json_digests(tmp_path, n):
    out = tmp_path / "rep.json"
    assert main(["survey", "--n", str(n), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == SURVEY_JSON_DIGESTS[n]


def _edge_text(n, edges):
    return f"n {n}\n" + "".join(f"{u} {v}\n" for u, v in edges)


COMPUTE_INPUTS = {
    "tree11": _edge_text(11, [(p, i + 1) for i, p in enumerate([0, 0, 1, 1, 2, 3, 3, 6, 7, 7])]),
    "tree14": _edge_text(
        14, [(p, i + 1) for i, p in enumerate([0, 0, 0, 1, 1, 2, 4, 4, 5, 7, 8, 8, 9])]
    ),
    # a 12-cycle with four chords: 16 edges
    "graph12": _edge_text(
        12, [(i, (i + 1) % 12) for i in range(12)] + [(0, 6), (2, 9), (3, 7), (1, 10)]
    ),
    # three components: a path, a star and an isolated vertex
    "forest": _edge_text(9, [(0, 1), (1, 2), (2, 3), (4, 5), (4, 6), (4, 7)]),
    # K_{2,2,2,2}: every pair but (i, i + 4), 24 edges, the sweep's edge cap
    "dense8": _edge_text(8, [(i, j) for i, j in itertools.combinations(range(8), 2) if j != i + 4]),
}

# sha256 of `csf compute` stdout, frozen like SURVEY_DIGESTS: the tree DP,
# both kernels and the change of basis must keep every output byte
COMPUTE_DIGESTS = {
    ("tree11", "p"): "0714946e541a0b6b673435e905d072b511f72fbd8ce1339d0344d49f427712c2",
    ("tree11", "m"): "2d0cec761ee87850062955de5050ee9ceb44a99efbb2483a654df02edccd642a",
    ("tree14", "p"): "3f6752954654b8aeb1b1482866d84b264447af716b039d393b73df9e2b41de41",
    ("tree14", "m"): "0d9538f8786e1bda56e81487958a454bd556ec33a09cd2a690790ac9be6df9fe",
    ("graph12", "p"): "262ed2818e1a371cfca04ccac188616b529ec6a08089baf070ff3a61d3d92684",
    ("graph12", "m"): "2cd40ad8e6a4a4df2f73fd1b282de0098b3af4d05f4b4dabaf1175e47c7615c5",
    ("forest", "p"): "5bb2570ccc81a55da6dab4114b41280e5bd5c738c1bf2c530f4d592fe39cc598",
    ("forest", "m"): "a9c3e2e074f41a25f134f6073b334604beecc45cf9ff52a056f022e386f05ab4",
    ("dense8", "p"): "43cf4b0b273ff64d3d5dad010c3282d7d53c057f9d813633bc75e63130b9884c",
    ("dense8", "m"): "c0a0449361530bddeb137521b5cec4ab3ca9a5358f0f1170b9ee1c163583a07c",
}


@pytest.mark.parametrize("name,basis", sorted(COMPUTE_DIGESTS))
def test_compute_output_digests(tmp_path, capsys, name, basis):
    path = _write(tmp_path, f"{name}.txt", COMPUTE_INPUTS[name])
    assert main(["compute", "--input", path, "--basis", basis]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == COMPUTE_DIGESTS[name, basis]


# Files the commands below read from their working directory.
COMMAND_INPUTS = {
    "p4.txt": P4,
    "s4.txt": S4,
    "tree11.txt": COMPUTE_INPUTS["tree11"],
    "tree14.txt": COMPUTE_INPUTS["tree14"],
    "tree14b.txt": _edge_text(
        14, [(p, i + 1) for i, p in enumerate([0, 1, 2, 2, 3, 3, 5, 6, 6, 8, 9, 9, 11])]
    ),
    # the chain spec of the README
    "chain.json": '{"stars": [4, 5, 3, 4], "gluings": [{"stars": [0, 1]}, '
                  '{"stars": [1, 2]}, {"stars": [2, 3]}]}\n',
}

# sha256 of stdout, frozen like COMPUTE_DIGESTS, for every other command
# that builds trees
COMMAND_DIGESTS = {
    "enumerate --n 9": "46bc0667abafb9347dcd7d06604dd5a104f2c10e25d0008b23e5d2c1dc48f467",
    "decompose --input tree11.txt":
        "66c6a0318df27d2015092a25dd31c07154cc6f5bcdbf25c72c159dd982615b32",
    "decompose --input tree14.txt":
        "82c8364420431e92a5d199681a1e4976420356d3232edd40a9b5c399aa08686b",
    "compare --a s4.txt --b p4.txt --theorems":
        "904d3cbf359e1d96f71eec7ad745207696174621a3642e2605abeacce86283cd",
    "compare --a tree14.txt --b tree14b.txt --theorems":
        "82f3b6c86fe74bffff1dc10059607b6209f3eab2b46abcf9299bf1815eceeefe",
    "spider --legs 2,2,3": "8151f48fdfd0cd89635b97ba950b9b2edcb0eb48ae830fe74705992d37b4e7b9",
    "spider --legs 2,2,3 --audit":
        "022b88475f948b6de340a86ac517d671ed0c351132ac7ec444024ca900da3d6b",
    "starconn --spec chain.json": "12d915cc9e2896b8ca95bc9f8e60120ce6bd2ba52568f30c26cd9136b32d9e78",
    "starconn --spec chain.json --audit":
        "c7a2e1064f754e159d7d9a67962f465d42d588ee09a704949d223b5564128151",
}


@pytest.mark.parametrize("command", list(COMMAND_DIGESTS))
def test_command_output_digests(tmp_path, capsys, monkeypatch, command):
    for name, text in COMMAND_INPUTS.items():
        _write(tmp_path, name, text)
    monkeypatch.chdir(tmp_path)
    assert main(command.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == COMMAND_DIGESTS[command]


def test_survey_rejects_out_of_range(capsys):
    assert main(["survey", "--n", "2"]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_survey_csv_cap_exits_before_the_survey(tmp_path, capsys, monkeypatch):
    """The CSV holds one row per tree pair, so --csv is capped at
    n <= SURVEY_CSV_MAX_N: beyond it the request fails with one error line
    before the survey runs and writes neither file.  The range errors of
    survey itself come first."""
    def no_survey(n):
        raise AssertionError("survey ran")

    out, csvp = tmp_path / "rep.json", tmp_path / "rows.csv"
    monkeypatch.setattr(theorems, "survey", no_survey)
    assert theorems.SURVEY_CSV_MAX_N == 14
    argv = ["survey", "--n", "15", "--out", str(out), "--csv", str(csvp)]
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        "error: survey --csv capped at n <= 14 (one row per tree pair), got 15\n")
    assert not out.exists() and not csvp.exists()
    monkeypatch.undo()
    for n in ("2", "19"):
        assert main(["survey", "--n", n, "--csv", str(csvp)]) == 1
        assert capsys.readouterr().err == "error: survey needs an integer n with 3 <= n <= 18\n"
    assert not csvp.exists()


def test_survey_csv_path_that_cannot_be_opened_fails_first(tmp_path, capsys, monkeypatch):
    """The --csv file is opened before the survey runs: a path that cannot
    be opened fails the request with one error line, no report file and no
    stdout."""
    def no_survey(n):
        raise AssertionError("survey ran")

    monkeypatch.setattr(theorems, "survey", no_survey)
    out, csvp = tmp_path / "rep.json", tmp_path / "missing" / "rows.csv"
    for argv in (["--out", str(out)], []):
        assert main(["survey", "--n", "5", *argv, "--csv", str(csvp)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert not out.exists()


def test_survey_failing_after_the_csv_is_opened_removes_it(tmp_path, capsys, monkeypatch):
    """A request that fails after opening the --csv file removes it, with
    the same exit code and single error line: a report path that cannot be
    written (exit 1) and a failed internal check in the survey (exit 3)."""
    csvp = tmp_path / "rows.csv"
    out = tmp_path / "missing" / "rep.json"
    assert main(["survey", "--n", "5", "--out", str(out), "--csv", str(csvp)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: [Errno 2] ") and captured.err.count("\n") == 1
    assert not csvp.exists()

    def failing_survey(n):
        raise InternalError("survey failed")

    monkeypatch.setattr(theorems, "survey", failing_survey)
    assert main(["survey", "--n", "5", "--csv", str(csvp)]) == 3
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: internal check failed: survey failed\n")
    assert not csvp.exists()


def test_survey_failing_removes_only_a_regular_csv_file(tmp_path, capsys, monkeypatch):
    """A failed request removes the --csv path only if it is a regular file:
    a --csv of /dev/null is never passed to os.remove.  os.remove is
    replaced by a recorder, so nothing is deleted here."""
    removed = []
    monkeypatch.setattr(os, "remove", removed.append)
    out = str(tmp_path / "missing" / "r.json")
    csvp = str(tmp_path / "rows.csv")
    for path in (os.devnull, csvp):
        assert main(["survey", "--n", "4", "--csv", path, "--out", out]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: [Errno 2] ") and captured.err.count("\n") == 1
    assert removed == [csvp]


# The commands that write --out: their arguments short of it, run in a
# directory holding the files of OUT_INPUTS, and the CSF or survey entry their
# work starts in.
OUT_COMMANDS = {
    "survey": (["survey", "--n", "4"], theorems, "survey"),
    "compute": (["compute", "--input", "p4.txt", "--basis", "p"], symfunc, "csf_powersum"),
    "compare": (["compare", "--a", "p4.txt", "--b", "s4.txt"], symfunc, "csf_equal"),
}
OUT_INPUTS = {"p4.txt": P4, "s4.txt": S4, "p30.txt": _edge_text(30, [(i, i + 1) for i in range(29)])}

# compute and compare on a 30-vertex path, past csf_powersum's n <= 25;
# P30_CAP_ERROR is the one error line of the refusal
OUT_CAP_REFUSALS = {
    "compute": ["compute", "--input", "p30.txt", "--basis", "p"],
    "compare": ["compare", "--a", "p30.txt", "--b", "p30.txt"],
}
P30_CAP_ERROR = "error: csf_powersum capped at n <= 25, got 30\n"


@pytest.fixture
def out_dir(tmp_path, monkeypatch):
    for name, text in OUT_INPUTS.items():
        _write(tmp_path, name, text)
    monkeypatch.chdir(tmp_path)
    return tmp_path


def _assert_failed_request_keeps_prior_outputs(argv, code, err, capsys, monkeypatch):
    """argv fails with exit code and the one line err, and no stdout, for
    any --out: a file the request creates is removed, a regular file that
    existed before keeps its bytes, and /dev/null never reaches os.remove
    (replaced by a recorder for that run, so nothing is deleted there)."""
    kept = Path("kept.json")
    kept.write_bytes(b"kept\n")
    for out in ("new.json", str(kept)):
        assert main([*argv, "--out", out]) == code
        assert capsys.readouterr() == ("", err)
    assert not Path("new.json").exists()
    assert kept.read_bytes() == b"kept\n"
    removed = []
    monkeypatch.setattr(os, "remove", removed.append)
    assert main([*argv, "--out", os.devnull]) == code
    assert capsys.readouterr() == ("", err)
    assert removed == []


@pytest.mark.parametrize("command", list(OUT_COMMANDS))
def test_out_path_that_cannot_be_opened_fails_first(out_dir, capsys, monkeypatch, command):
    """Each command opens its --out path after its own argument checks and
    before its work: a path that cannot be opened fails the request with
    one error line and no stdout before the entry its work starts in runs."""
    argv, module, entry = OUT_COMMANDS[command]

    def no_work(*args):
        raise AssertionError(f"{entry} ran")

    monkeypatch.setattr(module, entry, no_work)
    assert main([*argv, "--out", "missing/out.json"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: [Errno 2] ") and captured.err.count("\n") == 1
    assert sorted(path.name for path in out_dir.iterdir()) == sorted(OUT_INPUTS)


@pytest.mark.parametrize("command", list(OUT_COMMANDS))
def test_failed_work_removes_only_the_out_file_it_created(out_dir, capsys, monkeypatch, command):
    """A failed internal check in the work (exit 3) removes an --out file
    the request created and leaves one that existed before as it was."""
    argv, module, entry = OUT_COMMANDS[command]

    def broken(*args):
        raise InternalError(f"{entry} failed")

    monkeypatch.setattr(module, entry, broken)
    err = f"error: internal check failed: {entry} failed\n"
    _assert_failed_request_keeps_prior_outputs(argv, 3, err, capsys, monkeypatch)


@pytest.mark.parametrize("command", list(OUT_CAP_REFUSALS))
def test_cap_refusal_removes_only_the_out_file_it_created(out_dir, capsys, monkeypatch, command):
    """A CSF cap refusal (exit 1) comes after the --out check, so an
    unwritable --out is reported ahead of it; the refusal then removes an
    --out file the request created and leaves one that existed before."""
    argv = OUT_CAP_REFUSALS[command]
    assert main([*argv, "--out", "missing/out.json"]) == 1
    assert capsys.readouterr().err.startswith("error: [Errno 2] ")
    _assert_failed_request_keeps_prior_outputs(argv, 1, P30_CAP_ERROR, capsys, monkeypatch)


def test_survey_failing_keeps_a_csv_file_that_existed(tmp_path, capsys, monkeypatch):
    """A failed survey removes the --out file it created but leaves a --csv
    file that existed before with its bytes."""
    def failing_survey(n):
        raise InternalError("survey failed")

    monkeypatch.setattr(theorems, "survey", failing_survey)
    out, csvp = tmp_path / "rep.json", tmp_path / "rows.csv"
    csvp.write_bytes(b"kept\n")
    assert main(["survey", "--n", "5", "--out", str(out), "--csv", str(csvp)]) == 3
    assert capsys.readouterr() == ("", "error: internal check failed: survey failed\n")
    assert not out.exists()
    assert csvp.read_bytes() == b"kept\n"


def test_survey_rejects_one_path_for_out_and_csv(tmp_path, capsys, monkeypatch):
    """--out and --csv naming one file would write the CSV rows over the
    JSON report: the request fails with one error line before the survey
    runs and leaves the file as it was, however the two paths are spelt."""
    def no_survey(n):
        raise AssertionError("survey ran")

    monkeypatch.setattr(theorems, "survey", no_survey)
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "P"
    path.write_bytes(b"kept\n")
    for out, csvp in (("P", "P"), ("./P", "P")):
        assert main(["survey", "--n", "5", "--out", out, "--csv", csvp]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert path.read_bytes() == b"kept\n"


def test_survey_same_path_is_refused_only_for_a_regular_file(tmp_path, capsys, monkeypatch):
    """/dev/null given as both --out and --csv clobbers nothing, so the
    request runs and exits 0; one regular path given twice, which the
    request would create, fails with one error line and leaves no file."""
    monkeypatch.chdir(tmp_path)
    assert main(["survey", "--n", "5", "--out", os.devnull, "--csv", os.devnull]) == 0
    assert capsys.readouterr() == ("", "")
    for out, csvp in (("new", "new"), ("./new", "new")):
        assert main(["survey", "--n", "5", "--out", out, "--csv", csvp]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: survey --out and --csv name the same file: {csvp}\n"
        assert list(tmp_path.iterdir()) == []


def test_spider_build(capsys):
    assert main(["spider", "--legs", "2,2,2"]) == 0
    assert capsys.readouterr().out == "n 7\n0 1\n0 3\n0 5\n1 2\n3 4\n5 6\n"


def test_spider_audit(capsys):
    assert main(["spider", "--legs", "2,2,2", "--audit"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "legs": [2, 2, 2],
        "num_vertices": 7,
        "formula": 3,
        "oracle": 4,
        "agrees": False,
    }


def test_build_cap_exits_fast(tmp_path, capsys):
    for legs, extra in itertools.product(("500000,500000,1", "1000000000,1,1"), ([], ["--audit"])):
        start = time.perf_counter()
        assert main(["spider", "--legs", legs] + extra) == 1
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert err.startswith("error: spider capped at 10000 vertices") and err.count("\n") == 1
    spec = _write(tmp_path, "big.json", '{"stars": [3, 1000000000], "gluings": [{"stars": [0, 1]}]}')
    for extra in ([], ["--audit"]):
        start = time.perf_counter()
        assert main(["starconn", "--spec", spec] + extra) == 1
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr().err.startswith("error: star connection capped at 10000")


def test_starconn_long_chain_builds_fast(tmp_path, capsys):
    r = 4999  # 2r + 1 = 9999 vertices, just under the build cap
    spec = {"stars": [3] * r, "gluings": [{"stars": [i, i + 1]} for i in range(r - 1)]}
    path = _write(tmp_path, "chain.json", json.dumps(spec))
    start = time.perf_counter()
    assert main(["starconn", "--spec", path]) == 0
    assert time.perf_counter() - start < 1.0
    out = capsys.readouterr().out
    assert out.startswith("n 9999\n") and out.count("\n") == 9999


def test_spider_bad_legs(capsys):
    assert main(["spider", "--legs", "2,x,2"]) == 1
    assert "malformed --legs" in capsys.readouterr().err
    assert main(["spider", "--legs", "2,2"]) == 1  # fewer than 3 legs
    for legs in ("2,2,2_0", "2,+2,2", "2,2,\u0662"):
        assert main(["spider", "--legs", legs]) == 1
        assert "malformed --legs" in capsys.readouterr().err
    assert main(["spider", "--legs", " 2, 2 ,2 "]) == 0


def test_starconn_build(tmp_path, capsys):
    spec = _write(tmp_path, "spec.json", TWO_S3)
    assert main(["starconn", "--spec", spec]) == 0
    out = capsys.readouterr().out
    assert out.startswith("n 5\n")
    assert len(out.strip().splitlines()) == 5  # header + 4 edges


def test_starconn_audit(tmp_path, capsys):
    spec = _write(tmp_path, "spec.json", TWO_S3)
    assert main(["starconn", "--spec", spec, "--audit"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "stars": [3, 3],
        "vertex_count": 5,
        "degree_excess": 1,
        "M": 3,
        "alpha": 3,
        "agrees": True,
    }


def test_starconn_audit_exits_3_on_a_tree_that_breaks_the_closed_forms(
    tmp_path, capsys, monkeypatch
):
    real = theorems.gen_star_connection

    def built(spec):  # one leaf more at vertex 0, a center
        t = real(spec)
        return Tree(t.n + 1, t.edges + ((0, t.n),))

    monkeypatch.setattr(theorems, "gen_star_connection", built)
    spec = _write(tmp_path, "spec.json", TWO_S3)
    assert main(["starconn", "--spec", spec, "--audit"]) == 3
    assert capsys.readouterr() == (
        "",
        "error: internal check failed: star connection built with 6 vertices and excess 1, "
        "closed forms give 5 and 1\n",
    )


def test_starconn_bad_spec(tmp_path, capsys):
    spec = _write(tmp_path, "spec.json", '{"stars": [3, 3]}')
    assert main(["starconn", "--spec", spec, "--audit"]) == 1
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize(
    "sizes,gluing,msg",
    [
        ("[3, 3]", '["a", 1]', "gluing star 'a' is not an integer"),
        ("[3, 3]", "[0.0, 1]", "gluing star 0.0 is not an integer"),
        ("[3, 3]", "[true, 0]", "gluing star True is not an integer"),
        ("[3, 3]", "[[0], 1]", "gluing star [0] is not an integer"),
        ("[3, 3]", "5", 'gluing "stars" must be a list'),
        ("[3, true]", "[0, 1]", "every star size must be an integer >= 3"),
    ],
)
def test_starconn_rejects_non_integer_stars(tmp_path, capsys, sizes, gluing, msg):
    spec = f'{{"stars": {sizes}, "gluings": [{{"stars": {gluing}}}]}}'
    path = _write(tmp_path, "spec.json", spec)
    for extra in ([], ["--audit"]):
        assert main(["starconn", "--spec", path] + extra) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {msg}\n"


@pytest.mark.parametrize(
    "spec,key",
    [
        ('{"stars": [3, 3], "gluings": [{"stars": [0, 1]}], "gluing": []}', "'gluing'"),
        ('{"stars": [3, 3], "gluings": [{"stars": [0, 1], "star": [1, 0]}]}', "'star'"),
    ],
    ids=["spec", "gluing"],
)
def test_starconn_rejects_an_unknown_key(tmp_path, capsys, spec, key):
    """A misspelt key would build a different tree, so it is refused."""
    path = _write(tmp_path, "spec.json", spec)
    for extra in ([], ["--audit"]):
        assert main(["starconn", "--spec", path] + extra) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert f"unknown key {key}" in captured.err


def test_enumerate(capsys):
    assert main(["enumerate", "--n", "5"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert len(data) == 3
    assert all(d["n"] == 5 and len(d["edges"]) == 4 for d in data)
    assert main(["enumerate", "--n", "7", "--count-only"]) == 0
    assert capsys.readouterr().out == "11\n"


def test_enumerate_lists_trees_in_canonical_code_order(capsys):
    """Survey indices are positions in this order."""
    assert main(["enumerate", "--n", "10"]) == 0
    data = json.loads(capsys.readouterr().out)
    trees = [Tree(d["n"], tuple(map(tuple, d["edges"]))) for d in data]
    codes = [graphs.canonical_code(t) for t in trees]
    assert len(trees) == 106 and all(t.n == 10 for t in trees)
    assert all(a < b for a, b in zip(codes, codes[1:]))


@pytest.mark.parametrize("n", range(1, 15))
def test_enumerate_lists_the_rows_as_the_library_lists_trees(capsys, tree_builds, n):
    """The listing is enumerate_free_trees(n) as JSON, printed from the rows
    that --count-only and the survey read, with no Tree built."""
    assert main(["enumerate", "--n", str(n)]) == 0
    assert tree_builds == []
    listing = [{"n": t.n, "edges": [list(e) for e in t.edges]} for t in enumerate_free_trees(n)]
    assert capsys.readouterr().out == json.dumps(listing, indent=2) + "\n"


def test_missing_file_is_domain_error(capsys):
    assert main(["compute", "--input", "/nonexistent/x.txt", "--basis", "m"]) == 1
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize(
    "argv",
    [
        ["compute", "--input", "{bad}", "--basis", "p"],
        ["decompose", "--input", "{bad}"],
        ["compare", "--a", "{good}", "--b", "{bad}"],
        ["starconn", "--spec", "{bad}"],
    ],
)
def test_non_utf8_input_is_domain_error(tmp_path, capsys, argv):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"\xffn 3\n0 1\n1 2\n")
    files = {"bad": str(bad), "good": _write(tmp_path, "p3.txt", P3)}
    assert main([arg.format(**files) for arg in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {bad}: not UTF-8 text (invalid start byte)\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["compute", "--input", "{tree}", "--basis", "p"],
        ["decompose", "--input", "{tree}"],
        ["compare", "--theorems", "--a", "{tree}", "--b", "{other}"],
        ["starconn", "--spec", "{spec}"],
    ],
)
def test_a_leading_byte_order_mark_is_ignored(tmp_path, capsys, argv):
    texts = {"tree": P4, "other": S4, "spec": TWO_S3}
    captured = []
    for bom in ("", "\ufeff"):
        files = {}
        for name, text in texts.items():
            path = tmp_path / f"{name}{len(bom)}.txt"
            path.write_text(bom + text, encoding="utf-8")
            files[name] = str(path)
        assert main([arg.format(**files) for arg in argv]) == 0
        captured.append(capsys.readouterr())
    assert captured[0].out and captured[0] == captured[1]


NINES = "9" * 4300  # past Python's default limit for int() and str() on decimal text
STARS = '{{"stars": [{}, {}], "gluings": [{{"stars": [0, 1]}}]}}'


@pytest.mark.parametrize(
    "argv,err",
    [
        (["compute", "--input", "{edges}", "--basis", "p"], "line 1: expected 'u v'"),
        (["decompose", "--input", "{edges}"], "line 1: expected 'u v'"),
        (["compare", "--a", "{edges}", "--b", "{edges}"], "line 1: expected 'u v'"),
        (["spider", "--legs", NINES + ",1,1"], "malformed --legs value"),
        (["starconn", "--spec", "{literal}"], "malformed star connection spec: not a decimal"),
        (["starconn", "--spec", "{stars}"], "malformed star connection spec: not a decimal"),
    ],
)
def test_integers_of_more_than_18_digits_are_domain_errors(tmp_path, capsys, argv, err):
    """int() and str() refuse decimal text past 4,300 digits with a bare
    ValueError; no integer of more than 18 digits gets that far."""
    files = {
        "edges": _write(tmp_path, "edges.txt", f"0 {NINES}\n"),
        "literal": _write(tmp_path, "literal.json", STARS.format("9" * 5001, 3)),
        "stars": _write(tmp_path, "stars.json", STARS.format(NINES, NINES)),
    }
    assert main([arg.format(**files) for arg in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {err}") and captured.err.count("\n") == 1


COMPUTE = ["compute", "--input", "{file}", "--basis", "p"]
STARCONN = ["starconn", "--spec", "{file}"]
GLUING = '{{"stars": [3, 3], "gluings": [{{"stars": [{}]}}]}}'


@pytest.mark.parametrize(
    "argv,text,code,err",
    [
        (["decompose", "--input", "{file}"], "x" * 10**6, 1, "error: line 1: expected 'u v'"),
        (COMPUTE, f"0 {NINES}", 1, "error: line 1: expected 'u v'"),
        (COMPUTE, f"n {'9' * 5000}", 1, "error: line 1: malformed header"),
        (STARCONN, STARS.format("9" * 5001, 3), 1, "of at most 18 digits"),
        (STARCONN, GLUING.format(f'0, "{"x" * 5000}"'), 1, "error: gluing star 'xxx"),
        (STARCONN, GLUING.format("0" + ", 1" * 3000), 1, "error: gluing lists a star twice"),
        (["spider", "--legs", NINES + ",1,1"], None, 1, "error: malformed --legs value"),
        (["survey", "--n", "9" * 100_000], None, 2, "error: argument --n: invalid int value"),
    ],
    ids=["decompose-line", "compute-token", "header", "starconn-literal", "gluing-star",
         "gluing-twice", "spider-legs", "survey-n"],
)
def test_error_messages_echo_a_bounded_prefix_of_the_input(tmp_path, capsys, argv, text, code, err):
    """An offending line, token or option value is echoed cut to a short
    prefix, so no message grows with the input."""
    path = _write(tmp_path, "input.txt", text) if text is not None else None
    argv = [arg.format(file=path) for arg in argv]
    if code == 2:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
    else:
        assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert err in captured.err
    assert max(len(line.encode()) for line in captured.err.splitlines()) <= 200


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["compute", "--input", "x", "--basis", "q"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    capsys.readouterr()



@pytest.mark.parametrize("value", ["1_0", "+10", "\uff11\uff10", "abc", "1" * 19])
@pytest.mark.parametrize(
    "argv",
    [["survey", "--n", "{}"], ["survey", "--n", "4", "--jobs", "{}"], ["enumerate", "--n", "{}"]],
)
def test_integer_options_take_ascii_decimals_only(capsys, argv, value):
    """--n and --jobs spell their integer as parse_int does, in at most 18
    digits; int() would take 1_0, +10 and full-width digits.  The
    rejection is argparse's."""
    with pytest.raises(SystemExit) as exc:
        main([arg.format(value) for arg in argv])
    assert exc.value.code == 2
    option = argv[-2]
    assert capsys.readouterr().err.endswith(
        f"error: argument {option}: invalid int value: {value!r}\n"
    )


def test_integer_options_allow_surrounding_whitespace(capsys):
    assert main(["enumerate", "--n", " 7 ", "--count-only"]) == 0
    assert capsys.readouterr().out == "11\n"

# The csf process itself: run() ends it with os._exit once main() has
# returned, so these tests check what reaches the caller of a real process.
# The child's stdout is block-buffered, as it is for a user's pipe or file,
# so a write that fails shows only when the buffer is flushed.
needs_dev_full = pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
ENOSPC_LINE = "error: [Errno 28] No space left on device\n"


def _csf(argv, *, code=None, **kwargs):
    """Run `python -m csftrees.cli argv`, or `python -c code`, in a fresh
    interpreter with buffered stdout; stdout and stderr are piped unless
    kwargs say otherwise."""
    env = _child_env()
    env.pop("PYTHONUNBUFFERED", None)
    cmd = [sys.executable, "-c", code] if code else [sys.executable, "-m", "csftrees.cli", *argv]
    kwargs = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE, **kwargs}
    return subprocess.run(cmd, env=env, text=True, timeout=60, **kwargs)


def test_the_csf_process_keeps_main_s_output_and_exit_code(tmp_path, capsys):
    """Over 64 KiB of stdout through a pipe and a whole --out file arrive
    as main() writes them in-process, and the exit code is main()'s."""
    assert main(["enumerate", "--n", "12"]) == 0
    listing = capsys.readouterr().out
    assert len(listing.encode()) > 64 * 1024
    proc = _csf(["enumerate", "--n", "12"])
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, listing, "")

    path = _write(tmp_path, "tree14.txt", COMPUTE_INPUTS["tree14"])
    out = tmp_path / "tree14.json"
    assert main(["compute", "--input", path, "--basis", "p"]) == 0
    proc = _csf(["compute", "--input", path, "--basis", "p", "--out", str(out)])
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "")
    assert out.read_text() == capsys.readouterr().out

    proc = _csf(["compute", "--input", str(tmp_path / "missing.txt"), "--basis", "p"])
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    proc = _csf(["compute", "--input", path, "--basis", "q"])
    assert (proc.returncode, proc.stdout) == (2, "")
    assert "invalid choice: 'q'" in proc.stderr


def test_the_csf_process_exits_3_on_a_failed_internal_check(tmp_path):
    path = _write(tmp_path, "p3.txt", P3)
    code = (
        "import sys\n"
        "from csftrees import cli, symfunc\n"
        "from csftrees.errors import InternalError\n"
        "def broken(g):\n"
        "    raise InternalError('invariant broken')\n"
        "symfunc.csf_powersum = broken\n"
        f"sys.argv = ['csf', 'compute', '--input', {path!r}, '--basis', 'p']\n"
        "cli.run()\n"
    )
    proc = _csf(None, code=code)
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr == "error: internal check failed: invariant broken\n"


@needs_dev_full
def test_a_stdout_write_that_fails_at_the_flush_exits_1():
    """enumerate --n 8 fits the stdout buffer, so its write fails only at
    the flush: one error line and exit 1, not an ignored exception at
    interpreter exit and exit 120."""
    with open("/dev/full", "w") as full:
        proc = _csf(["enumerate", "--n", "8"], stdout=full)
    assert (proc.returncode, proc.stderr) == (1, ENOSPC_LINE)


@needs_dev_full
def test_stdout_written_before_a_request_failed_is_kept(capsys):
    """survey writes its JSON to stdout and then fails on the CSV; the JSON
    still reaches stdout, as it did when the interpreter flushed it."""
    assert main(["survey", "--n", "4"]) == 0
    proc = _csf(["survey", "--n", "4", "--csv", "/dev/full"])
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, capsys.readouterr().out, ENOSPC_LINE)


def test_a_closed_stdout_fails_only_a_request_that_writes_to_it(tmp_path, capsys):
    """With fd 1 closed at start, Python's sys.stdout is None: compute to
    stdout is one error line and exit 1, compute --out still succeeds."""
    path = _write(tmp_path, "p3.txt", P3)
    out = tmp_path / "p3.json"

    def close_stdout():
        os.close(1)

    proc = _csf(["compute", "--input", path, "--basis", "p"], stdout=None, preexec_fn=close_stdout)
    assert (proc.returncode, proc.stderr) == (1, "error: [Errno 9] standard output is closed\n")
    argv = ["compute", "--input", path, "--basis", "p", "--out", str(out)]
    proc = _csf(argv, stdout=None, preexec_fn=close_stdout)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert main(["compute", "--input", path, "--basis", "p"]) == 0
    assert out.read_text() == capsys.readouterr().out


def test_the_csf_script_is_cli_run():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    pyproject = Path(csftrees.__file__).parents[2] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["csf"]
    module, _, name = target.partition(":")
    assert module == "csftrees.cli"
    assert getattr(cli, name) is cli.run


# What each request loads of the package, and nothing else worth watching:
# numpy and dataclasses stay out of every request, and only compute (and
# compare) load the CSF engine, symfunc and _kernels.
CLI_MODULES = ["csftrees", "csftrees.cli", "csftrees.errors", "csftrees.graphs"]
COMPUTE_MODULES = sorted(CLI_MODULES + ["csftrees._kernels", "csftrees.partitions",
                                        "csftrees.symfunc"])
SURVEY_MODULES = sorted(CLI_MODULES + ["csftrees.decomposition", "csftrees.generators",
                                       "csftrees.partitions", "csftrees.theorems"])
_WATCHED = ("numpy", "dataclasses")


def _fresh_python(code: str) -> list[str]:
    """Run code in a new interpreter that imports csftrees from this tree;
    return the sorted csftrees modules it loaded, and any of _WATCHED that
    it loaded beyond what the interpreter's own start-up did."""
    wrapped = (f"import json, sys\nbefore = set(sys.modules)\n{code}\n"
               f"print(json.dumps(sorted(m for m in set(sys.modules) - before "
               f"if m in {_WATCHED!r} or m.split('.')[0] == 'csftrees')))")
    out = subprocess.run([sys.executable, "-c", wrapped], env=_child_env(),
                         capture_output=True, text=True, check=True)
    return json.loads(out.stdout.splitlines()[-1])


def test_cli_import_does_not_load_numpy():
    """Start-up stays light: importing the CLI loads neither numpy nor
    dataclasses, nor the modules of any subcommand."""
    assert _fresh_python("import csftrees.cli") == CLI_MODULES


def test_compute_on_a_graph_with_cycles_does_not_load_numpy(tmp_path):
    """Both kernels hand back plain ints: compute in either basis on a graph
    with cycles leaves numpy (and the other subcommands' modules) unloaded."""
    path = _write(tmp_path, "graph12.txt", COMPUTE_INPUTS["graph12"])
    code = (f"from csftrees import cli\n"
            f"for basis in 'pm':\n"
            f"    assert cli.main(['compute', '--input', {path!r}, '--basis', basis]) == 0")
    assert _fresh_python(code) == COMPUTE_MODULES


def test_compute_on_a_tree_does_not_load_the_kernels(tmp_path):
    """The two counting kernels serve graphs that are not trees: compute in
    either basis on a tree loads neither _kernels nor numpy, and compute on
    the graph with cycles still loads _kernels."""
    runs = {}
    for name in ("tree11", "graph12"):
        path = _write(tmp_path, f"{name}.txt", COMPUTE_INPUTS[name])
        out = str(tmp_path / f"{name}.json")
        runs[name] = _fresh_python(
            f"from csftrees import cli\n"
            f"for basis in 'pm':\n"
            f"    assert cli.main(['compute', '--input', {path!r}, '--basis', basis, "
            f"'--out', {out!r}]) == 0")
    assert runs["tree11"] == sorted(CLI_MODULES + ["csftrees.partitions", "csftrees.symfunc"])
    assert runs["graph12"] == COMPUTE_MODULES


def test_survey_n10_does_not_load_the_csf_engine(tmp_path):
    """No two trees on n <= 10 vertices tie on the exact invariants, so
    survey --n 10 never imports symfunc or _kernels (nor dataclasses)."""
    out = str(tmp_path / "survey10.json")
    code = (f"from csftrees import cli\n"
            f"assert cli.main(['survey', '--n', '10', '--out', {out!r}]) == 0")
    assert _fresh_python(code) == SURVEY_MODULES


def test_survey_n11_loads_symfunc_but_not_the_kernels(tmp_path):
    """n = 11 is the first size where two trees tie on the exact invariants:
    the X stage imports symfunc for the tree DP, and still neither _kernels
    nor numpy nor dataclasses."""
    out = str(tmp_path / "survey11.json")
    code = (f"from csftrees import cli\n"
            f"assert cli.main(['survey', '--n', '11', '--out', {out!r}]) == 0")
    assert _fresh_python(code) == sorted(SURVEY_MODULES + ["csftrees.symfunc"])


def test_readme_library_example_prints_its_comments(capsys):
    """README's Library block runs as written, and each line it prints is
    the comment on its print call."""
    readme = (Path(csftrees.__file__).parents[2] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library\n\n```python\n", 1)[1].split("```", 1)[0]
    prints = [re.fullmatch(r"print\(.*\)\s+# (.*)", line) for line in block.splitlines()
              if line.startswith("print(")]
    assert len(prints) == 5 and all(prints)
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines() == [m[1] for m in prints]


def test_package_exports_are_the_submodules_objects(monkeypatch):
    """csftrees loads its public names on demand: each is the defining
    submodule's object, looked up afresh (a patch in the submodule shows),
    dir() lists them, and an unknown name is an AttributeError.  Every
    public name has a user: another module of the package, or README.md,
    which names it for library users."""
    assert len(set(csftrees.__all__)) == len(csftrees.__all__) > 0
    package = Path(csftrees.__file__).parent
    sources = {p.stem: p.read_text(encoding="utf-8") for p in package.glob("*.py")}
    readme = (package.parents[1] / "README.md").read_text(encoding="utf-8")
    for name in csftrees.__all__:
        defining = csftrees._EXPORTS[name]
        module = importlib.import_module(f"csftrees.{defining}")
        assert getattr(csftrees, name) is getattr(module, name)
        users = [text for stem, text in sources.items() if stem not in ("__init__", defining)]
        word = re.compile(rf"\b{name}\b")
        assert any(word.search(text) for text in [readme, *users]), f"{name} has no user"
    assert set(csftrees.__all__) <= set(dir(csftrees))
    assert "__version__" in dir(csftrees)
    monkeypatch.setattr(symfunc, "csf_powersum", lambda g: None)
    assert csftrees.csf_powersum(None) is None
    with pytest.raises(AttributeError, match="has no attribute 'stable_partitions'"):
        csftrees.stable_partitions
    with pytest.raises(ImportError):
        from csftrees import no_such_name  # noqa: F401
