"""csf: the command-line front end.

Subcommands
  compute    CSF of an edge-list graph in the m or p basis (JSON)
  decompose  leaf decomposition of a tree (JSON)
  compare    two trees: CSF equality and, with --theorems, all verdicts (JSON)
  survey     pairwise theorem survey over all trees on n vertices (JSON, CSV)
  spider     build a spider from leg lengths; --audit checks the M formula
  starconn   build a star connection from a JSON spec file; --audit likewise
  enumerate  all non-isomorphic trees on n vertices

Exit codes: 0 success; 1 domain error, or a failed write, stdout's
included (one "error: ..." line on stderr); 2 usage error; 3 failed
internal check, i.e. a bug (one "error: internal check failed: ..." line
on stderr).  Output is exact-integer JSON (or edge-list text) and is
byte-identical for identical inputs.  survey runs in one process; its
--jobs option is still accepted and has no effect.

Output files (survey --csv and --out, compute --out, compare --out) follow
one policy, _outputs: after its own argument checks (survey: the n range,
the --csv cap, --out and --csv naming one regular file; compute and
compare: parsing the inputs) and before any survey or CSF work, the
request opens each path for appending and closes it at once, so a path
that cannot be written fails the request before the work (and ahead of a
CSF cap) and no file is truncated; the work then writes each file whole.
A failed request removes only the files it created, and leaves a file
that existed before, a regular file or /dev/null, as it was (unless the
failure comes while that file is being written).

Start-up is part of every request, so this module imports only errors
and graphs, and each handler imports what it runs: compute and compare
the CSF engine (symfunc), survey the theorems module, which loads the
engine only when two trees tie on its exact invariants (never for
n <= 10).  Integer options take ASCII decimals of at most 18 digits
(parse_int).

How a request ends: main() runs the handler and then flushes stdout, so a
buffered write that fails (to a full disk, say) is an OSError like any
other, exit 1; a closed fd 1 (sys.stdout is None) fails only a request
that writes to stdout.  The csf script and `python -m csftrees.cli` call
run(), which ends the process with os._exit, skipping the interpreter's
teardown of modules and objects.  No output depends on that teardown:
every output file is closed when main() returns, and the package
registers no atexit handler.  In-process callers of main() and argparse's
SystemExit (usage errors, --help) keep the normal exit.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import stat
import sys
from contextlib import contextmanager, suppress

from .errors import CapExceededError, GraphError, InternalError
from .graphs import Tree, _parse_edges, parse_edge_list, parse_int, serialize


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8-sig") as fh:  # a leading BOM is dropped
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise GraphError(f"{path}: not UTF-8 text ({exc.reason})") from None


@contextmanager
def _outputs(*paths: str | None):
    """Check that each given path can be written, creating it if missing;
    if the block raises, remove the files created here and re-raise."""
    created = []
    try:
        for path in filter(None, paths):
            try:
                open(path, "x").close()
                created.append(path)
            except FileExistsError:
                open(path, "a").close()
        yield
    except BaseException:
        for path in created:
            os.remove(path)
        raise


def _emit(text: str, out: str | None, rows=()) -> None:
    if out:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
            fh.writelines(rows)
    else:
        if sys.stdout is None:  # fd 1 was closed when the interpreter started
            raise OSError(errno.EBADF, "standard output is closed")
        sys.stdout.write(text)
        sys.stdout.writelines(rows)


def _emit_json(obj, out: str | None) -> None:
    _emit(json.dumps(obj, indent=2) + "\n", out)


def _read_tree(path: str) -> Tree:
    return Tree(*_parse_edges(_read(path)))  # the Graph checks run once, in Tree


def _cmd_compute(args) -> int:
    from .symfunc import BASIS_POWERSUM, csf_monomial, csf_powersum, symfunc_to_json_dict

    g = parse_edge_list(_read(args.input))
    with _outputs(args.out):
        f = csf_powersum(g) if args.basis == BASIS_POWERSUM else csf_monomial(g)
        _emit_json(symfunc_to_json_dict(f), args.out)
    return 0


def _cmd_decompose(args) -> int:
    from .decomposition import decomposition_to_json_dict, leaf_decomposition

    t = _read_tree(args.input)
    _emit_json(decomposition_to_json_dict(leaf_decomposition(t)), None)
    return 0


def _cmd_compare(args) -> int:
    from .symfunc import csf_equal

    ta = _read_tree(args.a)
    tb = _read_tree(args.b)
    with _outputs(args.out):
        report = {"n_a": ta.n, "n_b": tb.n, "x_equal": csf_equal(ta, tb)}
        if args.theorems:
            from .theorems import _pair_facts, _pair_verdicts, verdict_to_json_dict

            report["theorems"] = [verdict_to_json_dict(v) for v in _pair_verdicts(*_pair_facts(ta, tb))]
        _emit_json(report, args.out)
    return 0


def _same_regular_file(a: str, b: str) -> bool:
    """Whether two output paths name one regular file, existing or one that
    opening them would create; two handles on, say, /dev/null clobber
    nothing."""
    try:
        sa, sb = os.stat(a), os.stat(b)
    except OSError:
        return os.path.realpath(a) == os.path.realpath(b)
    return os.path.samestat(sa, sb) and stat.S_ISREG(sa.st_mode)


def _cmd_survey(args) -> int:
    from .theorems import (
        SURVEY_CSV_HEADER,
        SURVEY_CSV_MAX_N,
        _check_survey_n,
        survey,
        survey_report_to_json_dict,
    )

    _check_survey_n(args.n)  # the range error comes first
    if args.csv and args.n > SURVEY_CSV_MAX_N:
        raise CapExceededError(
            f"survey --csv capped at n <= {SURVEY_CSV_MAX_N} (one row per tree pair), "
            f"got {args.n}"
        )
    if args.out and args.csv and _same_regular_file(args.out, args.csv):
        raise GraphError(f"survey --out and --csv name the same file: {args.csv}")
    with _outputs(args.csv, args.out):
        rep = survey(args.n)
        _emit_json(survey_report_to_json_dict(rep), args.out)
        if args.csv:
            _emit(",".join(SURVEY_CSV_HEADER) + "\n", args.csv, rep.pair_rows())
    return 0


def _parse_legs(text: str):
    from .generators import SpiderSpec

    try:
        legs = tuple(parse_int(x.strip()) for x in text.split(","))
    except ValueError:
        raise GraphError(f"malformed --legs value: {text!r}") from None
    return SpiderSpec(legs)


def _cmd_spider(args) -> int:
    from .generators import gen_spider
    from .theorems import spider_audit

    spec = _parse_legs(args.legs)
    if not args.audit:
        _emit(serialize(gen_spider(spec)), None)
        return 0
    formula, oracle, agrees = spider_audit(spec)
    _emit_json(
        {
            "legs": list(spec.legs),
            "num_vertices": spec.num_vertices,
            "formula": formula,
            "oracle": oracle,
            "agrees": agrees,
        },
        None,
    )
    return 0


def _cmd_starconn(args) -> int:
    from .generators import StarConnectionSpec, gen_star_connection
    from .theorems import star_connection_audit

    spec = StarConnectionSpec.from_json(_read(args.spec))
    if not args.audit:
        _emit(serialize(gen_star_connection(spec)), None)
        return 0
    nverts, excess, m, alpha = star_connection_audit(spec)
    _emit_json(
        {
            "stars": list(spec.star_sizes),
            "vertex_count": nverts,
            "degree_excess": excess,
            "M": m,
            "alpha": alpha,
            "agrees": m == alpha,
        },
        None,
    )
    return 0


def _cmd_enumerate(args) -> int:
    from .generators import _free_tree_edge_sets

    n, rows = args.n, _free_tree_edge_sets(args.n)  # both modes read the rows; no Tree is built
    if args.count_only:
        _emit(f"{len(rows)}\n", None)
    else:  # row[v] < v, so the sorted pairs are in Tree.edges order
        _emit_json([{"n": n, "edges": sorted([row[v], v] for v in range(1, n))} for row in rows], None)
    return 0


def _int_arg(text: str) -> int:
    """argparse type of the integer options: parse_int after stripping the
    whitespace int() allows, so "1_0", "+10" and non-ASCII digits are usage
    errors with argparse's own message."""
    try:
        return parse_int(text.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="csf",
        description="Chromatic symmetric functions of trees: computation, "
        "leaf decompositions, and distinguishing-theorem checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="CSF of an edge-list graph")
    p.add_argument("--input", required=True, help="edge-list file")
    p.add_argument("--basis", required=True, choices=("m", "p"), help="output basis")
    p.add_argument("--out", help="write JSON here instead of stdout")
    p.set_defaults(func=_cmd_compute)

    p = sub.add_parser("decompose", help="leaf decomposition of a tree")
    p.add_argument("--input", required=True, help="edge-list file")
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("compare", help="compare two trees")
    p.add_argument("--a", required=True, help="edge-list file")
    p.add_argument("--b", required=True, help="edge-list file")
    p.add_argument("--theorems", action="store_true", help="run all theorem checkers")
    p.add_argument("--out", help="write JSON here instead of stdout")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("survey", help="pairwise survey over all trees on n vertices")
    p.add_argument("--n", type=_int_arg, required=True)
    p.add_argument("--jobs", type=_int_arg, help="accepted for compatibility; has no effect")
    p.add_argument("--out", help="write JSON here instead of stdout")
    p.add_argument("--csv", help="also write the per-pair CSV here")
    p.set_defaults(func=_cmd_survey)

    p = sub.add_parser("spider", help="build a spider tree")
    p.add_argument("--legs", required=True, help="comma-separated leg lengths, e.g. 2,2,2")
    p.add_argument("--audit", action="store_true", help="audit the M formula instead")
    p.set_defaults(func=_cmd_spider)

    p = sub.add_parser("starconn", help="build a star connection")
    p.add_argument("--spec", required=True, help="JSON spec file")
    p.add_argument("--audit", action="store_true", help="audit the M formula instead")
    p.set_defaults(func=_cmd_starconn)

    p = sub.add_parser("enumerate", help="all non-isomorphic trees on n vertices")
    p.add_argument("--n", type=_int_arg, required=True)
    p.add_argument("--count-only", action="store_true")
    p.set_defaults(func=_cmd_enumerate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        if sys.stdout is not None:
            sys.stdout.flush()  # a failed write is reported here, not lost at exit
        return code
    except (GraphError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InternalError as exc:
        print(f"error: internal check failed: {exc}", file=sys.stderr)
        return 3


def run() -> None:
    """The csf command: main(), then os._exit with its code.  main() has
    flushed stdout on success; flushed here are stderr, and stdout that a
    failed request wrote before it failed."""
    code = main()
    for stream in (sys.stdout, sys.stderr):
        if stream is not None:  # None: the fd was closed at start
            with suppress(OSError):  # main() has reported the failed request
                stream.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
