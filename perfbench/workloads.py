"""Seeded inputs and output checks for the four benchmark workloads.

Nothing here imports csftrees: the inputs are built by the benchmark's own
Prüfer decoder, and every output is checked with the benchmark's own code
(AHU tree codes, an independence-number DP, brute-force colourings and the
closed forms a tree's chromatic symmetric function must satisfy). A change
to the package can therefore change neither the inputs nor the verdict on
its outputs.

A workload hands out passes. A pass is a list of requests, each one fresh
``csf`` process; the benchmark reports per-pass figures.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import random
from dataclasses import dataclass
from math import comb, factorial
from pathlib import Path
from typing import Callable

import numpy as np


class CheckFailed(Exception):
    """An output of the program is wrong."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


@dataclass
class Request:
    """One ``csf`` invocation: its arguments, the files it writes besides
    stdout, and the check its output bytes must pass."""

    args: list[str]
    outputs: list[Path]
    check: Callable[[bytes, list[bytes]], None]
    label: str


# --------------------------------------------------------------- tree helpers


def prufer_edges(seq: list[int], n: int) -> list[tuple[int, int]]:
    """Decode a Prüfer sequence over 0..n-1 by repeated smallest-leaf scans."""
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    edges = []
    for x in seq:
        leaf = next(v for v in range(n) if degree[v] == 1)
        edges.append((leaf, x))
        degree[leaf] -= 1
        degree[x] -= 1
    u, v = (w for w in range(n) if degree[w] == 1)
    edges.append((u, v))
    return edges


def random_tree(rng: random.Random, n: int) -> list[tuple[int, int]]:
    return prufer_edges([rng.randrange(n) for _ in range(n - 2)], n)


def adjacency(n: int, edges) -> list[list[int]]:
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def is_tree(n: int, edges) -> bool:
    if len(edges) != n - 1:
        return False
    root = list(range(n))

    def find(x: int) -> int:
        while root[x] != x:
            root[x] = root[root[x]]
            x = root[x]
        return x

    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n) or u == v:
            return False
        a, b = find(u), find(v)
        if a == b:
            return False
        root[a] = b
    return True


def tree_code(n: int, edges, interned: dict) -> int:
    """AHU isomorphism code of a tree, rooted at its center.

    Rooted subtrees get integer ids from ``interned`` (shared by every tree
    that is compared), so two trees are isomorphic iff their codes match."""
    adj = adjacency(n, edges)
    degree = [len(a) for a in adj]
    layer = [v for v in range(n) if degree[v] <= 1]
    left = n
    while left > 2:
        left -= len(layer)
        nxt = []
        for v in layer:
            for w in adj[v]:
                degree[w] -= 1
                if degree[w] == 1:
                    nxt.append(w)
        layer = nxt

    def rooted(root: int) -> int:
        parent = {root: None}
        order = [root]
        for v in order:
            for w in adj[v]:
                if w not in parent:
                    parent[w] = v
                    order.append(w)
        ids: dict[int, int] = {}
        for v in reversed(order):
            key = tuple(sorted(ids[w] for w in adj[v] if parent.get(w) == v))
            ids[v] = interned.setdefault(key, len(interned))
        return ids[root]

    return min(rooted(c) for c in layer)


def tree_alpha(n: int, edges) -> int:
    """Independence number of a tree by the take/skip DP."""
    adj = adjacency(n, edges)
    parent = [-1] * n
    order = [0]
    seen = {0}
    for v in order:
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                parent[w] = v
                order.append(w)
    take = [1] * n
    skip = [0] * n
    for v in reversed(order):
        p = parent[v]
        if p >= 0:
            take[p] += skip[v]
            skip[p] += max(take[v], skip[v])
    return max(take[0], skip[0])


def graph_alpha(n: int, edges) -> int:
    """Independence number of a small graph by trying every vertex subset."""
    best = 0
    for mask in range(1 << n):
        if all(not (mask >> u) & 1 or not (mask >> v) & 1 for u, v in edges):
            best = max(best, bin(mask).count("1"))
    return best


def proper_colourings(n: int, edges, r: int) -> int:
    """Proper r-colourings counted over all r**n assignments."""
    colours = np.indices((r,) * n, dtype=np.int8).reshape(n, -1)
    ok = np.ones(colours.shape[1], dtype=bool)
    for u, v in edges:
        ok &= colours[u] != colours[v]
    return int(ok.sum())


def edge_list_text(n: int, edges) -> str:
    return f"n {n}\n" + "".join(f"{u} {v}\n" for u, v in edges)


# ------------------------------------------------ symmetric-function checks


def parse_symfunc(data: bytes, n: int, basis: str) -> list[tuple[tuple[int, ...], int]]:
    obj = json.loads(data)
    require(obj.get("n") == n, f"expected n = {n}, got {obj.get('n')!r}")
    require(obj.get("basis") == basis, f"expected basis {basis!r}, got {obj.get('basis')!r}")
    terms = []
    for t in obj["terms"]:
        parts = tuple(t["partition"])
        require(sum(parts) == n and list(parts) == sorted(parts, reverse=True),
                f"{parts} is not a partition of {n}")
        require(isinstance(t["coeff"], int) and t["coeff"] != 0, f"bad coefficient at {parts}")
        terms.append((parts, t["coeff"]))
    require(len({p for p, _ in terms}) == len(terms), "a partition appears twice")
    return terms


def p_at_ones(terms, r: int) -> int:
    """A power-sum expansion evaluated at x_1 = ... = x_r = 1."""
    return sum(c * r ** len(parts) for parts, c in terms)


def m_at_ones(terms, r: int) -> int:
    """A monomial expansion evaluated at x_1 = ... = x_r = 1: m_lambda
    counts the distinct rearrangements of lambda padded to r entries."""
    total = 0
    for parts, c in terms:
        if len(parts) > r:
            continue
        padded = parts + (0,) * (r - len(parts))
        ways = factorial(r)
        for value in set(padded):
            ways //= factorial(padded.count(value))
        total += c * ways
    return total


def check_tree_p(n: int):
    def check(stdout: bytes, files: list[bytes]) -> None:
        terms = parse_symfunc(files[0], n, "p")
        for r in (2, 3, 5):
            require(p_at_ones(terms, r) == r * (r - 1) ** (n - 1),
                    f"X_T(1^{r}) != {r}({r}-1)^{n - 1}")
        coeff = dict(terms)
        require(coeff.get((1,) * n) == 1, "[p_{1^n}] != 1")
        require(coeff.get((n,)) == (-1) ** (n - 1), "[p_(n)] != (-1)^(n-1)")

    return check


def check_tree_m(n: int, alpha: int):
    def check(stdout: bytes, files: list[bytes]) -> None:
        terms = parse_symfunc(files[0], n, "m")
        require(max(p[0] for p, _ in terms) == alpha, f"largest part != alpha = {alpha}")
        require(m_at_ones(terms, 3) == 3 * 2 ** (n - 1), f"X_T(1^3) != 3*2^{n - 1}")

    return check


def check_graph(n: int, basis: str, colourings: int, alpha: int):
    def check(stdout: bytes, files: list[bytes]) -> None:
        terms = parse_symfunc(files[0], n, basis)
        value = p_at_ones(terms, 3) if basis == "p" else m_at_ones(terms, 3)
        require(value == colourings, f"X_G(1^3) = {value}, brute force counts {colourings}")
        if basis == "m":
            require(max(p[0] for p, _ in terms) == alpha, f"largest part != alpha = {alpha}")

    return check


# ------------------------------------------------------------------ workloads


class Workload:
    """Base class: seeded inputs written under ``workdir`` and digested."""

    name = ""

    def __init__(self, seed: int, workdir: Path):
        self.rng = random.Random(seed)
        self.workdir = workdir
        self.digest = hashlib.sha256(f"{self.name}:{seed}".encode())

    def write_input(self, fname: str, text: str) -> Path:
        path = self.workdir / fname
        path.write_text(text, encoding="utf-8")
        self.digest.update(fname.encode() + b"\0" + text.encode() + b"\0")
        return path

    def next_pass(self, traced: bool = False) -> list[Request]:
        """The requests of the next pass; ``traced`` asks for the variant
        that the traced pass runs, once untraced and once traced."""
        raise NotImplementedError

    def reference_pass(self) -> list[Request] | None:
        """An untraced pass whose output bytes must equal the traced pass's."""
        return None


SURVEY_N = 10
SURVEY_TREES = 106  # free trees on 10 vertices (OEIS A000055)


class Survey(Workload):
    """``survey --n 10``: every pair of the 106 trees, plus the audits."""

    name = "survey"

    def _request(self, jobs: int) -> Request:
        out, csv_path = self.workdir / "survey.json", self.workdir / "survey.csv"
        args = ["survey", "--n", str(SURVEY_N), "--jobs", str(jobs),
                "--out", str(out), "--csv", str(csv_path)]
        return Request(args, [out, csv_path], check_survey, f"survey --jobs {jobs}")

    def next_pass(self, traced: bool = False) -> list[Request]:
        # Traced at --jobs 1 so that the worker spans stay in one process.
        return [self._request(1 if traced else 2)]

    def reference_pass(self) -> list[Request]:
        return [self._request(2)]


def check_survey(stdout: bytes, files: list[bytes]) -> None:
    report = json.loads(files[0])
    pairs = comb(SURVEY_TREES, 2)
    require(report["n"] == SURVEY_N, "wrong n")
    require(report["num_trees"] == SURVEY_TREES, f"num_trees = {report['num_trees']}")
    require(report["pairs"] == pairs, f"pairs = {report['pairs']}")
    require(report["x_equal_pairs"] == 0, f"x_equal_pairs = {report['x_equal_pairs']}")
    require(report["soundness_violations"] == [], "soundness violations reported")
    require(report["chain_audit_violations"] == [], "chain audit violations reported")
    rows = list(csv.reader(io.StringIO(files[1].decode("utf-8"))))
    require(rows[0][:3] == ["a", "b", "x_equal"], "CSV header")
    require(len(rows) == pairs + 1, f"CSV has {len(rows) - 1} rows, expected {pairs}")
    require(all(row[2] == "false" for row in rows[1:]), "CSV lists an X-equal pair")


COMPARE_N = 12


class Compare(Workload):
    """``compare --theorems`` on a fresh seeded pair of 12-vertex trees."""

    name = "compare"

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.count = 0

    def next_pass(self, traced: bool = False) -> list[Request]:
        interned: dict = {}
        a = random_tree(self.rng, COMPARE_N)
        b = random_tree(self.rng, COMPARE_N)
        while tree_code(COMPARE_N, a, interned) == tree_code(COMPARE_N, b, interned):
            b = random_tree(self.rng, COMPARE_N)
        k = self.count
        self.count += 1
        fa = self.write_input(f"compare{k}a.txt", edge_list_text(COMPARE_N, a))
        fb = self.write_input(f"compare{k}b.txt", edge_list_text(COMPARE_N, b))
        out = self.workdir / "compare.json"
        alphas = (tree_alpha(COMPARE_N, a), tree_alpha(COMPARE_N, b))
        args = ["compare", "--a", str(fa), "--b", str(fb), "--theorems", "--out", str(out)]
        return [Request(args, [out], check_compare(alphas), f"compare pair {k}")]


def check_compare(alphas: tuple[int, int]):
    def check(stdout: bytes, files: list[bytes]) -> None:
        report = json.loads(files[0])
        require(report["n_a"] == COMPARE_N and report["n_b"] == COMPARE_N, "wrong n")
        require(report["x_equal"] is False, "non-isomorphic trees reported X-equal")
        verdicts = report["theorems"]
        require(len(verdicts) == 3, f"{len(verdicts)} verdicts, expected 3")
        for v in verdicts:
            if v["status"] != "Applicable":
                continue
            hi, lo = (alphas[1], alphas[0]) if v["swapped"] else alphas
            require(v["m1"] > v["m2"], f"{v['theorem']}: m1 <= m2")
            require((v["m1"], v["m2"]) == (hi, lo),
                    f"{v['theorem']}: claims ({v['m1']}, {v['m2']}), alpha gives ({hi}, {lo})")

    return check


COMPUTE_TREE_N = 17
COMPUTE_M_TREE_N = 11
CYCLIC_N, CYCLIC_EDGES = 12, 16


class Compute(Workload):
    """``compute`` on large trees (p basis, the 2^|E| sweep), on a graph
    with cycles in both bases, and on a smaller tree in the m basis."""

    name = "compute"

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        n = COMPUTE_TREE_N
        spine = (n + 1) // 2
        trees = {
            "path": [(i, i + 1) for i in range(n - 1)],
            "star": [(0, i) for i in range(1, n)],
            "comb": [(i, i + 1) for i in range(spine - 1)] + [(i, spine + i) for i in range(n - spine)],
            "prufer": random_tree(self.rng, n),
        }
        graph = set(map(tuple, map(sorted, random_tree(self.rng, CYCLIC_N))))
        while len(graph) < CYCLIC_EDGES:
            u, v = sorted(self.rng.sample(range(CYCLIC_N), 2))
            graph.add((u, v))
        graph = sorted(graph)
        small = random_tree(self.rng, COMPUTE_M_TREE_N)

        self.requests = []
        for shape, edges in trees.items():
            path = self.write_input(f"{shape}{n}.txt", edge_list_text(n, edges))
            self._add(path, "p", check_tree_p(n), f"{shape}{n}")
        path = self.write_input("cyclic.txt", edge_list_text(CYCLIC_N, graph))
        colourings = proper_colourings(CYCLIC_N, graph, 3)
        alpha = graph_alpha(CYCLIC_N, graph)
        for basis in ("p", "m"):
            self._add(path, basis, check_graph(CYCLIC_N, basis, colourings, alpha), f"cyclic{CYCLIC_N}")
        path = self.write_input("prufer11.txt", edge_list_text(COMPUTE_M_TREE_N, small))
        self._add(path, "m", check_tree_m(COMPUTE_M_TREE_N, tree_alpha(COMPUTE_M_TREE_N, small)),
                  f"prufer{COMPUTE_M_TREE_N}")

    def _add(self, path: Path, basis: str, check, what: str) -> None:
        out = self.workdir / "compute.json"
        args = ["compute", "--input", str(path), "--basis", basis, "--out", str(out)]
        self.requests.append(Request(args, [out], check, f"compute {basis} {what}"))

    def next_pass(self, traced: bool = False) -> list[Request]:
        return list(self.requests)


ENUM_N = 15
ENUM_TREES = 7741  # free trees on 15 vertices (OEIS A000055)


class Enumerate(Workload):
    """``enumerate --n 15`` with the JSON written to stdout."""

    name = "enumerate"

    def next_pass(self, traced: bool = False) -> list[Request]:
        return [Request(["enumerate", "--n", str(ENUM_N)], [], check_enumerate, "enumerate")]


def check_enumerate(stdout: bytes, files: list[bytes]) -> None:
    trees = json.loads(stdout)
    require(len(trees) == ENUM_TREES, f"{len(trees)} trees, expected {ENUM_TREES}")
    interned: dict = {}
    codes = set()
    for t in trees:
        edges = [tuple(e) for e in t["edges"]]
        require(t["n"] == ENUM_N and is_tree(ENUM_N, edges), f"not a {ENUM_N}-vertex tree: {t}")
        codes.add(tree_code(ENUM_N, edges, interned))
    require(len(codes) == ENUM_TREES, f"only {len(codes)} isomorphism classes")


WORKLOADS = {w.name: w for w in (Survey, Compare, Compute, Enumerate)}
