"""Brute-force oracles the real implementations are tested against.

Everything here is written for obviousness, not speed: exhaustive subset
scans, full assignment enumeration, textbook recursions. Keep it that way —
the tests lean on these being independent of the package internals."""

from __future__ import annotations

import collections
import heapq
import itertools
import math
import random
from functools import lru_cache

from csftrees import decomposition, symfunc, theorems
from csftrees._kernels import stable_type_counts
from csftrees.decomposition import LeafDecomposition, LeafLevel, alpha_mis
from csftrees.errors import GraphError
from csftrees.generators import (
    Gluing,
    StarConnectionSpec,
    enumerate_free_trees,
    gen_star_connection,
)
from csftrees.graphs import Graph, Tree, _centers, canonical_code, forest_walk, is_int
from csftrees.partitions import mult_factorial, partitions_desc
from csftrees.symfunc import BASIS_POWERSUM, SymmetricFunction


def relabel(g: Graph, perm) -> Graph:
    """Apply the vertex relabeling v -> perm[v]; a Tree stays a Tree."""
    perm = list(perm)
    if sorted(perm) != list(range(g.n)):
        raise GraphError("perm must be a permutation of 0..n-1")
    return type(g)(g.n, tuple((perm[u], perm[v]) for u, v in g.edges))


def _prufer_edges(seq) -> list[tuple[int, int]]:
    """Decode a Prüfer sequence over 0..n-1 (n = len(seq) + 2) into its
    tree's edges; the n^(n-2) sequences give every labeled tree once."""
    seq = tuple(seq)
    n = len(seq) + 2
    deg = [1] * n
    for x in seq:
        if not is_int(x) or not (0 <= x < n):
            raise GraphError(f"Prüfer entry {x!r} out of range for n={n}")
        deg[x] += 1
    heap = [v for v in range(n) if deg[v] == 1]
    heapq.heapify(heap)
    edges = []
    for x in seq:
        leaf = heapq.heappop(heap)
        edges.append((leaf, x))
        deg[x] -= 1
        if deg[x] == 1:
            heapq.heappush(heap, x)
    u = heapq.heappop(heap)
    v = heapq.heappop(heap)
    edges.append((u, v))
    return edges


def prufer_tree(seq) -> Tree:
    edges = _prufer_edges(seq)
    return Tree(len(edges) + 1, tuple(edges))


def prufer_adjacency(seq) -> list[list[int]]:
    """The adjacency lists of the tree a Prüfer sequence encodes, with no
    Tree built or validated."""
    edges = _prufer_edges(seq)
    adj: list[list[int]] = [[] for _ in range(len(edges) + 1)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def evaluate_ones(f: SymmetricFunction, r: int) -> int:
    """Value at x_1 = ... = x_r = 1, all other variables 0 (exact): r^len
    for p_lambda, and for m_lambda the distinct arrangements of lambda's
    parts in r slots, perm(r, len) / prod m_i(lambda)!."""
    if not is_int(r) or r < 0:
        raise GraphError(f"r must be a non-negative integer, got {r!r}")
    total = 0
    for parts, coeff in f.terms:
        length = len(parts)
        if f.basis == BASIS_POWERSUM:
            total += coeff * r**length
        else:
            ways, rem = divmod(math.perm(r, length), mult_factorial(parts))
            if rem:
                raise AssertionError(f"m{list(parts)} at 1^{r}: non-integral count")
            total += coeff * ways
    return total


def mis_bruteforce(g: Graph) -> int:
    """Independence number by scanning all 2^n vertex subsets."""
    masks = [0] * g.n
    for u, v in g.edges:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    best = 0
    for s in range(1 << g.n):
        ok = True
        t = s
        while t:
            v = (t & -t).bit_length() - 1
            if masks[v] & s:
                ok = False
                break
            t &= t - 1
        if ok:
            best = max(best, bin(s).count("1"))
    return best


def independent_set_counts_bruteforce(g: Graph) -> tuple[int, ...]:
    """(i_0, i_1, ..., i_alpha): independent k-sets counted over all 2^n
    vertex subsets."""
    counts = [0] * (g.n + 1)
    for s in range(1 << g.n):
        if not any(s >> u & 1 and s >> v & 1 for u, v in g.edges):
            counts[bin(s).count("1")] += 1
    while counts[-1] == 0:
        counts.pop()
    return tuple(counts)


def edge_splits_bruteforce(g: Graph) -> tuple[int, ...]:
    """min(s, n - s) for every edge, s the size of the component of its
    first endpoint once the edge is deleted (flood fill), ascending."""
    out = []
    for e in g.edges:
        adj = [set() for _ in range(g.n)]
        for u, v in g.edges:
            if (u, v) != e:
                adj[u].add(v)
                adj[v].add(u)
        seen = {e[0]}
        stack = [e[0]]
        while stack:
            for w in adj[stack.pop()] - seen:
                seen.add(w)
                stack.append(w)
        out.append(min(len(seen), g.n - len(seen)))
    return tuple(sorted(out))


def rho_path_bruteforce(g: Graph) -> tuple[tuple[int, ...], bool]:
    """V(rho) of a tree, i.e. the vertices that are neither a leaf nor next
    to a leaf, and whether the subgraph it induces is a path: at most one
    vertex, or connected (flood fill inside the set) with every inside
    degree at most 2."""
    adj = [set() for _ in range(g.n)]
    for u, v in g.edges:
        adj[u].add(v)
        adj[v].add(u)
    leaves = {v for v in range(g.n) if len(adj[v]) == 1}
    near = {w for v in leaves for w in adj[v]}
    rest = set(range(g.n)) - leaves - near
    if len(rest) <= 1:
        return tuple(sorted(rest)), True
    start = min(rest)
    seen = {start}
    stack = [start]
    while stack:
        for w in adj[stack.pop()] & rest:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    path = seen == rest and all(len(adj[v] & rest) <= 2 for v in rest)
    return tuple(sorted(rest)), path


def coloring_count(g: Graph, r: int) -> int:
    """Number of proper colorings with colors 1..r, by full enumeration."""
    total = 0
    for assign in itertools.product(range(r), repeat=g.n):
        if all(assign[u] != assign[v] for u, v in g.edges):
            total += 1
    return total


MOD_61 = (1 << 61) - 1


def seeded_point(k: int, seed: int) -> list[int]:
    """k seeded random residues mod 2^61 - 1, a point x_1..x_k."""
    rng = random.Random(seed)
    return [rng.randrange(MOD_61) for _ in range(k)]


def coloring_value(g: Graph, xs) -> int:
    """X_g at the point x_1..x_k = xs (every later variable 0), mod 2^61 - 1,
    by Stanley's definition: the sum over proper colorings c of the product
    of x_c(v). g must be a forest. Each component is rooted at its smallest
    vertex, and children fold into parents: f(v, c) = x_c times the product
    over children u of (S_u - f(u, c)), where S_u = sum over c of f(u, c)
    (u's subtree colored properly, u's color not c). The value is the
    product over roots of S_root. O(n k), so it checks every coefficient
    of X at once at any n."""
    adj: list[list[int]] = [[] for _ in range(g.n)]
    for u, v in g.edges:
        adj[u].append(v)
        adj[v].append(u)
    parent = [-1] * g.n
    seen = [False] * g.n
    order, roots = [], []
    for root in range(g.n):
        if seen[root]:
            continue
        seen[root] = True
        roots.append(root)
        stack = [root]
        while stack:
            v = stack.pop()
            order.append(v)
            for w in adj[v]:
                if not seen[w]:
                    seen[w] = True
                    parent[w] = v
                    stack.append(w)
    if len(order) - len(roots) != len(g.edges):
        raise GraphError("coloring_value needs a forest")
    f = [[x % MOD_61 for x in xs] for _ in range(g.n)]
    for v in reversed(order):  # children before parents
        p = parent[v]
        if p >= 0:
            total = sum(f[v]) % MOD_61
            f[p] = [a * (total - b) % MOD_61 for a, b in zip(f[p], f[v])]
    value = 1
    for root in roots:
        value = value * sum(f[root]) % MOD_61
    return value


def powersum_value(terms, xs) -> int:
    """Power-sum terms ((partition, coeff), ...) at the point xs, mod
    2^61 - 1, with p_j at xs the sum of x^j."""
    power: dict[int, int] = {}
    total = 0
    for parts, coeff in terms:
        term = coeff
        for j in parts:
            if j not in power:
                power[j] = sum(pow(x, j, MOD_61) for x in xs) % MOD_61
            term = term * power[j] % MOD_61
        total += term
    return total % MOD_61


def acyclic_orientations(g: Graph) -> int:
    """Number of acyclic orientations: each of the 2^|E| orientations is
    tested with Kahn's algorithm (acyclic iff every vertex gets removed)."""
    total = 0
    for flips in itertools.product((False, True), repeat=g.num_edges):
        succ = [[] for _ in range(g.n)]
        indeg = [0] * g.n
        for (u, v), flip in zip(g.edges, flips):
            if flip:
                u, v = v, u
            succ[u].append(v)
            indeg[v] += 1
        ready = [v for v in range(g.n) if not indeg[v]]
        removed = 0
        while ready:
            removed += 1
            for w in succ[ready.pop()]:
                indeg[w] -= 1
                if not indeg[w]:
                    ready.append(w)
        total += removed == g.n
    return total


def set_partitions(items):
    """All partitions of a list, as lists of blocks."""
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]
        yield [[first]] + part


def stable_partitions_bruteforce(g: Graph):
    """All independent partitions of V(g), by filtering every set partition."""
    adj = [set() for _ in range(g.n)]
    for u, v in g.edges:
        adj[u].add(v)
        adj[v].add(u)
    for part in set_partitions(range(g.n)):
        if all(not (adj[x] & set(block)) for block in part for x in block):
            yield [sorted(b) for b in part]


def stable_partitions_rgs(n: int, adjsets):
    """Yield every stable partition as a tuple of blocks (each an ascending
    tuple), blocks ordered by smallest member, as a restricted-growth
    stream: vertex v joins each earlier block it has no neighbor in, or opens
    a new one. adjsets: list of neighbor sets."""
    if n == 0:
        yield ()
        return
    blocks: list[list[int]] = []

    def rec(v: int):
        if v == n:
            yield tuple(tuple(b) for b in blocks)
            return
        av = adjsets[v]
        for b in blocks:
            if not any(u in av for u in b):
                b.append(v)
                yield from rec(v + 1)
                b.pop()
        blocks.append([v])
        yield from rec(v + 1)
        blocks.pop()

    yield from rec(0)


def stable_partitions(g: Graph):
    """All partitions of V(g) into independent blocks, each yielded once as a
    tuple of ascending blocks ordered by smallest member."""
    if g.n < 1:
        raise GraphError("stable_partitions needs n >= 1")
    adjsets: list[set[int]] = [set() for _ in range(g.n)]
    for u, v in g.edges:
        adjsets[u].add(v)
        adjsets[v].add(u)
    return stable_partitions_rgs(g.n, adjsets)


def monomial_by_stable_partitions(g: Graph) -> SymmetricFunction:
    """X_G in the m basis from the stable-partition counting DP, called
    directly whatever g is: [m_lambda] X_G = (stable partitions of type
    lambda) * prod m_i(lambda)!.  csf_monomial sends a forest to the DP, so
    this is the route the DP is checked against; the counting DP itself
    is checked against stable_partitions_rgs in test_kernels and
    test_symfunc, and that stream against stable_partitions_bruteforce."""
    terms = {}
    for parts, c in stable_type_counts(g.n, g.edges):
        mults = collections.Counter(parts).values()
        terms[parts] = c * math.prod(math.factorial(k) for k in mults)
    return SymmetricFunction(g.n, "m", terms)


def _rooted_level_sequences(n: int):
    """All canonical rooted level sequences on n vertices (root at level 0),
    in the Beyer-Hedetniemi successor order that starts at the path and ends
    at the star. Yields an internal buffer — consume, don't store."""
    s = list(range(n))
    while True:
        yield s
        p = -1
        for i in range(n - 1, -1, -1):
            if s[i] > 1:
                p = i
                break
        if p < 0:
            return
        q = p - 1
        while s[q] != s[p] - 1:
            q -= 1
        for i in range(p, n):
            s[i] = s[i - (p - q)]


def free_tree_codes_reference(n: int) -> list[str]:
    """Canonical codes of the free trees on n vertices, sorted: every rooted
    level sequence (about 3^n of them) is built and deduplicated by code."""
    codes = set()
    for s in _rooted_level_sequences(n):
        adj: list[list[int]] = [[] for _ in range(n)]
        last = [0] * n
        for i in range(1, n):
            par = last[s[i] - 1]
            adj[par].append(i)
            adj[i].append(par)
            last[s[i]] = i
        codes.add(ahu_code_reference(n, adj))
    return sorted(codes)


def ahu_code_reference(n: int, adj: list[list[int]]) -> str:
    """The AHU code of a tree from its adjacency lists, independent of the
    package's row fold: every subtree's code from one breadth-first walk
    from the first center; with a second center, the code rooted there too
    (its children under the first center, plus the first center with its
    other children), and the smaller of the two."""
    root, *other = _centers(n, adj)
    parent = [-1] * n
    parent[root] = root
    order = [root]
    for v in order:
        for w in adj[v]:
            if parent[w] == -1:
                parent[w] = v
                order.append(w)
    code = ["()"] * n
    for v in reversed(order):
        kids = sorted(code[w] for w in adj[v] if parent[w] == v)
        if kids:
            code[v] = "(" + "".join(kids) + ")"
    if not other:
        return code[root]
    (second,) = other
    side = "(" + "".join(sorted(code[w] for w in adj[root] if w != second)) + ")"
    kids = sorted([code[w] for w in adj[second] if w != root] + [side])
    return min(code[root], "(" + "".join(kids) + ")")


def tree_powersum_reference(g: Graph) -> tuple[tuple[tuple[int, ...], int], ...]:
    """The tree DP of symfunc._tree_powersum_terms with tuple keys: each
    table maps (open size, descending closed sizes) to a signed count. The
    terms come back descending, zeros dropped."""
    row = forest_walk(g)
    kids: list[list[int]] = [[] for _ in range(g.n)]
    for v in range(1, g.n):
        kids[row[v]].append(v)
    tables: list = [None] * g.n
    for v in reversed(range(g.n)):
        cur = {(1, ()): 1}
        for c in kids[v]:
            nxt: dict = {}
            for (a, closed), x in cur.items():
                for (b, sub), y in tables[c].items():
                    both = closed + sub
                    cut = (a, tuple(sorted(both + (b,), reverse=True)))
                    nxt[cut] = nxt.get(cut, 0) + x * y
                    kept = (a + b, tuple(sorted(both, reverse=True)))
                    nxt[kept] = nxt.get(kept, 0) - x * y
            cur = nxt
        tables[v] = cur
    out: dict = {}
    for (a, closed), x in tables[0].items():
        parts = tuple(sorted(closed + (a,), reverse=True))
        out[parts] = out.get(parts, 0) + x
    return tuple((parts, x) for parts, x in sorted(out.items(), reverse=True) if x)


def _sub_bags(runs: tuple[tuple[int, int], ...], target: int):
    """All ways to take a sub-multiset of `runs` ((value, multiplicity)
    pairs) summing to `target`: (remaining runs, number of ways) pairs, the
    ways being the product of binomial choices within each equal-value run."""
    if target == 0:
        return [(runs, 1)]
    if not runs:
        return []
    (val, mult), rest = runs[0], runs[1:]
    out = []
    for take in range(mult + 1):
        if val * take > target:
            break
        for rem_rest, ways in _sub_bags(rest, target - val * take):
            kept = ((val, mult - take),) if take < mult else ()
            out.append((kept + rem_rest, math.comb(mult, take) * ways))
    return out


@lru_cache(maxsize=None)
def _slot_assignments(runs: tuple[tuple[int, int], ...], mu: tuple[int, ...]) -> int:
    if not mu:
        return 1 if not runs else 0
    return sum(ways * _slot_assignments(rem, mu[1:]) for rem, ways in _sub_bags(runs, mu[0]))


def p_to_m_reference(lam: tuple[int, ...], mu: tuple[int, ...]) -> int:
    """[m_mu] p_lambda as the number of maps from the parts of lambda onto
    the ordered slots of mu with slot i summing to mu_i: fill slot 1 with
    a sub-multiset of the parts, then the rest of the slots recursively."""
    runs = tuple((val, len(list(grp))) for val, grp in itertools.groupby(lam))
    return _slot_assignments(runs, tuple(mu))


def leaf_decomposition_reference(t: Tree) -> LeafDecomposition:
    """The leaf decomposition by the rule as stated: every level scans all
    alive vertices, first to see whether none has degree 2 or more (the
    last level), then for the degree-1 vertices and their neighbors."""
    adjsets: list[set[int]] = [set() for _ in range(t.n)]
    for u, v in t.edges:
        adjsets[u].add(v)
        adjsets[v].add(u)
    alive = set(range(t.n))
    levels: list[LeafLevel] = []
    while alive:
        last = all(len(adjsets[v]) <= 1 for v in alive)
        b_set, eta_set = set(), set()
        for v in alive:
            if len(adjsets[v]) == 1:
                (u,) = adjsets[v]
                if v < u or len(adjsets[u]) > 1:  # a two-vertex component: smaller id to b
                    b_set.add(v)
                    eta_set.add(u)
            elif last:  # isolated
                b_set.add(v)
        levels.append(
            LeafLevel(len(b_set), len(eta_set), tuple(sorted(b_set)), tuple(sorted(eta_set)))
        )
        removed = b_set | eta_set
        for v in removed:
            for w in adjsets[v]:
                adjsets[w].discard(v)
        alive -= removed
    return LeafDecomposition(tuple(levels), 2 * levels[-1].eta if last else 0)


def alpha_from_decomposition(d: LeafDecomposition) -> int:
    """The independence number as the sum of the decomposition's b-levels."""
    return sum(lvl.b for lvl in d.levels)


def star_connection_M(spec: StarConnectionSpec) -> int:
    """The paper's block maximum of a star connection, sum(n_k - 1) - (r - 1),
    from the spec alone."""
    return sum(k - 1 for k in spec.star_sizes) - (spec.num_stars - 1)


def star_audit_rows_reference(n: int) -> list[dict]:
    """theorems._star_audit_rows(n) by building every candidate: each chain
    composition and each bouquet partition into star sizes >= 3 is built,
    and a tree whose canonical code was met before is dropped.  M is the
    closed form sum(n_k - 1) - (r - 1), alpha the forest DP's."""
    rows = []
    seen = set()
    for r in range(2, n):
        total = n + r - 1
        if 3 * r > total:
            break
        specs = [
            StarConnectionSpec(comp, tuple(Gluing((i, i + 1)) for i in range(r - 1)))
            for comp in theorems._compositions(total, r, 3)
        ]
        if r >= 3:
            specs.extend(
                StarConnectionSpec(parts, (Gluing(tuple(range(r))),))
                for parts in partitions_desc(total)
                if len(parts) == r and parts[-1] >= 3
            )
        for spec in specs:
            t = gen_star_connection(spec)
            code = canonical_code(t)
            if code in seen:
                continue
            seen.add(code)
            m = sum(k - 1 for k in spec.star_sizes) - (r - 1)
            a = alpha_mis(t)
            rows.append({"stars": list(spec.star_sizes), "formula": m, "alpha": a, "agrees": m == a})
    return rows


def random_star_spec(rng: random.Random, max_vertices: int = 20) -> StarConnectionSpec:
    """A valid random StarConnectionSpec whose tree has <= max_vertices
    vertices. The gluing structure is a random tree over the stars (parents
    drawn only from stars with a free leaf slot), with some edges at a common
    parent folded into one multi-star gluing so shared vertices of degree > 2
    also occur."""
    while True:
        r = rng.randint(2, 5)
        sizes = tuple(rng.randint(3, 6) for _ in range(r))
        if sum(sizes) - (r - 1) <= max_vertices:
            break
    used = [0] * r
    edges = []
    for i in range(1, r):
        a = rng.choice([j for j in range(i) if used[j] < sizes[j] - 1])
        edges.append((a, i))
        used[a] += 1
        used[i] += 1
    gluings: list[Gluing] = []
    i = 0
    while i < len(edges):
        a, b = edges[i]
        group = [a, b]
        # folding edges that hang off the same star only ever frees slots
        while i + 1 < len(edges) and edges[i + 1][0] == a and rng.random() < 0.4:
            i += 1
            group.append(edges[i][1])
        gluings.append(Gluing(tuple(group)))
        i += 1
    return StarConnectionSpec(sizes, tuple(gluings))


def _csv_cell(x) -> str:
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    return str(x)


def reference_payload(t: Graph):
    """The survey's per-tree unit without the invariant prefilter: facts,
    chain data, the full p-terms of the tree DP and the max block read from
    their hook coefficients, all looked up at call time: the tree DP and
    the hooks on the symfunc module, where survey finds them too, the rest
    on the theorems module."""
    d = decomposition.leaf_decomposition(t)
    terms = symfunc._tree_powersum_terms(forest_walk(t))
    return (
        theorems.tree_facts(t),
        theorems.chain_sequence(d.level_counts()),
        theorems.chain_holds(d.level_counts()),
        terms,
        symfunc._hook_max_block(t.n, terms),
    )


def survey_pairwise_reference(n: int) -> theorems.SurveyReport:
    """theorems.survey(n) computed pair by pair, rows (each ending in a line
    break) stored as they come: all three checkers run on every tree pair,
    X-equality compares the two trees' full p-terms directly and every
    Applicable claim is checked against both trees' max blocks read from
    those terms. The payloads come from reference_payload; the checkers and
    audits are looked up on the theorems module at call time, and each
    checker looks up the rule that the survey calls there too, so a test
    that patches a rule patches both routes."""
    trees = enumerate_free_trees(n)
    payloads = [reference_payload(t) for t in trees]
    facts = [p[0] for p in payloads]
    terms = [p[3] for p in payloads]
    mb = [p[4] for p in payloads]
    counts = {
        "LEAVES_RHO": {"case1": 0, "case2": 0, "case3": 0, "case4": 0, "not_applicable": 0},
        "COMPONENTWISE": {"applicable": 0, "not_applicable": 0},
        "SUMMED": {"applicable": 0, "not_applicable": 0},
    }
    x_equal = 0
    violations = []
    rows = []
    for i in range(len(trees)):
        for j in range(i + 1, len(trees)):
            x_eq = terms[i] == terms[j]
            if x_eq:
                x_equal += 1
            lv = theorems._leaves_verdict(facts[i], facts[j])
            cw = theorems._componentwise_verdict(facts[i], facts[j])
            sm = theorems._sum_verdict(facts[i], facts[j])
            if lv.status == "Applicable":
                counts["LEAVES_RHO"][f"case{lv.case_id}"] += 1
            else:
                counts["LEAVES_RHO"]["not_applicable"] += 1
            for key, v in (("COMPONENTWISE", cw), ("SUMMED", sm)):
                counts[key]["applicable" if v.status == "Applicable" else "not_applicable"] += 1
            for v in (lv, cw, sm):
                if v.status != "Applicable":
                    continue
                hi, lo = (j, i) if v.swapped else (i, j)
                problems = []
                if x_eq:
                    problems.append("csf_equal is true")
                if v.m1 != mb[hi] or v.m2 != mb[lo]:
                    problems.append(
                        f"claimed m = ({v.m1}, {v.m2}) but max blocks are ({mb[hi]}, {mb[lo]})"
                    )
                if not (v.m1 is not None and v.m2 is not None and v.m1 > v.m2):
                    problems.append(f"m1 = {v.m1} is not strictly greater than m2 = {v.m2}")
                if problems:
                    violations.append(
                        {"a": i, "b": j, "theorem": v.theorem_id, "reason": "; ".join(problems)}
                    )
            cells = [i, j, x_eq]
            cells += [lv.status, lv.case_id, lv.m1, lv.m2, lv.swapped]
            for v in (cw, sm):
                cells += [v.status, v.m1, v.m2, v.swapped]
            rows.append(",".join(_csv_cell(c) for c in cells) + "\n")
    return theorems.SurveyReport(
        n=n,
        num_trees=len(trees),
        pairs=len(rows),
        x_equal_pairs=x_equal,
        soundness_violations=tuple(violations),
        verdict_counts=counts,
        chain_audit_violations=tuple(
            {"tree": i, "sequence": list(p[1])} for i, p in enumerate(payloads) if not p[2]
        ),
        spider_audit=tuple(theorems._spider_audit_rows(n)),
        star_audit=tuple(theorems._star_audit_rows(n)),
        pair_rows=lambda: iter(rows),
    )


def _class_pair_verdicts(fa, fb, ma: int, mb: int):
    """The three verdicts on an ordered pair with facts (fa, fb) and max
    blocks (ma, mb), their CSV cells, and the soundness violations of the
    pair as (theorem id, reason) tuples: first if the pair is X-equal, then
    if it is not."""
    verdicts = (
        theorems._leaves_verdict(fa, fb),
        theorems._componentwise_verdict(fa, fb),
        theorems._sum_verdict(fa, fb),
    )
    if_equal, if_distinct = [], []
    for v in verdicts:
        if v.status != "Applicable":
            continue
        hi, lo = (mb, ma) if v.swapped else (ma, mb)
        problems = []
        if v.m1 != hi or v.m2 != lo:
            problems.append(f"claimed m = ({v.m1}, {v.m2}) but max blocks are ({hi}, {lo})")
        if not (v.m1 is not None and v.m2 is not None and v.m1 > v.m2):
            problems.append(f"m1 = {v.m1} is not strictly greater than m2 = {v.m2}")
        if_equal.append((v.theorem_id, "; ".join(["csf_equal is true", *problems])))
        if problems:
            if_distinct.append((v.theorem_id, "; ".join(problems)))
    lv, cw, sm = verdicts
    cells = [lv.status, lv.case_id, lv.m1, lv.m2, lv.swapped]
    for v in (cw, sm):
        cells += [v.status, v.m1, v.m2, v.swapped]
    return verdicts, tuple(_csv_cell(c) for c in cells), tuple(if_equal), tuple(if_distinct)


def survey_class_loop_reference(n: int) -> theorems.SurveyReport:
    """theorems.survey(n) as a loop over every tree pair that runs the
    checkers once per ordered pair of (facts, max block) classes: the full
    p-terms and their max block on every tree (reference_payload), trees
    bucketed on their exact p-terms, and per pair a memo lookup, a weight
    and the pair's violations. Fast enough for n <= 13."""
    trees = enumerate_free_trees(n)
    payloads = [reference_payload(t) for t in trees]

    chain_viol = [
        {"tree": i, "sequence": list(p[1])} for i, p in enumerate(payloads) if not p[2]
    ]
    buckets: dict[tuple, int] = {}
    bucket = [buckets.setdefault(p[3], len(buckets)) for p in payloads]
    classes: dict[tuple, int] = {}
    cls = [classes.setdefault((p[0], p[4]), len(classes)) for p in payloads]
    class_of = list(classes)
    k = len(class_of)
    memo: list = [None] * (k * k)
    weight = [0] * (k * k)

    num = len(trees)
    x_equal = 0
    violations: list[dict] = []
    for i in range(num):
        bi, base = bucket[i], cls[i] * k
        for j in range(i + 1, num):
            key = base + cls[j]
            weight[key] += 1
            entry = memo[key]
            if entry is None:
                (fa, ma), (fb, mb) = class_of[cls[i]], class_of[cls[j]]
                entry = memo[key] = _class_pair_verdicts(fa, fb, ma, mb)
            x_eq = bi == bucket[j]
            x_equal += x_eq
            for theorem, reason in entry[2] if x_eq else entry[3]:
                violations.append({"a": i, "b": j, "theorem": theorem, "reason": reason})

    def pair_rows():
        for i in range(num):
            si, bi, base = str(i), bucket[i], cls[i] * k
            for j in range(i + 1, num):
                x_eq = "true" if bi == bucket[j] else "false"
                yield ",".join((si, str(j), x_eq) + memo[base + cls[j]][1]) + "\n"

    counts = {
        "LEAVES_RHO": {"case1": 0, "case2": 0, "case3": 0, "case4": 0, "not_applicable": 0},
        "COMPONENTWISE": {"applicable": 0, "not_applicable": 0},
        "SUMMED": {"applicable": 0, "not_applicable": 0},
    }
    for entry, w in zip(memo, weight):
        if entry is None:
            continue
        lv, cw, sm = entry[0]
        if lv.status == "Applicable":
            counts["LEAVES_RHO"][f"case{lv.case_id}"] += w
        else:
            counts["LEAVES_RHO"]["not_applicable"] += w
        for theorem, v in (("COMPONENTWISE", cw), ("SUMMED", sm)):
            counts[theorem]["applicable" if v.status == "Applicable" else "not_applicable"] += w
    return theorems.SurveyReport(
        n=n,
        num_trees=num,
        pairs=num * (num - 1) // 2,
        x_equal_pairs=x_equal,
        soundness_violations=tuple(violations),
        verdict_counts=counts,
        chain_audit_violations=tuple(chain_viol),
        spider_audit=tuple(theorems._spider_audit_rows(n)),
        star_audit=tuple(theorems._star_audit_rows(n)),
        pair_rows=pair_rows,
    )
