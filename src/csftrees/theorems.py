"""Checkers for the tree-distinguishing criteria, plus the bulk survey.

Four checkers, identified by theorem id:

  LEAVES_RHO      leaf counts b and path remainders rho (four cases)
  COMPONENTWISE   levelwise dominance of the padded leaf decompositions
  SUMMED          aggregate dominance with a bounded reversed-index set
  STAR_COUNT      star connections on the same vertex set with r < s stars,
                  whose block maxima are M = N - r on N vertices

The checkers read only TreeFacts, which _facts folds from an edge list
for tree_facts and the survey's rows alike.  The closed-form spider block
maximum (spider_M_formula) is audited, not used as a checker; see below.

Applicable verdicts claim the maximal independent blocks satisfy m1 > m2,
with the pair oriented internally (``swapped`` records an exchange of the
inputs, and the detail string repeats it).  ``survey`` settles the first
three checkers on every pair of non-isomorphic trees on n vertices and
cross-checks each claim against coefficients of the chromatic symmetric
function itself, so an unsound verdict cannot pass silently: the largest
block is deg i(T; x), the largest k with [m_(k,1^(n-k))] X nonzero, and
X-equality is decided on exact coefficients of X (the invariant key of
_independence_and_splits, whose digests differ only if the keys do, and
the full p-terms of the tree DP where digests tie).  Each checker is a
rule, returning a plain tuple with the detail as a callable, and a
wrapper that formats the TheoremVerdict; the survey calls the rules once
per ordered pair of fact classes and weighs the counts by class sizes.

The rules only make the claim m1 > m2 and do not check it, since it
holds by arithmetic: on any facts for LEAVES_RHO (cases 1-3 by their
bounds, case 4 by its guard) and SUMMED (deficit < surplus), on any star
counts for STAR_COUNT (N - r > N - s), and on real trees of one n for
COMPONENTWISE, whose levels partition V (hand-made facts can tie there).
It is checked once per route: _verdict, through which every
TheoremVerdict passes, raises InternalError on an Applicable tuple with
m1 <= m2, and the survey, which builds no verdicts, reports such a claim
from _class_pair as a soundness violation.

Two known weaknesses are handled explicitly rather than papered over:

* LEAVES_RHO case 4 is read as b1-b2 > ceil((rho2-rho1)/k) for every
  admissible k >= 3 (the sign-flipped reading accepts every k), and that
  bound does not order the block maxima: it passes tied pairs from n = 8
  and reversed ones from n = 14 (b = 7, rho = 0 against the spider
  (11, 1, 1), b = 3, rho = 9: m = (7, 8)).  The checker also requires
  m1 > m2, and its NotApplicable detail names the tie or the reversal.
* spider_M_formula reproduces its closed form verbatim even though it
  disagrees with the exact independence number already on legs (1,1,1);
  spider_audit pairs it with the alpha_mis oracle instead of correcting it.
"""

from __future__ import annotations

from .decomposition import (
    _independence_and_splits,
    _peel,
    alpha_mis,
    chain_holds,
    chain_sequence,
    padded_levels,
)
from .errors import CapExceededError, GraphError, InternalError
from .generators import (
    ENUM_MAX_N,
    Gluing,
    SpiderSpec,
    StarConnectionSpec,
    _free_tree_edge_sets,
    gen_spider,
    gen_star_connection,
)
from .graphs import Record, Tree, degrees, is_int, trees_isomorphic
from .partitions import partitions_desc

LEAVES_RHO = "LEAVES_RHO"
COMPONENTWISE = "COMPONENTWISE"
SUMMED = "SUMMED"
STAR_COUNT = "STAR_COUNT"

APPLICABLE = "Applicable"
NOT_APPLICABLE = "NotApplicable"


class TheoremVerdict(Record):
    __slots__ = ("theorem_id", "status", "case_id", "m1", "m2", "swapped", "detail")
    _defaults = (None, None, None, False, "")


def verdict_to_json_dict(v: TheoremVerdict) -> dict:
    return {
        "theorem": v.theorem_id,
        "status": v.status,
        "case": v.case_id,
        "m1": v.m1,
        "m2": v.m2,
        "swapped": v.swapped,
        "detail": v.detail,
    }


class TreeFacts(Record):
    """Everything the pairwise checkers need to know about one tree."""

    __slots__ = ("levels", "rho", "is_path")


def _facts(n: int, edges) -> TreeFacts:
    """The facts of the tree on 0..n-1 with these edges (any iterable, read
    once), from one peel: the (b, eta) counts of its levels, rho from the
    first, and whether V(rho) induces a path, which the peel reads off its
    neighbor sets once the first level is gone."""
    levels, _, is_path = _peel(n, edges)
    b1, eta1 = levels[0]
    counts = tuple((len(b), len(eta)) for b, eta in levels)
    return TreeFacts(counts, n - len(b1) - len(eta1), is_path)


def tree_facts(t: Tree) -> TreeFacts:
    return _facts(t.n, t.edges)


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def _pair_facts(t1: Tree, t2: Tree) -> tuple[TreeFacts, TreeFacts]:
    """Both trees' facts, once the pair is one that the checkers accept:
    equal vertex counts, then non-isomorphic.  Such trees have n >= 4, as
    LEAVES_RHO needs."""
    if t1.n != t2.n:
        raise GraphError(f"the checkers need equal vertex counts, got {t1.n} and {t2.n}")
    if trees_isomorphic(t1, t2):
        raise GraphError("the checkers need non-isomorphic trees")
    return tree_facts(t1), tree_facts(t2)


def _leaves_rule(f1: TreeFacts, f2: TreeFacts) -> tuple:
    """LEAVES_RHO on two trees' facts as (status, case, m1, m2, swapped,
    why): why() is the detail, which _verdict prefixes with the swap note."""
    b1, b2 = f1.levels[0][0], f2.levels[0][0]
    if b1 == b2:
        return NOT_APPLICABLE, None, None, None, False, lambda: f"equal leaf counts b = {b1}"
    swapped = b1 < b2
    if swapped:
        f1, f2, b1, b2 = f2, f1, b2, b1
    r1, r2 = f1.rho, f2.rho
    m1, m2 = b1 + _ceil_div(r1, 2), b2 + _ceil_div(r2, 2)
    diff, delta = b1 - b2, r2 - r1
    half = _ceil_div(delta, 2)
    # Each branch sets (case, why); case None refuses, with why() as the reason.
    if not (f1.is_path and f2.is_path):
        case, why = None, lambda: "rho-induced subgraph is not a path for " + ", ".join(
            name for name, f in (("t1", f1), ("t2", f2)) if not f.is_path
        )
    elif r1 == r2:
        case, why = 1, lambda: f"rho1 = rho2 = {r1}"
    elif r1 > r2:
        case, why = 2, lambda: f"rho1 = {r1} > rho2 = {r2}"
    elif diff > half:
        case, why = 3, lambda: f"b1-b2 = {diff} > ceil((rho2-rho1)/2) = {half}"
    elif delta < 2:
        case, why = None, lambda: f"no case applies (rho2-rho1 = {delta} admits no k >= 3)"
    else:
        # Case 4: the admissible k (k >= 3, k/(k-2) <= delta < k*(b1-b2)) form
        # the integer ray [k0, oo) once delta >= 2, and ceil(delta/k) is
        # nonincreasing in k, so the whole family passes iff its smallest
        # member does.  Passing does not order the block maxima by itself.
        k0 = max(4 if delta == 2 else 3, delta // diff + 1)
        bound = _ceil_div(delta, k0)
        if diff <= bound:
            case, why = None, lambda: (
                f"case-4 bound fails at k = {k0}: {diff} <= ceil({delta}/{k0}) = {bound}; "
                "the sign-flipped reading ceil((rho1-rho2)/k) <= 0 would accept every k — "
                "readings diverge" + ("" if m1 > m2 else ", and " + _unordered(m1, m2))
            )
        elif m1 <= m2:
            case, why = None, lambda: (
                f"case-4 bound holds for all k >= {k0}, but {_unordered(m1, m2)}"
                "; the bound does not force a strict conclusion"
            )
        else:
            case, why = 4, lambda: (
                f"b1-b2 = {diff} > ceil((rho2-rho1)/k) for all k >= {k0} "
                f"(hardest: ceil({delta}/{k0}) = {bound})"
            )
    if case is None:
        return NOT_APPLICABLE, None, None, None, swapped, why
    return APPLICABLE, case, m1, m2, swapped, why


def _unordered(m1: int, m2: int) -> str:
    """How block maxima m1 <= m2 fail to order: a tie or a reversal."""
    how = f"tie (m1 = m2 = {m1})" if m1 == m2 else f"are reversed (m1 = {m1} < m2 = {m2})"
    return "the block maxima " + how


def _componentwise_rule(f1: TreeFacts, f2: TreeFacts) -> tuple:
    """COMPONENTWISE as (status, case, m1, m2, swapped, why); see _leaves_rule."""
    s1, s2 = padded_levels(f1.levels, f2.levels)
    if s1 == s2:
        return NOT_APPLICABLE, None, None, None, False, lambda: "identical level sequences"
    for a, b, swapped in ((s1, s2, False), (s2, s1, True)):
        for (ba, ea), (bb, eb) in zip(a, b):
            if ba < bb or ea > eb:
                break
        else:
            m1 = sum([x for x, _ in a])
            m2 = sum([x for x, _ in b])
            return APPLICABLE, None, m1, m2, swapped, lambda: (
                f"levelwise b >= and eta <= holds: {a} dominates {b}"
            )
    return NOT_APPLICABLE, None, None, None, False, lambda: (
        f"no levelwise dominance in either orientation: {s1} vs {s2}"
    )


def _sum_rule(f1: TreeFacts, f2: TreeFacts) -> tuple:
    """SUMMED as (status, case, m1, m2, swapped, why); see _leaves_rule."""
    s1, s2 = padded_levels(f1.levels, f2.levels)
    r = len(s1)
    b1 = [x for x, _ in s1]
    b2 = [x for x, _ in s2]
    if b1 == b2:
        return NOT_APPLICABLE, None, None, None, False, lambda: f"identical b sequences {b1}"
    reasons = []  # (orientation, template, value, value), formatted only by why()
    for a, b, swapped in ((b1, b2, False), (b2, b1, True)):
        tag = "swapped" if swapped else "as given"
        rev = [i for i in range(r) if a[i] <= b[i]]
        if not 1 <= len(rev) <= r - 1:
            reasons.append((tag, "|reversed set| = {} outside 1..{}", len(rev), r - 1))
            continue
        back = sum([b[i] - a[i] for i in rev])
        fwd = sum(a) - sum(b) + back  # the other levels' a - b
        if back < fwd:
            return APPLICABLE, None, sum(a), sum(b), swapped, lambda: (
                f"reversed levels {rev}: deficit {back} < surplus {fwd} (b: {a} vs {b})"
            )
        reasons.append((tag, "deficit {} >= surplus {}", back, fwd))
    return NOT_APPLICABLE, None, None, None, False, lambda: "; ".join(
        f"{tag}: {text.format(x, y)}" for tag, text, x, y in reasons
    )


def _verdict(theorem: str, swap_note: str, rule: tuple) -> TheoremVerdict:
    """The TheoremVerdict of a rule's tuple; an exchange of the inputs
    prefixes the detail with swap_note.  Every verdict that a checker
    returns is made here, so this is the one place its Applicable claim
    m1 > m2 is checked; the rules give it by arithmetic (module docstring)
    and so check nothing themselves, and an Applicable tuple with
    m1 <= m2 is a bug in a rule."""
    status, case, m1, m2, swapped, why = rule
    if status == APPLICABLE and not m1 > m2:
        raise InternalError(f"{theorem}: Applicable verdict with m1 = {m1} <= m2 = {m2}")
    detail = (swap_note if swapped else "") + why()
    return TheoremVerdict(theorem, status, case, m1, m2, swapped, detail)


def _leaves_verdict(f1: TreeFacts, f2: TreeFacts) -> TheoremVerdict:
    return _verdict(LEAVES_RHO, "inputs swapped so that b1 > b2; ", _leaves_rule(f1, f2))


def _componentwise_verdict(f1: TreeFacts, f2: TreeFacts) -> TheoremVerdict:
    return _verdict(COMPONENTWISE, "inputs swapped; ", _componentwise_rule(f1, f2))


def _sum_verdict(f1: TreeFacts, f2: TreeFacts) -> TheoremVerdict:
    return _verdict(SUMMED, "inputs swapped; ", _sum_rule(f1, f2))


def _pair_verdicts(f1: TreeFacts, f2: TreeFacts) -> tuple[TheoremVerdict, ...]:
    """The three pairwise verdicts; each checker is looked up by name at call
    time, so a wrapper set on this module's attribute sees every call."""
    return _leaves_verdict(f1, f2), _componentwise_verdict(f1, f2), _sum_verdict(f1, f2)


def thm_leaves_check(t1: Tree, t2: Tree) -> TheoremVerdict:
    return _leaves_verdict(*_pair_facts(t1, t2))


def thm_componentwise_check(t1: Tree, t2: Tree) -> TheoremVerdict:
    return _componentwise_verdict(*_pair_facts(t1, t2))


def thm_sum_check(t1: Tree, t2: Tree) -> TheoremVerdict:
    return _sum_verdict(*_pair_facts(t1, t2))


def _verified_counts(spec: StarConnectionSpec, t: Tree) -> tuple[int, int]:
    """(vertex count N, degree excess of the gluing vertices), the closed
    forms spec.num_vertices and r-1 verified on t = gen_star_connection(spec).
    The block maximum sum(n_k - 1) - (r - 1) is then N - r."""
    r = spec.num_stars
    nverts, excess = spec.num_vertices, r - 1
    deg = degrees(t)
    built = sum(deg[r + i] - 1 for i in range(len(spec.gluings)))
    if t.n != nverts or built != excess:
        raise InternalError(
            f"star connection built with {t.n} vertices and excess {built}, "
            f"closed forms give {nverts} and {excess}"
        )
    return nverts, excess


def star_connection_counts(spec: StarConnectionSpec) -> tuple[int, int]:
    return _verified_counts(spec, gen_star_connection(spec))


def star_connection_audit(spec: StarConnectionSpec) -> tuple[int, int, int, int]:
    """(vertex count N, degree excess, M = N - r, alpha_mis), all from one
    built tree."""
    t = gen_star_connection(spec)
    nverts, excess = _verified_counts(spec, t)
    return nverts, excess, nverts - spec.num_stars, alpha_mis(t)


def star_connection_distinct(a: StarConnectionSpec, b: StarConnectionSpec) -> TheoremVerdict:
    va, vb = star_connection_counts(a)[0], star_connection_counts(b)[0]
    if va != vb:
        raise GraphError(f"vertex counts differ: {va} != {vb}")
    r, s = a.num_stars, b.num_stars
    if r == s:
        rule = NOT_APPLICABLE, None, None, None, False, lambda: f"equal star counts r = s = {r}"
    else:
        lo, hi = sorted((r, s))
        m1, m2 = va - lo, va - hi
        rule = APPLICABLE, None, m1, m2, r > s, lambda: f"{lo} < {hi} stars on {va} vertices"
    return _verdict(STAR_COUNT, "inputs swapped; ", rule)


def spider_M_formula(spec: SpiderSpec) -> int:
    """The closed form by leg parity, reproduced verbatim: all even ->
    sum(L/2); all odd -> sum((L-1)/2) + 1; mixed -> evens and odds summed
    without the +1.  No claim of agreement with alpha_mis is made here."""
    if not isinstance(spec, SpiderSpec):
        spec = SpiderSpec(tuple(spec))
    evens = [L for L in spec.legs if L % 2 == 0]
    odds = [L for L in spec.legs if L % 2 == 1]
    if not odds:
        return sum(L // 2 for L in evens)
    if not evens:
        return sum((L - 1) // 2 for L in odds) + 1
    return sum(L // 2 for L in evens) + sum((L - 1) // 2 for L in odds)


def spider_audit(spec: SpiderSpec) -> tuple[int, int, bool]:
    """(spider_M_formula, alpha_mis, whether they agree) for every spider
    that gen_spider builds, i.e. up to BUILD_MAX_VERTICES vertices; past
    that, gen_spider's CapExceededError."""
    formula = spider_M_formula(spec)
    oracle = alpha_mis(gen_spider(spec))
    return formula, oracle, formula == oracle


class SurveyReport(Record):
    """What survey(n) found.  pair_rows() yields the CSV text after the
    header (SURVEY_CSV_HEADER columns) as one block per first tree a: the
    rows of the pairs (a, b), b > a, ascending, each ending in a line
    break, so "".join(pair_rows()) is the whole body.  Each block is built
    only when read; pair_rows is left out of equality and repr."""

    __slots__ = (
        "n",
        "num_trees",
        "pairs",
        "x_equal_pairs",
        "soundness_violations",
        "verdict_counts",
        "chain_audit_violations",
        "spider_audit",
        "star_audit",
        "pair_rows",
    )
    _hidden = ("pair_rows",)


def survey_report_to_json_dict(rep: SurveyReport) -> dict:
    """The report's shown fields in declaration order, each tuple as a list."""
    values = (getattr(rep, f) for f in rep._shown)
    return {f: list(v) if isinstance(v, tuple) else v for f, v in zip(rep._shown, values)}


# The CSV holds one row of about 80 bytes per tree pair: 403 MB at n = 14,
# and about 2.4 GB at n = 15.
SURVEY_CSV_MAX_N = 14

SURVEY_CSV_HEADER = (
    "a",
    "b",
    "x_equal",
    "leaves_status",
    "leaves_case",
    "leaves_m1",
    "leaves_m2",
    "leaves_swapped",
    "componentwise_status",
    "componentwise_m1",
    "componentwise_m2",
    "componentwise_swapped",
    "summed_status",
    "summed_m1",
    "summed_m2",
    "summed_swapped",
)


def _cell(x) -> str:
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    return str(x)


def _survey_payload(row: bytes):
    """Per-tree work unit on a row (generators._free_tree_edge_sets): the
    tree's facts and its exact X-invariant key (i(T; x), edge splits),
    both folded over the parent list."""
    n = len(row)
    return _facts(n, zip(row[1:], range(1, n))), _independence_and_splits(row)


def _spider_audit_rows(n: int) -> list[dict]:
    rows = []
    for parts in partitions_desc(n - 1):
        if len(parts) < 3:
            continue
        formula, oracle, agrees = spider_audit(SpiderSpec(parts))
        rows.append({"legs": list(parts), "formula": formula, "oracle": oracle, "agrees": agrees})
    return rows


def _compositions(total: int, r: int, minpart: int):
    if r == 1:
        if total >= minpart:
            yield (total,)
        return
    for first in range(minpart, total - minpart * (r - 1) + 1):
        for rest in _compositions(total - first, r - 1, minpart):
            yield (first,) + rest


def _star_audit_rows(n: int) -> list[dict]:
    """Formula-vs-oracle rows for the star connections on n vertices that the
    survey samples, one per isomorphism class: the chains (stars glued in a
    row), each the caterpillar on its centers and gluing vertices, so only
    its reversal gives the same tree and the smaller sizes of the two are
    kept; and the bouquets (every star glued at one shared vertex, never a
    caterpillar), one per partition."""
    rows = []
    for r in range(2, n):
        total = n + r - 1  # sum of star sizes; each of r-1 merges saves a vertex
        if 3 * r > total:
            break
        specs = [
            StarConnectionSpec(comp, tuple(Gluing((i, i + 1)) for i in range(r - 1)))
            for comp in _compositions(total, r, 3)
            if comp <= comp[::-1]
        ]
        if r >= 3:
            specs.extend(
                StarConnectionSpec(parts, (Gluing(tuple(range(r))),))
                for parts in partitions_desc(total)
                if len(parts) == r and parts[-1] >= 3
            )
        for spec in specs:
            _, _, m, a = star_connection_audit(spec)
            rows.append({"stars": list(spec.star_sizes), "formula": m, "alpha": a, "agrees": m == a})
    return rows


def _class_pair(fa: TreeFacts, ma: int, fb: TreeFacts, mb: int):
    """The three rules on an ordered class pair with facts (fa, fb) and max
    blocks (ma, mb), as (outcome, cells, checks): each verdict's status and
    case; the 13 cells of the pair's CSV rows after a, b and x_equal, one
    string with each cell after a comma (no cell holds a comma, a quote or
    a line break, so none is quoted); and, for each Applicable verdict, its
    theorem and the problems of its claim (the survey's one check of
    m1 > m2, since the survey makes no TheoremVerdict)."""
    lv, cw, sm = _leaves_rule(fa, fb), _componentwise_rule(fa, fb), _sum_rule(fa, fb)
    checks = []
    for theorem, (status, _, m1, m2, swapped, _) in (
        (LEAVES_RHO, lv), (COMPONENTWISE, cw), (SUMMED, sm)
    ):
        if status != APPLICABLE:
            continue
        hi, lo = (mb, ma) if swapped else (ma, mb)
        problems = []
        if m1 != hi or m2 != lo:
            problems.append(f"claimed m = ({m1}, {m2}) but max blocks are ({hi}, {lo})")
        if not m1 > m2:
            problems.append(f"m1 = {m1} is not strictly greater than m2 = {m2}")
        checks.append((theorem, problems))
    cells = (
        f",{lv[0]},{_cell(lv[1])},{_cell(lv[2])},{_cell(lv[3])},{_cell(lv[4])}"
        f",{cw[0]},{_cell(cw[2])},{_cell(cw[3])},{_cell(cw[4])}"
        f",{sm[0]},{_cell(sm[2])},{_cell(sm[3])},{_cell(sm[4])}"
    )
    return (lv[:2], cw[:2], sm[:2]), cells, checks


def _survey_trees(rows):
    """The survey's per-tree stage: _survey_payload on each row of rows (any
    iterable, read once).  Returns two columns, the class id of each tree
    (ids go to distinct TreeFacts in first-seen order) and a 64-bit digest
    hash(key) of its exact key (i(T; x), edge splits), and the (facts,
    alpha = sum of b_i) of each class, alpha read when the class is first
    seen; each tree's deg i(T; x) must equal it.  No key outlives the call."""
    classes: dict[TreeFacts, int] = {}
    class_of, cls, digests = [], [], []
    for row in rows:
        facts, key = _survey_payload(row)
        c = classes.setdefault(facts, len(classes))
        if c == len(class_of):
            class_of.append((facts, sum(b for b, _ in facts.levels)))
        degree, alpha = len(key[0]) - 1, class_of[c][1]
        if degree != alpha:
            raise InternalError(f"deg i(T; x) = {degree} but sum of b_i = {alpha} for parents {list(row)}")
        cls.append(c)
        digests.append(hash(key))
    return cls, class_of, digests


def _x_equal_groups(rows, digests: list[int]) -> list[list[int]]:
    """The survey's X stage, the one place it decides X-equality: the groups
    of two or more X-equal trees, each ascending, from the trees' rows and
    the digests of their keys alone.  Only the digests that two or more
    trees share get a bucket (adjacent equal values of the sorted digests),
    in the order of their first tree.  Trees with different keys have
    different X, so the tree DP runs only in those buckets, on each row as
    it is (the DP's one input, so no Tree is built), and the full p-terms
    decide (the change of basis is invertible; a dict keyed by the terms,
    so neither a digest nor a hash decides alone, and a digest collision
    costs DP runs, never a verdict).  The CSF engine is imported only for
    such a bucket: none for n <= 10."""
    ordered = sorted(digests)
    tied = {d for d, e in zip(ordered, ordered[1:]) if d == e}
    by_digest: dict[int, list[int]] = {}
    for i, digest in enumerate(digests):
        if digest in tied:
            by_digest.setdefault(digest, []).append(i)
    groups = []
    for members in by_digest.values():
        from .symfunc import _tree_powersum_terms

        by_terms: dict[tuple, list[int]] = {}
        for i in members:
            by_terms.setdefault(_tree_powersum_terms(rows[i]), []).append(i)
        groups.extend(g for g in by_terms.values() if len(g) > 1)
    return groups


def _survey_class_pairs(cls: list[int], class_of: list[tuple[TreeFacts, int]], later: dict):
    """The survey's class-pair stage, from the class id of each tree, the
    (facts, alpha) of each class and, for each tree i of an X-equal group,
    the trees j > i of its group (later[i]).  The checkers' rules (no
    TheoremVerdict, no detail prose), their CSV cells and their claims,
    checked against alpha, run once per ordered class pair, and no loop
    runs over tree pairs.  Returns:
      * the members of each class, ascending;
      * the memo, the survey's one table of CSV cells: entry a * k + b
        holds the cells of the ordered class pair (a, b) if it holds a tree
        pair i < j with i in class a and j in class b (its first tree in a
        precedes its last one in b), else None;
      * verdict_counts, which weighs each unordered class pair by its
        number of tree pairs, |A| |B| or C(|A|, 2).  That needs the status
        and case of each verdict to be the same in both orders of the
        pair, which is checked wherever both orders hold a tree pair;
      * the soundness violations, from the X-equal pairs and the tree pairs
        of the ordered class pairs that have a problem even when X differs,
        listed in (a, b) order; only those class pairs keep their checks."""
    members: list[list[int]] = [[] for _ in class_of]
    for i, c in enumerate(cls):
        members[c].append(i)
    k = len(class_of)
    counts = {
        LEAVES_RHO: {"case1": 0, "case2": 0, "case3": 0, "case4": 0, "not_applicable": 0},
        COMPONENTWISE: {"applicable": 0, "not_applicable": 0},
        SUMMED: {"applicable": 0, "not_applicable": 0},
    }
    memo: list = [None] * (k * k)
    equal_keys = {cls[i] * k + cls[j] for i, js in later.items() for j in js}
    checked: dict[int, list] = {}
    for a in range(k):
        for b in range(a, k):
            size = len(members[a])
            weight = size * (size - 1) // 2 if b == a else size * len(members[b])
            # a class with itself: its one order holds a pair iff it has two trees
            orders = {(x, y) for x, y in ((a, b), (b, a)) if members[x][0] < members[y][-1]}
            outcome = None
            for x, y in orders:
                key = x * k + y
                seen, memo[key], checks = _class_pair(*class_of[x], *class_of[y])
                if key in equal_keys or any(problems for _, problems in checks):
                    checked[key] = checks
                if outcome is not None and seen != outcome:
                    raise InternalError(
                        f"a verdict's status or case depends on the order of classes {a}, {b}"
                    )
                outcome = seen
            if outcome is None:
                continue
            (lv, case), (cw, _), (sm, _) = outcome
            counts[LEAVES_RHO][f"case{case}" if lv == APPLICABLE else "not_applicable"] += weight
            for theorem, status in ((COMPONENTWISE, cw), (SUMMED, sm)):
                counts[theorem]["applicable" if status == APPLICABLE else "not_applicable"] += weight

    flagged = {(i, j) for i, js in later.items() for j in js}
    for key, checks in checked.items():
        if any(problems for _, problems in checks):
            firsts, seconds = members[key // k], members[key % k]
            flagged.update((i, j) for i in firsts for j in seconds if i < j)
    violations = []
    for i, j in sorted(flagged):
        x_equal = j in later.get(i, ())
        for theorem, problems in checked[cls[i] * k + cls[j]]:
            if x_equal or problems:
                reason = "; ".join(["csf_equal is true", *problems] if x_equal else problems)
                violations.append({"a": i, "b": j, "theorem": theorem, "reason": reason})
    return members, memo, counts, violations


def _check_survey_n(n) -> None:
    """survey's range check, which the CLI also runs before it opens a file."""
    bad_n = f"survey needs an integer n with 3 <= n <= {ENUM_MAX_N}"
    if not is_int(n) or n < 3:
        raise GraphError(bad_n)
    if n > ENUM_MAX_N:
        raise CapExceededError(bad_n)


def survey(n: int) -> SurveyReport:
    """Replay the pairwise checkers over all non-isomorphic trees on n
    vertices (3 <= n <= ENUM_MAX_N), cross-check every Applicable claim
    against the CSF, and run the chain/spider/star audits for the same n.

    The trees are the rows of generators._free_tree_edge_sets (one WROM
    level sequence per tree, as a parent list, sorted by canonical code),
    and tree indices are positions in that order; every per-tree fold runs
    on the row, the tree DP included, and a Tree is built only for the
    audits.  The rows go through three stages, then the report:
      * _survey_trees: each tree's fact class and key digest, and each
        class's facts (read once by the chain audit) and alpha = sum of b_i;
      * _x_equal_groups: X-equality, from the rows and digests alone,
        decided on exact p-terms inside the buckets of equal digests;
        x_equal_pairs counts the pairs inside its groups; the rows and
        digests are freed after it;
      * _survey_class_pairs: verdict_counts and the soundness violations,
        from the checkers' rules once per ordered pair of fact classes.

    Everything runs in one process, so the report depends on n alone.  The
    per-pair CSV rows are not stored: the report's pair_rows() rebuilds
    them, a block per first tree, from the class-pair memo (the one table
    of CSV cells) and the X-equal groups when called."""
    _check_survey_n(n)
    rows = _free_tree_edge_sets(n)
    num = len(rows)
    cls, class_of, digests = _survey_trees(rows)
    groups = _x_equal_groups(rows, digests)
    del rows, digests
    chains = [None if chain_holds(f.levels) else chain_sequence(f.levels) for f, _ in class_of]
    chain_viol = [{"tree": i, "sequence": list(chains[c])} for i, c in enumerate(cls) if chains[c]]
    later = {i: group[pos + 1 :] for group in groups for pos, i in enumerate(group)}
    members, memo, counts, violations = _survey_class_pairs(cls, class_of, later)
    k = len(members)

    def pair_rows():
        # tails[c]: (i, the row tails "j,false<cells>\n" for j > i), built
        # at the first tree i of class c and dropped at its last; each tree
        # of c reads a slice of it
        tails: dict[int, tuple[int, list[str]]] = {}
        for i in range(num - 1):
            c = cls[i]
            cells = memo[c * k : c * k + k]
            if c not in tails:
                tails[c] = (i, [f"{j},false{cells[cls[j]]}\n" for j in range(i + 1, num)])
            first, tail = tails.pop(c) if i == members[c][-1] else tails[c]
            part = tail[i - first :]
            for j in later.get(i, ()):
                part[j - i - 1] = f"{j},true{cells[cls[j]]}\n"
            yield f"{i}," + f"{i},".join(part)

    return SurveyReport(
        n=n,
        num_trees=num,
        pairs=num * (num - 1) // 2,
        x_equal_pairs=sum(map(len, later.values())),
        soundness_violations=tuple(violations),
        verdict_counts=counts,
        chain_audit_violations=tuple(chain_viol),
        spider_audit=tuple(_spider_audit_rows(n)),
        star_audit=tuple(_star_audit_rows(n)),
        pair_rows=pair_rows,
    )
