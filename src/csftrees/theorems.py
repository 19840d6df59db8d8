"""Checkers for the tree-distinguishing criteria, plus the bulk survey.

Four checkers, identified by theorem id:

  LEAVES_RHO      leaf counts b and path remainders rho (four cases)
  COMPONENTWISE   levelwise dominance of the padded leaf decompositions
  SUMMED          aggregate dominance with a bounded reversed-index set
  STAR_COUNT      star connections on the same vertex set with r < s stars

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
_independence_and_splits, and the full p-terms of the tree DP where keys
tie).  Each checker is a rule, which returns its verdict as a plain tuple
with the detail as a callable, and a wrapper that formats the
TheoremVerdict; the survey calls the rules once per ordered pair of fact
classes, and the counts come from class sizes, so no loop runs over the
tree pairs.

Two known weaknesses are handled explicitly rather than papered over:

* The LEAVES_RHO case-4 bound (b1-b2 > ceil((rho2-rho1)/k) for every
  admissible k >= 3) does not force strictness of the block maxima: the
  5-tooth comb versus P10 satisfies it with both maxima equal to 5, and
  from n = 14 on it can hold with the maxima reversed (b = 7, rho = 0
  against the spider (11, 1, 1), b = 3, rho = 9: m = (7, 8)).  The checker
  additionally requires m1 > m2 and otherwise reports NotApplicable, with
  the tie or the reversal in ``detail``.
* spider_M_formula reproduces its closed form verbatim even though it
  disagrees with the exact independence number already on legs (1,1,1);
  spider_audit pairs it with the alpha_mis oracle instead of correcting it.
"""

from __future__ import annotations

from itertools import combinations

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


def _check_strict(theorem: str, m1: int, m2: int) -> None:
    """An Applicable verdict claims m1 > m2; a verdict that does not is a bug."""
    if not m1 > m2:
        raise InternalError(f"{theorem}: Applicable verdict with m1 = {m1} <= m2 = {m2}")


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
                "readings diverge"
            )
        elif m1 <= m2:
            case, why = None, lambda: (
                f"case-4 bound holds for all k >= {k0}, but the block maxima "
                + (f"tie (m1 = m2 = {m1})" if m1 == m2 else f"are reversed (m1 = {m1} < m2 = {m2})")
                + "; the bound does not force a strict conclusion"
            )
        else:
            case, why = 4, lambda: (
                f"b1-b2 = {diff} > ceil((rho2-rho1)/k) for all k >= {k0} "
                f"(hardest: ceil({delta}/{k0}) = {bound})"
            )
    if case is None:
        return NOT_APPLICABLE, None, None, None, swapped, why
    _check_strict(LEAVES_RHO, m1, m2)
    return APPLICABLE, case, m1, m2, swapped, why


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
            _check_strict(COMPONENTWISE, m1, m2)
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
    prefixes the detail with swap_note."""
    status, case, m1, m2, swapped, why = rule
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
    """(vertex count, degree excess of the gluing vertices), both computed by
    the closed forms sum(n_k) - (r-1) and r-1 and verified on
    t = gen_star_connection(spec)."""
    r = spec.num_stars
    nverts = sum(spec.star_sizes) - (r - 1)
    excess = r - 1
    deg = degrees(t)
    built = sum(deg[r + i] - 1 for i in range(len(spec.gluings)))
    if t.n != nverts or built != excess:
        raise InternalError(
            f"star connection built with {t.n} vertices and excess {built}, "
            f"closed forms give {nverts} and {excess}"
        )
    return nverts, excess


def _formula_M(spec: StarConnectionSpec, excess: int) -> int:
    return sum(k - 1 for k in spec.star_sizes) - excess


def star_connection_counts(spec: StarConnectionSpec) -> tuple[int, int]:
    return _verified_counts(spec, gen_star_connection(spec))


def star_connection_audit(spec: StarConnectionSpec) -> tuple[int, int, int, int]:
    """(vertex count, degree excess, M, alpha_mis), all from one built tree."""
    t = gen_star_connection(spec)
    nverts, excess = _verified_counts(spec, t)
    return nverts, excess, _formula_M(spec, excess), alpha_mis(t)


def star_connection_distinct(a: StarConnectionSpec, b: StarConnectionSpec) -> TheoremVerdict:
    ca, cb = star_connection_counts(a), star_connection_counts(b)
    va, vb = ca[0], cb[0]
    if va != vb:
        raise GraphError(f"vertex counts differ: {va} != {vb}")
    r, s = a.num_stars, b.num_stars
    if r == s:
        return TheoremVerdict(STAR_COUNT, NOT_APPLICABLE, detail=f"equal star counts r = s = {r}")
    swapped = r > s
    (first, c1), (second, c2) = ((b, cb), (a, ca)) if swapped else ((a, ca), (b, cb))
    m1 = _formula_M(first, c1[1])
    m2 = _formula_M(second, c2[1])
    _check_strict(STAR_COUNT, m1, m2)
    note = "inputs swapped; " if swapped else ""
    why = f"{first.num_stars} < {second.num_stars} stars on {va} vertices"
    return TheoremVerdict(STAR_COUNT, APPLICABLE, None, m1, m2, swapped, note + why)


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
    return {
        "n": rep.n,
        "num_trees": rep.num_trees,
        "pairs": rep.pairs,
        "x_equal_pairs": rep.x_equal_pairs,
        "soundness_violations": list(rep.soundness_violations),
        "verdict_counts": rep.verdict_counts,
        "chain_audit_violations": list(rep.chain_audit_violations),
        "spider_audit": list(rep.spider_audit),
        "star_audit": list(rep.star_audit),
    }


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


def _survey_payload(row: tuple[int, ...]):
    """Per-tree work unit on a row (generators._free_tree_edge_sets): the
    tree's facts, its chain sequence if the chain fails (else None) and
    its exact X-invariant key (i(T; x), edge splits), all folded over the
    parent list.  deg i(T; x) must equal the peel's sum of b_i."""
    n = len(row)
    facts = _facts(n, zip(row[1:], range(1, n)))
    levels, key = facts.levels, _independence_and_splits(row, range(n))
    degree, blocks = len(key[0]) - 1, sum(b for b, _ in levels)
    if degree != blocks:
        raise InternalError(f"deg i(T; x) = {degree} but sum of b_i = {blocks} for parents {row}")
    return facts, None if chain_holds(levels) else chain_sequence(levels), key


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


def _class_pair(fa: TreeFacts, fb: TreeFacts, ma: int, mb: int):
    """What the survey keeps of the three rules on an ordered class pair
    with facts (fa, fb) and max blocks (ma, mb): each verdict's status and
    case; the 13 cells of the pair's CSV rows after a, b and x_equal, each
    after a comma (no cell holds a comma, a quote or a line break, so none
    is quoted); and, for each Applicable verdict, its theorem and the
    problems of its claim."""
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
        if not (m1 is not None and m2 is not None and m1 > m2):
            problems.append(f"m1 = {m1} is not strictly greater than m2 = {m2}")
        checks.append((theorem, problems))
    suffix = (
        f",{lv[0]},{_cell(lv[1])},{_cell(lv[2])},{_cell(lv[3])},{_cell(lv[4])}"
        f",{cw[0]},{_cell(cw[2])},{_cell(cw[3])},{_cell(cw[4])}"
        f",{sm[0]},{_cell(sm[2])},{_cell(sm[3])},{_cell(sm[4])}"
    )
    return (lv[:2], cw[:2], sm[:2]), (suffix, checks)


def _x_equal_groups(rows: list[tuple[int, ...]], by_key: dict) -> list[list[int]]:
    """The groups of two or more X-equal trees, each ascending, from the
    trees' indices bucketed by key.  Trees with different keys have
    different X, so the tree DP runs only in buckets of two or more trees,
    on each row in index order (a rooted walk, so no Tree is built); there
    the full p-terms decide (a dict keyed by the terms, so a hash never
    decides alone), and the max block read from their hooks must equal
    deg i(T; x), the bucket's.  The CSF engine is imported only for such a
    bucket: no two trees tie for n <= 10."""
    groups = []
    for key, members in by_key.items():
        if len(members) < 2:
            continue
        degree = len(key[0]) - 1
        from .symfunc import _hook_max_block, _tree_powersum_terms

        by_terms: dict[tuple, list[int]] = {}
        for i in members:
            terms = _tree_powersum_terms(rows[i], range(len(rows[i])))
            hook = _hook_max_block(len(rows[i]), terms)
            if hook != degree:
                raise InternalError(
                    f"tree {i}: max block {hook} from the p-terms, deg i(T; x) = {degree}"
                )
            by_terms.setdefault(terms, []).append(i)
        groups.extend(g for g in by_terms.values() if len(g) > 1)
    return groups


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
    audits.  Each tree gets two exact coefficient families of X from one
    small DP (_independence_and_splits): i(T; x) and its edge splits.  alpha,
    the largest block every claimed maximum is checked against, is the sum
    of b_i, which must equal deg i(T; x) on every tree.  Trees whose keys
    differ have different X; only inside buckets of two or more trees does
    the full tree DP run, and there X-equality is decided on the exact
    p-terms (the change of basis is invertible), whose hook coefficients
    must give alpha again.  A key match alone never makes a pair X-equal.

    The checkers read only TreeFacts, which fix alpha, so the trees are
    grouped into fact classes, and the checkers' rules (no TheoremVerdict,
    no detail prose), their CSV cells and their soundness problems run
    once per ordered class pair.  No loop runs over tree pairs:
      * verdict_counts weighs each unordered class pair by its number of
        tree pairs, |A| |B| or C(|A|, 2).  That needs the status and case of
        each verdict to be the same in both orders of the pair, which is
        checked wherever both orders hold a tree pair.
      * x_equal_pairs sums C(|group|, 2) over the groups of X-equal trees.
      * The soundness violations come from the pairs inside those groups
        and the tree pairs of the ordered class pairs that have a problem
        even when X differs, listed in (a, b) order.

    Everything runs in one process, so the report depends on n alone.  The
    per-pair CSV rows are not stored: the report's pair_rows() rebuilds
    them, a block per first tree, from the class pairs' cells and the
    X-equal groups when called."""
    _check_survey_n(n)
    rows = _free_tree_edge_sets(n)
    num = len(rows)
    chain_viol = []
    by_key: dict[tuple, list[int]] = {}
    classes: dict[TreeFacts, int] = {}
    cls = []
    for i, row in enumerate(rows):
        facts, failed_chain, key = _survey_payload(row)
        if failed_chain is not None:
            chain_viol.append({"tree": i, "sequence": list(failed_chain)})
        by_key.setdefault(key, []).append(i)
        cls.append(classes.setdefault(facts, len(classes)))

    later: dict[int, list[int]] = {}  # the X-equal trees after each tree
    equal_pairs: list[tuple[int, int]] = []
    for group in _x_equal_groups(rows, by_key):
        for pos, i in enumerate(group):
            later[i] = group[pos + 1 :]
        equal_pairs.extend(combinations(group, 2))

    members: list[list[int]] = [[] for _ in classes]
    for i, c in enumerate(cls):
        members[c].append(i)
    class_of = list(classes)
    blocks = [sum(b for b, _ in f.levels) for f in class_of]
    k = len(class_of)
    counts = {
        LEAVES_RHO: {"case1": 0, "case2": 0, "case3": 0, "case4": 0, "not_applicable": 0},
        COMPONENTWISE: {"applicable": 0, "not_applicable": 0},
        SUMMED: {"applicable": 0, "not_applicable": 0},
    }
    # memo[a * k + b]: (CSV suffix, checks) of the ordered class pair (a, b),
    # for the pairs that hold a tree pair i < j with i in class a and j in
    # class b: those whose first tree in a precedes the last one in b
    memo: list = [None] * (k * k)
    for a in range(k):
        for b in range(a, k):
            if b == a:
                weight = len(members[a]) * (len(members[a]) - 1) // 2
                orders = ((a, a),) if weight else ()
            else:
                weight = len(members[a]) * len(members[b])
                orders = [(x, y) for x, y in ((a, b), (b, a)) if members[x][0] < members[y][-1]]
            outcome = None
            for x, y in orders:
                seen, memo[x * k + y] = _class_pair(class_of[x], class_of[y], blocks[x], blocks[y])
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

    flagged = set(equal_pairs)
    for key, entry in enumerate(memo):
        if entry is not None and any(problems for _, problems in entry[1]):
            firsts, seconds = members[key // k], members[key % k]
            flagged.update((i, j) for i in firsts for j in seconds if i < j)
    violations = []
    for i, j in sorted(flagged):
        x_equal = j in later.get(i, ())
        for theorem, problems in memo[cls[i] * k + cls[j]][1]:
            if x_equal or problems:
                reason = "; ".join(["csf_equal is true", *problems] if x_equal else problems)
                violations.append({"a": i, "b": j, "theorem": theorem, "reason": reason})

    suffix = [entry and entry[0] for entry in memo]

    def pair_rows():
        # tails[c]: (i, the row tails "j,false<cells>\n" for j > i), built
        # at the first tree i of class c and dropped at its last; each tree
        # of c reads a slice of it
        tails: dict[int, tuple[int, list[str]]] = {}
        for i in range(num - 1):
            c = cls[i]
            cells = suffix[c * k : c * k + k]
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
        x_equal_pairs=len(equal_pairs),
        soundness_violations=tuple(violations),
        verdict_counts=counts,
        chain_audit_violations=tuple(chain_viol),
        spider_audit=tuple(_spider_audit_rows(n)),
        star_audit=tuple(_star_audit_rows(n)),
        pair_rows=pair_rows,
    )
