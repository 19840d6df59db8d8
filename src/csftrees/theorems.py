"""Checkers for the tree-distinguishing criteria, plus the bulk survey.

Four checkers, identified by theorem id:

  LEAVES_RHO      leaf counts b and path remainders rho (four cases)
  COMPONENTWISE   levelwise dominance of the padded leaf decompositions
  SUMMED          aggregate dominance with a bounded reversed-index set
  STAR_COUNT      star connections on the same vertex set with r < s stars

The closed-form spider block maximum (spider_M_formula) is audited, not
used as a checker; see below.

Applicable verdicts claim the maximal independent blocks satisfy m1 > m2,
with the pair oriented internally (``swapped`` records an exchange of the
inputs, and the detail string repeats it).  ``survey`` settles the first
three checkers on every pair of non-isomorphic trees on n vertices and
cross-checks each claim against coefficients of the chromatic symmetric
function itself, so an unsound verdict cannot pass silently: the largest
block is deg i(T; x), the largest k with [m_(k,1^(n-k))] X nonzero, and
X-equality is decided on exact coefficients of X (the invariant key of
independence_and_splits, and the full p-terms of the tree DP where keys
tie).  The checkers run once per ordered pair of fact classes, and the
counts come from class sizes, so no loop runs over the tree pairs.

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
    LeafDecomposition,
    alpha_mis,
    chain_holds,
    chain_sequence,
    independence_and_splits,
    leaf_decomposition,
    padded_levels,
    rho_data,
)
from .errors import CapExceededError, GraphError, InternalError
from .generators import (
    ENUM_MAX_N,
    Gluing,
    SpiderSpec,
    StarConnectionSpec,
    enumerate_free_trees,
    gen_spider,
    gen_star_connection,
)
from .graphs import Record, Tree, canonical_code, degrees, is_int, trees_isomorphic
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


def _not_applicable(theorem_id: str, detail: str, swapped: bool = False) -> TheoremVerdict:
    # all positional, so it skips Record's binding step: the survey builds
    # three verdicts per ordered class pair
    return TheoremVerdict(theorem_id, NOT_APPLICABLE, None, None, None, swapped, detail)


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


def tree_facts(t: Tree, d: LeafDecomposition | None = None) -> TreeFacts:
    """Facts of t; pass d = leaf_decomposition(t) if already built."""
    d = d or leaf_decomposition(t)
    if t.n >= 2:
        rd = rho_data(t, d)
        rho, path = rd.rho, rd.is_path
    else:
        rho, path = 0, True
    return TreeFacts(d.level_counts(), rho, path)


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


def _leaves_verdict(f1: TreeFacts, f2: TreeFacts) -> TheoremVerdict:
    b1, b2 = f1.levels[0][0], f2.levels[0][0]
    if b1 == b2:
        return _not_applicable(LEAVES_RHO, f"equal leaf counts b = {b1}")
    swapped = b1 < b2
    if swapped:
        f1, f2, b1, b2 = f2, f1, b2, b1
    r1, r2 = f1.rho, f2.rho
    m1, m2 = b1 + _ceil_div(r1, 2), b2 + _ceil_div(r2, 2)
    diff, delta = b1 - b2, r2 - r1
    half = _ceil_div(delta, 2)
    # Each branch sets (case, why); case None refuses, with why as the reason.
    if not (f1.is_path and f2.is_path):
        bad = ", ".join(name for name, f in (("t1", f1), ("t2", f2)) if not f.is_path)
        case, why = None, f"rho-induced subgraph is not a path for {bad}"
    elif r1 == r2:
        case, why = 1, f"rho1 = rho2 = {r1}"
    elif r1 > r2:
        case, why = 2, f"rho1 = {r1} > rho2 = {r2}"
    elif diff > half:
        case, why = 3, f"b1-b2 = {diff} > ceil((rho2-rho1)/2) = {half}"
    elif delta < 2:
        case, why = None, f"no case applies (rho2-rho1 = {delta} admits no k >= 3)"
    else:
        # Case 4: the admissible k (k >= 3, k/(k-2) <= delta < k*(b1-b2)) form
        # the integer ray [k0, oo) once delta >= 2, and ceil(delta/k) is
        # nonincreasing in k, so the whole family passes iff its smallest
        # member does.  Passing does not order the block maxima by itself.
        k0 = max(4 if delta == 2 else 3, delta // diff + 1)
        bound = _ceil_div(delta, k0)
        if diff <= bound:
            case, why = None, (
                f"case-4 bound fails at k = {k0}: {diff} <= ceil({delta}/{k0}) = {bound}; "
                "the sign-flipped reading ceil((rho1-rho2)/k) <= 0 would accept every k — "
                "readings diverge"
            )
        elif m1 <= m2:
            order = f"tie (m1 = m2 = {m1})" if m1 == m2 else f"are reversed (m1 = {m1} < m2 = {m2})"
            case, why = None, (
                f"case-4 bound holds for all k >= {k0}, but the block maxima {order}; "
                "the bound does not force a strict conclusion"
            )
        else:
            case, why = 4, (
                f"b1-b2 = {diff} > ceil((rho2-rho1)/k) for all k >= {k0} "
                f"(hardest: ceil({delta}/{k0}) = {bound})"
            )
    note = "inputs swapped so that b1 > b2; " if swapped else ""
    if case is None:
        return _not_applicable(LEAVES_RHO, note + why, swapped)
    _check_strict(LEAVES_RHO, m1, m2)
    return TheoremVerdict(LEAVES_RHO, APPLICABLE, case, m1, m2, swapped, note + why)


def _componentwise_verdict(f1: TreeFacts, f2: TreeFacts) -> TheoremVerdict:
    s1, s2 = padded_levels(f1.levels, f2.levels)
    if s1 == s2:
        return _not_applicable(COMPONENTWISE, "identical level sequences")
    for a, b, swapped in ((s1, s2, False), (s2, s1, True)):
        if all(ba >= bb and ea <= eb for (ba, ea), (bb, eb) in zip(a, b)):
            m1 = sum(x for x, _ in a)
            m2 = sum(x for x, _ in b)
            _check_strict(COMPONENTWISE, m1, m2)
            note = "inputs swapped; " if swapped else ""
            why = f"levelwise b >= and eta <= holds: {a} dominates {b}"
            return TheoremVerdict(COMPONENTWISE, APPLICABLE, None, m1, m2, swapped, note + why)
    return _not_applicable(
        COMPONENTWISE, f"no levelwise dominance in either orientation: {s1} vs {s2}"
    )


def _sum_verdict(f1: TreeFacts, f2: TreeFacts) -> TheoremVerdict:
    s1, s2 = padded_levels(f1.levels, f2.levels)
    r = len(s1)
    b1 = [x for x, _ in s1]
    b2 = [x for x, _ in s2]
    if b1 == b2:
        return _not_applicable(SUMMED, f"identical b sequences {b1}")
    reasons = []
    for a, b, swapped in ((b1, b2, False), (b2, b1, True)):
        tag = "swapped" if swapped else "as given"
        rev = [i for i in range(r) if a[i] <= b[i]]
        if not 1 <= len(rev) <= r - 1:
            reasons.append(f"{tag}: |reversed set| = {len(rev)} outside 1..{r - 1}")
            continue
        back = sum(b[i] - a[i] for i in rev)
        fwd = sum(a[j] - b[j] for j in range(r) if j not in rev)
        if back < fwd:
            note = "inputs swapped; " if swapped else ""
            why = f"reversed levels {rev}: deficit {back} < surplus {fwd} (b: {a} vs {b})"
            return TheoremVerdict(SUMMED, APPLICABLE, None, sum(a), sum(b), swapped, note + why)
        reasons.append(f"{tag}: deficit {back} >= surplus {fwd}")
    return _not_applicable(SUMMED, "; ".join(reasons))


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
        return _not_applicable(STAR_COUNT, f"equal star counts r = s = {r}")
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
    """What survey(n) found.  pair_rows() yields the CSV lines
    (SURVEY_CSV_HEADER columns, no line terminator), one per pair in (a, b)
    order, each built only when read; it is left out of equality and repr."""

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


def _verdict_suffix(lv, cw, sm) -> str:
    """The 13 cells of a CSV row after a, b and x_equal, each after a comma
    (no cell holds a comma, a quote or a line break, so none is quoted)."""
    cells = (
        lv.status,
        _cell(lv.case_id),
        _cell(lv.m1),
        _cell(lv.m2),
        _cell(lv.swapped),
        cw.status,
        _cell(cw.m1),
        _cell(cw.m2),
        _cell(cw.swapped),
        sm.status,
        _cell(sm.m1),
        _cell(sm.m2),
        _cell(sm.swapped),
    )
    return "," + ",".join(cells)


def _survey_payload(t: Tree):
    """Per-tree work unit: decomposition facts, the chain sequence if the
    chain fails (else None) and the exact X-invariant key (i(T; x), edge
    splits).  deg i(T; x) must equal the peel's sum of b_i."""
    d = leaf_decomposition(t)
    facts = tree_facts(t, d)
    key = independence_and_splits(t)
    degree, blocks = len(key[0]) - 1, sum(b for b, _ in facts.levels)
    if degree != blocks:
        raise InternalError(f"deg i(T; x) = {degree} but sum of b_i = {blocks} for edges {t.edges}")
    return facts, None if chain_holds(d) else chain_sequence(d), key


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
    survey samples: all chains (stars glued in a row at distinct vertices) and
    all bouquets (every star glued at one shared vertex), deduplicated up to
    isomorphism."""
    rows = []
    seen = set()
    for r in range(2, n):
        total = n + r - 1  # sum of star sizes; each of r-1 merges saves a vertex
        if 3 * r > total:
            break
        specs = [
            StarConnectionSpec(comp, tuple(Gluing((i, i + 1)) for i in range(r - 1)))
            for comp in _compositions(total, r, 3)
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
            m = _formula_M(spec, _verified_counts(spec, t)[1])
            a = alpha_mis(t)
            rows.append({"stars": list(spec.star_sizes), "formula": m, "alpha": a, "agrees": m == a})
    return rows


def _key_verdicts(fa: TreeFacts, fb: TreeFacts):
    """The three verdicts on an ordered pair with facts (fa, fb), and what
    the survey keeps of them: the suffix of the pair's CSV rows and its
    soundness violations as (theorem id, reason) tuples, first if the pair
    is X-equal, then if it is not.  A max block is the facts' sum of b_i."""
    verdicts = _pair_verdicts(fa, fb)
    ma, mb = sum(b for b, _ in fa.levels), sum(b for b, _ in fb.levels)
    if_equal, if_distinct = [], []
    for v in verdicts:
        if v.status != APPLICABLE:
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
    return verdicts, (_verdict_suffix(*verdicts), tuple(if_equal), tuple(if_distinct))


def _x_equal_groups(trees: list[Tree], by_key: dict) -> list[list[int]]:
    """The groups of two or more X-equal trees, each ascending, from the
    trees' indices bucketed by key.  Trees with different keys have
    different X, so the tree DP runs only in buckets of two or more trees;
    there the full p-terms decide (a dict keyed by the terms, so a hash
    never decides alone), and the max block read from their hooks must
    equal deg i(T; x), the bucket's.  The CSF engine is imported only for
    such a bucket: no two trees tie for n <= 10."""
    groups = []
    for key, members in by_key.items():
        if len(members) < 2:
            continue
        degree = len(key[0]) - 1
        from .symfunc import _hook_max_block, _tree_powersum_terms

        by_terms: dict[tuple, list[int]] = {}
        for i in members:
            t = trees[i]
            terms = _tree_powersum_terms(t)
            hook = _hook_max_block(t.n, terms)
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

    The trees come from enumerate_free_trees (one WROM level sequence per
    tree, sorted by canonical code), and tree indices are positions in that
    order.  Each tree gets two exact coefficient families of X from one
    small DP (independence_and_splits): i(T; x) and its edge splits.  alpha,
    the largest block every claimed maximum is checked against, is the sum
    of b_i, which must equal deg i(T; x) on every tree.  Trees whose keys
    differ have different X; only inside buckets of two or more trees does
    the full tree DP run, and there X-equality is decided on the exact
    p-terms (the change of basis is invertible), whose hook coefficients
    must give alpha again.  A key match alone never makes a pair X-equal.

    The checkers read only TreeFacts, which fix alpha, so the trees are
    grouped into fact classes, and the verdicts, their CSV cells and their
    soundness problems are computed once per ordered class pair.  No loop
    runs over tree pairs:
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
    them from the class pairs' cells and the X-equal groups when called."""
    _check_survey_n(n)
    trees = enumerate_free_trees(n)
    num = len(trees)
    chain_viol = []
    by_key: dict[tuple, list[int]] = {}
    classes: dict[TreeFacts, int] = {}
    cls = []
    for i, t in enumerate(trees):
        facts, failed_chain, key = _survey_payload(t)
        if failed_chain is not None:
            chain_viol.append({"tree": i, "sequence": list(failed_chain)})
        by_key.setdefault(key, []).append(i)
        cls.append(classes.setdefault(facts, len(classes)))

    x_id = list(range(num))  # X-equal trees share an id
    equal_pairs: list[tuple[int, int]] = []
    for group in _x_equal_groups(trees, by_key):
        for i in group:
            x_id[i] = group[0]
        equal_pairs.extend(combinations(group, 2))

    members: list[list[int]] = [[] for _ in classes]
    for i, c in enumerate(cls):
        members[c].append(i)
    class_of = list(classes)
    k = len(class_of)
    counts = {
        LEAVES_RHO: {"case1": 0, "case2": 0, "case3": 0, "case4": 0, "not_applicable": 0},
        COMPONENTWISE: {"applicable": 0, "not_applicable": 0},
        SUMMED: {"applicable": 0, "not_applicable": 0},
    }
    # memo[a * k + b]: (CSV suffix, problems if X-equal, problems if not) of
    # the ordered class pair (a, b), for the pairs that hold a tree pair
    # i < j with i in class a and j in class b: those whose first tree in a
    # precedes the last one in b
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
                verdicts, memo[x * k + y] = _key_verdicts(class_of[x], class_of[y])
                seen = [(v.status, v.case_id) for v in verdicts]
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
        if entry is not None and entry[2]:
            firsts, seconds = members[key // k], members[key % k]
            flagged.update((i, j) for i in firsts for j in seconds if i < j)
    violations = []
    for i, j in sorted(flagged):
        entry = memo[cls[i] * k + cls[j]]
        for theorem, reason in entry[1] if x_id[i] == x_id[j] else entry[2]:
            violations.append({"a": i, "b": j, "theorem": theorem, "reason": reason})

    suffix = [entry and entry[0] for entry in memo]

    def pair_rows():
        for i in range(num):
            xi, base = x_id[i], cls[i] * k
            cells = suffix[base : base + k]
            for j in range(i + 1, num):
                yield f"{i},{j},{'true' if x_id[j] == xi else 'false'}{cells[cls[j]]}"

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
