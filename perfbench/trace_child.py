"""Run one ``csf`` request in-process with a span around every entry function.

    python3 perfbench/trace_child.py --spans PREFIX --request-id K -- <csf args>

The script imports csftrees, replaces each function listed in ENTRY_POINTS
by a span-recording wrapper in every csftrees module namespace that binds
it (``csf_monomial`` is bound in symfunc, theorems and cli, for example),
then calls ``csftrees.cli.main``. A span records its name, start, end,
parent span and the request id. Spans stay in memory and are written when
the request ends: PREFIX.json holds the name table and the counters taken
from return values and the measured cost of one span, PREFIX.bin the span
columns (see SPAN_COLUMNS).
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import sys
from array import array
from time import perf_counter

# (module, function) pairs to wrap, by layer. Dotted names are methods.
ENTRY_POINTS = {
    "generators": ["enumerate_free_trees", "_free_tree_edge_sets"],
    "graphs": ["Tree.__post_init__", "parse_edge_list", "_code_from_adj",
               "canonical_code", "trees_isomorphic"],
    "decomposition": ["leaf_decomposition", "rho_data", "chain_sequence",
                      "chain_holds", "alpha_mis"],
    "_kernels": ["stable_type_counts", "edge_subset_type_counts"],
    # count_table is left unwrapped: it is a cached lookup made inside
    # rank_desc, and a nested span there would charge its wrapper to
    # partitions.s on every one of the 2^|E| subsets.
    "partitions": ["partitions_desc", "num_partitions", "rank_desc",
                   "unrank_desc", "mult_factorial", "falling_factorial"],
    "symfunc": ["csf_monomial", "csf_powersum", "to_monomial", "csf_equal"],
    "theorems": ["tree_facts", "_survey_payload", "survey", "_spider_audit_rows",
                 "_star_audit_rows", "thm_leaves_check", "thm_componentwise_check",
                 "thm_sum_check", "_leaves_verdict", "_componentwise_verdict",
                 "_sum_verdict"],
    "cli": ["main"],
}

# Column order and array type codes of PREFIX.bin.
SPAN_COLUMNS = (("name", "i"), ("parent", "i"), ("request", "i"),
                ("start", "d"), ("end", "d"))


def _count_into(counters: dict, key: str, amount) -> None:
    counters[key] = counters.get(key, 0) + int(amount)


def _counter_hooks() -> dict:
    """Counters read from a span's arguments and return value, by span name."""

    def terms(args, result, c):
        _count_into(c, "symfunc.terms", len(result.terms))

    def verdict(args, result, c):
        _count_into(c, "theorems.applicable", result.status == "Applicable")

    def survey(args, result, c):
        _count_into(c, "theorems.pairs", result.pairs)
        _count_into(c, "theorems.soundness_violations", len(result.soundness_violations))

    def audit(args, result, c):
        _count_into(c, "theorems.audit_rows", len(result))

    return {
        "_kernels.stable_type_counts":
            lambda args, result, c: _count_into(c, "kernels.stable_partitions", result.sum()),
        "_kernels.edge_subset_type_counts":
            lambda args, result, c: _count_into(c, "kernels.subsets", 1 << len(args[1])),
        "generators.enumerate_free_trees":
            lambda args, result, c: _count_into(c, "generators.trees", len(result)),
        "symfunc.csf_monomial": terms,
        "symfunc.csf_powersum": terms,
        "symfunc.to_monomial": terms,
        "theorems._leaves_verdict": verdict,
        "theorems._componentwise_verdict": verdict,
        "theorems._sum_verdict": verdict,
        "theorems.survey": survey,
        "theorems._spider_audit_rows": audit,
        "theorems._star_audit_rows": audit,
    }


class Tracer:
    """Span store for one request: one growable column per field."""

    def __init__(self, request_id: int):
        self.request_id = request_id
        self.names: list[str] = []
        self.columns = {col: array(code) for col, code in SPAN_COLUMNS}
        self.stack = [-1]
        self.counters: dict[str, int] = {}

    def wrap(self, fn, span_name: str, hook):
        name_id = len(self.names)
        self.names.append(span_name)
        cols = self.columns
        name_col, parent_col, request_col = cols["name"], cols["parent"], cols["request"]
        start_col, end_col = cols["start"], cols["end"]
        stack, counters, request_id = self.stack, self.counters, self.request_id

        @functools.wraps(fn)
        def span(*args, **kwargs):
            idx = len(name_col)
            name_col.append(name_id)
            parent_col.append(stack[-1])
            request_col.append(request_id)
            start_col.append(0.0)
            end_col.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end_col[idx] = perf_counter()
                start_col[idx] = t0
                stack.pop()
            if hook is not None:
                hook(args, result, counters)
            return result

        return span

    def install(self) -> None:
        modules = {m: importlib.import_module(f"csftrees.{m}") for m in ENTRY_POINTS}
        namespaces = [sys.modules["csftrees"], *modules.values()]
        hooks = _counter_hooks()
        for modname, funcs in ENTRY_POINTS.items():
            mod = modules[modname]
            for func in funcs:
                span_name = f"{modname}.{func}"
                if "." in func:
                    cls_name, attr = func.split(".")
                    cls = getattr(mod, cls_name)
                    setattr(cls, attr, self.wrap(getattr(cls, attr), span_name, hooks.get(span_name)))
                    continue
                orig = getattr(mod, func)
                wrapper = self.wrap(orig, span_name, hooks.get(span_name))
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is orig:
                            setattr(ns, key, wrapper)

    def write(self, prefix: str, span_cost_s: float) -> None:
        with open(prefix + ".bin", "wb") as fh:
            for col, _ in SPAN_COLUMNS:
                self.columns[col].tofile(fh)
        meta = {"request": self.request_id, "spans": len(self.columns["name"]),
                "names": self.names, "counters": self.counters, "span_cost_s": span_cost_s}
        with open(prefix + ".json", "w", encoding="utf-8") as fh:
            json.dump(meta, fh)


def span_cost(calls: int = 10_000) -> float:
    """Seconds one span adds to a call: a wrapped no-op against a bare one,
    the fastest of three rounds. The part of it spent outside the span's
    own start and end is charged to the parent span's self time."""
    def noop():
        return None

    wrapped = Tracer(-1).wrap(noop, "probe", None)
    rounds = []
    for _ in range(3):
        t0 = perf_counter()
        for _ in range(calls):
            noop()
        t1 = perf_counter()
        for _ in range(calls):
            wrapped()
        rounds.append((perf_counter() - t1) - (t1 - t0))
    return max(0.0, min(rounds) / calls)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--spans", required=True, help="prefix of the two span files")
    ap.add_argument("--request-id", type=int, required=True)
    ap.add_argument("csf_args", nargs=argparse.REMAINDER)
    args = ap.parse_args()
    csf_args = args.csf_args[1:] if args.csf_args[:1] == ["--"] else args.csf_args

    cost = span_cost()
    tracer = Tracer(args.request_id)
    tracer.install()
    import csftrees.cli

    try:
        code = csftrees.cli.main(csf_args)
    finally:
        sys.stdout.flush()
        tracer.write(args.spans, cost)
    return code


if __name__ == "__main__":
    sys.exit(main())
