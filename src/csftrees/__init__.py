"""Chromatic symmetric functions of trees: exact CSF computation in the
monomial and power-sum bases, leaf decompositions and maximal independent
blocks, and mechanical checkers for the distinguishing theorems.

The public names are loaded lazily (PEP 562): ``from csftrees import
csf_powersum`` imports only symfunc and what it needs, so a ``csf`` process
never compiles the modules its subcommand does not use.  Names are looked
up afresh on every access, never cached here, so a function patched in its
submodule is what ``csftrees.<name>`` returns."""

from importlib import import_module

__version__ = "0.1.0"

# public name -> the submodule that defines it
_EXPORTS = {
    **dict.fromkeys(
        (
            "LeafDecomposition",
            "LeafLevel",
            "RhoData",
            "alpha_mis",
            "chain_holds",
            "chain_sequence",
            "leaf_decomposition",
            "padded_levels",
            "rho_data",
            "tree_facts",
        ),
        "decomposition",
    ),
    **dict.fromkeys(("CapExceededError", "GraphError"), "errors"),
    **dict.fromkeys(
        (
            "Gluing",
            "SpiderSpec",
            "StarConnectionSpec",
            "enumerate_free_trees",
            "gen_path",
            "gen_spider",
            "gen_star",
            "gen_star_connection",
        ),
        "generators",
    ),
    **dict.fromkeys(
        (
            "Graph",
            "Tree",
            "canonical_code",
            "parse_edge_list",
            "serialize",
            "trees_isomorphic",
        ),
        "graphs",
    ),
    **dict.fromkeys(
        (
            "SymmetricFunction",
            "csf_equal",
            "csf_monomial",
            "csf_powersum",
            "max_block_from_csf",
            "pretty",
            "symfunc_to_json_dict",
            "to_monomial",
        ),
        "symfunc",
    ),
    **dict.fromkeys(
        (
            "SurveyReport",
            "TheoremVerdict",
            "spider_M_formula",
            "spider_audit",
            "star_connection_audit",
            "star_connection_counts",
            "star_connection_distinct",
            "survey",
            "survey_report_to_json_dict",
            "thm_componentwise_check",
            "thm_leaves_check",
            "thm_sum_check",
        ),
        "theorems",
    ),
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{module}", __name__), name)


def __dir__():
    return sorted({*globals(), *_EXPORTS})
