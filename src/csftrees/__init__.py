"""Chromatic symmetric functions of trees: exact CSF computation in the
monomial and power-sum bases, leaf decompositions and maximal independent
blocks, and mechanical checkers for the distinguishing theorems."""

from .decomposition import (
    LeafDecomposition,
    LeafLevel,
    RhoData,
    alpha_from_decomposition,
    alpha_mis,
    chain_holds,
    chain_sequence,
    leaf_decomposition,
    padded_levels,
    rho_data,
)
from .errors import CapExceededError, GraphError
from .generators import (
    Gluing,
    SpiderSpec,
    StarConnectionSpec,
    enumerate_free_trees,
    gen_path,
    gen_spider,
    gen_star,
    gen_star_connection,
    prufer_tree,
)
from .graphs import (
    Graph,
    Tree,
    canonical_code,
    parse_edge_list,
    serialize,
    tree_center,
    trees_isomorphic,
)
from .symfunc import (
    SymmetricFunction,
    csf_equal,
    csf_monomial,
    csf_powersum,
    evaluate_ones,
    max_block_from_csf,
    pretty,
    stable_partitions,
    symfunc_from_json,
    symfunc_to_json_dict,
    to_monomial,
)
from .theorems import (
    SurveyReport,
    TheoremVerdict,
    spider_M_formula,
    spider_audit,
    star_connection_M,
    star_connection_audit,
    star_connection_counts,
    star_connection_distinct,
    survey,
    survey_report_to_json_dict,
    thm_componentwise_check,
    thm_leaves_check,
    thm_sum_check,
    tree_facts,
)

__version__ = "0.1.0"
