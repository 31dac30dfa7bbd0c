"""tsalab: tree stack automata, multiple context-free grammars, and the
run-analysis toolkit built on them (factorisations, history arrays,
swapping, pumping, letter-count bounds), plus PDA translations, regular
language tooling and group word-problem experiments.
"""

from .treestack import (
    ROOT,
    ROOT_LABEL,
    InputError,
    Instruction,
    Predicate,
    TreeStack,
    format_address,
    parse_address,
    pred_eval,
    render_tree_stack,
    ts_apply,
    ts_init,
)
from .tsa import (
    Configuration,
    Degree,
    NotFound,
    RunTrace,
    SearchOptions,
    Transition,
    Tsa,
    accepts,
    degree,
    enumerate_words,
    is_k_restricted,
    is_proper,
    make_root_accepting,
    normalize_child_indices,
    parse_tsa,
    render_tsa,
    replay,
    shortest_accepted,
    standardise,
    step,
    visited_from_below_counts,
)
from .mcfg import (
    Mcfg,
    McfgRule,
    mcfg_enumerate,
    mcfg_member,
    parse_mcfg,
    productive_nonterminals,
)
from .analysis import (
    EmpiricalUpSet,
    HistoryArray,
    Level1Arrays,
    NuFactorisation,
    UpDownVector,
    check_U_switchable,
    check_atv_bounds,
    collect_upsets,
    find_pumpable,
    history_array,
    level1_arrays,
    nu_factorisation,
    single_swap,
    substitution_bound,
    up_down_vector,
    weak_pump_verify,
)
from .convert import (
    Pda,
    fixture_ks_tsa,
    fixture_wpz_pda,
    fixture_wpz_tsa,
    parse_pda,
    pda_accepts,
    pda_to_tsa1,
    tsa1_to_pda,
)
from .langlab import (
    Fsa,
    GroupAlphabet,
    WordOracle,
    build_Bw,
    erasing_hom,
    f2f2_T,
    f2f2_experiment,
    fsa_accepts,
    gap_check,
    oracle,
    parse_fsa,
    rational_membership,
    regex_to_fsa,
    tsa_fsa_product,
)
from . import fixtures

__version__ = "0.1.0"
