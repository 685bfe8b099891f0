"""Grammar-compression laboratory: straight-line grammars, the compressors
analyzed alongside them, string boosters, CFG re-targeting, and non-crossing
matching, with verification suites over all of their exact size and value
identities."""

from .symbols import SentinelFamily, Symbol, SymbolTable
from .core import (
    SLG,
    GrammarError,
    GrammarParseError,
    GrammarStats,
    deserialize,
    expand,
    expand_all,
    expand_text,
    is_admissible,
    is_dyadic,
    is_isomorphic,
    make_admissible,
    random_access,
    serialize,
    stats,
)
from .compressors import (
    CompressorError,
    Factorization,
    GlobalStrategy,
    Phrase,
    bisection,
    count_nonoverlapping,
    global_step,
    greedy,
    is_irreducible,
    longest_match,
    lz78,
    lzd,
    maximal_strings,
    repair,
    repair_pairs_only,
    run_global,
    sequential,
    sequitur,
)
from .boost import (
    AlphaBoost,
    BetaBoost,
    BoostError,
    BoostResult,
    FoldingBoost,
    GIGrammar,
    PointSet,
    alpha,
    answer_grammar,
    answer_string,
    beta,
    bexp,
    build_gi,
    canonical_order,
    gamma,
    lz78_hard_string,
    rna_alpha,
    rna_beta,
)
from .cfg import (
    CFG,
    CfgError,
    add_prefix,
    cyk_member,
    erase_closure,
    gamma_prime_alpha,
    gamma_prime_beta,
    interleave,
    language_upto,
    parse_cfg,
    serialize_cfg,
)
from .rna import (
    FoldResult,
    MatchedAlphabet,
    RnaError,
    check_decomposition,
    check_reverse_and_match,
    parse_matched_alphabet,
    weighted_to_unweighted,
    wrna,
)

# NB: the unit-weight folding function lives at slglab.rna.rna; re-exporting
# it here would shadow the submodule attribute.

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
