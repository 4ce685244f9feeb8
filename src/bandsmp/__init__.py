"""Subpower membership for finite bands.

Decide whether a tuple belongs to the subalgebra of S^n generated by
given tuples, where S is a finite idempotent semigroup. Bands passing a
pair of quasiidentity scans admit a polynomial-time decision procedure;
all others are NP-complete, witnessed by an explicit SAT reduction.
Includes brute-force oracles for desk-scale cross-validation.
"""

from .band import (
    Band,
    CATALOG_EXAMPLES,
    GreenCache,
    catalog,
    chain_semilattice,
    find_embedding,
    left_zero,
    load_band,
    parse_band_text,
    rectangular,
    right_zero,
)
from .power import (
    DEFAULT_CAP,
    GenSet,
    SmpInstance,
    closure,
    format_instance,
    member_closure,
    member_closure_word,
    mul_tuple,
    parse_instance,
)
from .quasi import (
    Classification,
    EmbeddingReport,
    FORBIDDEN_CASES,
    Witness,
    canonical_forbidden_witness,
    classify,
    construct_forbidden_band,
    embeds_forbidden,
    find_lambda_witness,
    generated_T,
    is_witness,
    normalize_witness,
)
from .smp import (
    AutoResult,
    CpInfixInstance,
    LoopStats,
    cp_infix,
    cp_suffix,
    smp_decide_auto,
    smp_decide_poly,
    verify_word,
)
from .words import (
    Identity,
    Word,
    content,
    dual_word,
    eval_word,
    ghi_word,
    h_n,
    left_cut_s,
    length_bound_p,
    satisfies_identity,
    sigma,
    word_from_text,
    word_to_text,
)
from .reduction import (
    ReductionOutput,
    SatInstance,
    assignment_to_word,
    format_roles,
    parse_dimacs,
    sat_to_smp,
    word_to_assignment,
)

__version__ = "0.1.0"
