"""braidbowl: exact multi-ball bowling-alley representations of positive braids.

Everything is computed over Z[q] (or exact rationals after evaluation); no
floating point anywhere.
"""

from .braid import (
    BraidWord,
    HeckeElement,
    Permutation,
    minimal_braid,
    parse_word,
    permutation_of,
    sign,
    specht_element,
    specht_half,
)
from .cabled import (
    apply_generator_cabled,
    check_cabled_braid_relation,
    check_cabled_formula,
    check_oracle_placement_invariance,
    crossing_oracle,
    fall_distribution,
    rho_cabled_matrix,
)
from .matrix import Matrix, TransitionMatrix
from .multiball import (
    apply_generator,
    check_braid_relation,
    check_far_commutativity,
    check_hecke,
    check_inverse,
    check_specht,
    check_stochastic,
    generator_matrix,
    index_state,
    rho_element,
    rho_matrix,
    state_index,
)
from .qpoly import (
    ONE,
    ONE_MINUS_Q,
    Q,
    ZERO,
    QPoly,
    falling_probability,
    gauss_binom,
    inversions_binary,
    inversions_perm,
    q_factorial,
    quantum_int,
)
from .report import CheckReport

__version__ = "0.1.0"
