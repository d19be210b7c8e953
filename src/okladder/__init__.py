"""Exact symbolic-numeric toolkit for the third-order shape-invariant
rational extensions of the oscillator built from generalized Okamoto
polynomials, their ladder operators, three-term recurrences, Wronskian
representations, and zero-count laws."""

from .exact_ring import (
    ExactPoly,
    GaussWronskian,
    QuasiGaussian,
    RationalFn,
    SQRT2,
    SqrtTwoScalar,
    apply_first_order,
    log_derivative,
    poly_gcd,
    wronskian,
)
from .okamoto import OkamotoTable, okamoto, okamoto_degree
from .painleve4 import (
    BACKLUND_MAPS,
    PIVSolution,
    backlund,
    bilinear_identities,
    piv_residual,
    rational_solution,
)
from .rootcount import (
    RootCountReport,
    predicted_mode_count,
    predicted_okamoto_count,
    predicted_wronskian_count,
    sturm_count,
)
from .spectral import (
    HamiltonianK,
    LadderOp,
    ModeFunction,
    auxiliary_potential_checks,
    energy,
    factorization_energies,
    hamiltonian_residual,
    intertwining_checks,
    ladder,
    ladder_constant_sq,
    mode_degree,
    potential,
    superpotentials,
    zero_mode,
)
from .ttrr import (
    RecurrenceState,
    downward_residual,
    normalization_sq,
    ode_residual,
    ttrr_next,
    ttrr_sequence,
)
from .wronskian_rep import (
    exceptional_hermite,
    okamoto_via_wronskian,
    susy_chain_potential,
    wronskian_identity_check,
    wronskian_mode,
    wronskian_potential,
    xhermite_from_ttrr,
)

__version__ = "0.1.0"
