"""Tight-binding scattering through centers made of two Hermitian clusters
joined by an anti-Hermitian coupling.

Such centers conserve the probability current exactly (|r|^2 + |t|^2 = 1 for
every in-band momentum) despite being non-Hermitian; this package computes
the coefficients by two independent routes, folds parity-symmetric
gain/loss graphs into that form, ships the exactly solvable 4-site ring, and
verifies everything with seeded random ensembles plus a wavepacket oracle.
"""

from .errors import (
    DimensionMismatch,
    IndexOutOfRange,
    InvalidConfig,
    InvalidRange,
    InvalidSite,
    JointOutsideAxis,
    MomentumOutOfBand,
    NonFiniteState,
    NotHermitian,
    NotInConservingClass,
    ParseError,
    PoleAtK,
    ScatterError,
    SingularDelta,
    SingularMatrix,
    SingularSystem,
    ZetaPole,
)
from .model import (
    LeadAttachment,
    ScatteringCenter,
    assemble_delta,
    assemble_full_center_matrix,
    build_center,
    effective_hamiltonian,
    parse_network_spec,
    serialize_network_spec,
)
from .scattering import (
    AbcCoefficients,
    ScatteringSolution,
    SpectrumPoint,
    SpectrumResult,
    coefficients_abc,
    dispersion,
    reconstruct_wavefunction,
    schrodinger_residual,
    solve_rt_direct,
    solve_rt_formula,
    spectrum,
)
from .ptgraph import (
    PTGraphSpec,
    assemble_hpt,
    check_pt_symmetry,
    fold,
    fold_generalized,
    fold_unitary,
    parity_matrix,
    parse_pt_spec,
    serialize_pt_spec,
)
from .four_site import (
    FourSiteParams,
    closed_form_deficit,
    closed_form_rt,
    folded_four_site,
    folded_four_site_matrix,
    four_site_center,
    hermitian_side_coupled_center,
    transmission_T,
    transmission_Tprime,
    zeta,
)
from .wavepacket import (
    FiniteSystem,
    WavepacketConfig,
    build_finite_system,
    evolve,
    gaussian_packet,
    measure_partition,
    run_experiment,
)

__version__ = "0.1.0"
