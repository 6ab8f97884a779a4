"""Numerics for lattice-localized magnetic frames.

Layers, bottom up: label geometry (`lattice`), closed-form state algebra in
the angular basis (`magnetic`), frame-operator spectra and decay
certificates (`frame_analysis`), many-body interactions with their
propagation functional and two-body kernels (`interactions`), quadratic
Hamiltonian coefficients (`quadratic`), the exact finite Fock engine
(`fock`), and the batch front end (`cli`) with its text formats
(`serialize`) and configuration (`config`).
"""

from .lattice import (
    LatticeError,
    LatticeParams,
    Site,
    Window,
    build_chain,
    build_window,
    distance,
    m_epsilon,
    window_from_triples,
)
from .magnetic import (
    LaguerreCoords,
    MagneticParams,
    RegimeError,
    TruncationError,
    bessel_bound,
    chi_coords,
    chi_pointwise,
    overlap,
    overlap_matrix,
    regime,
    theta3,
)
from .frame_analysis import (
    DecayCertificate,
    FrameAnalysisError,
    frame_bounds_estimate,
    frame_operator,
    gram,
    localization_rate,
    neumann_certificate,
    overlap_rate_constant,
    s_inverse_power_elements,
    verify_decay,
)
from .interactions import (
    Interaction,
    InteractionError,
    c_phi,
    density_density,
    ExponentialPotential,
    exponential_potential,
    k_sigma,
    lr_velocity,
    v_omega,
    w_kernel,
)
from .quadratic import hopping_coeffs, landau_coefficients
from .fock import (
    Evolution,
    FockError,
    LRReport,
    ModeBasis,
    anticommutator_norm,
    build_interaction_hamiltonian,
    build_quadratic_hamiltonian,
    lr_check,
    mode_basis,
    mode_operators,
    operator_norm,
    quasifree_expectation,
    volume_convergence,
)
from .config import ConfigError, RunConfig, load_config, parse_config_text

__version__ = "0.1.0"

__all__ = [
    "LatticeError", "LatticeParams", "Site", "Window",
    "build_chain", "build_window", "distance", "m_epsilon", "window_from_triples",
    "LaguerreCoords", "MagneticParams", "RegimeError", "TruncationError",
    "bessel_bound", "chi_coords", "chi_pointwise", "overlap", "overlap_matrix",
    "regime", "theta3",
    "DecayCertificate", "FrameAnalysisError",
    "frame_bounds_estimate", "frame_operator", "gram",
    "localization_rate", "neumann_certificate", "overlap_rate_constant",
    "s_inverse_power_elements", "verify_decay",
    "Interaction", "InteractionError",
    "c_phi", "density_density", "ExponentialPotential", "exponential_potential", "k_sigma",
    "lr_velocity", "v_omega", "w_kernel",
    "hopping_coeffs", "landau_coefficients",
    "Evolution", "FockError", "LRReport", "ModeBasis", "anticommutator_norm",
    "build_interaction_hamiltonian", "build_quadratic_hamiltonian", "lr_check",
    "mode_basis", "mode_operators", "operator_norm", "quasifree_expectation",
    "volume_convergence",
    "ConfigError", "RunConfig", "load_config", "parse_config_text",
    "__version__",
]
