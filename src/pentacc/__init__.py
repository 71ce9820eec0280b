"""Equilateral pentagon central configurations.

Library and CLI for the planar five-body problem with homogeneous
potentials of exponent A >= 2: residual systems linear in the masses,
the mirror-symmetric family and its admissibility minor, rigorous interval
certification of root uniqueness, and exact tropical prevariety checks of
the finiteness system.
"""

from .geometry import (
    ChainAngles,
    CollisionError,
    DistanceVector,
    OutOfDomainError,
    PlanarConfiguration,
    SignType,
    SymmetricShape,
    cayley_menger,
    classify_sign_type,
    cyclic_from_angles,
    mutual_distances,
    oriented_area,
    symmetric_coords,
)
from .equations import (
    Exponent,
    MassVector,
    ResidualReport,
    albouy_chenciner_f,
    la2_feasible,
    laura_andoyer,
    mass_coefficient_matrix,
    mass_kernel,
    region_classify,
)
from .intervals import Box, Dual, Interval, IntervalDomainError
from .symmetric import (
    F,
    MassPolynomial,
    QUARTIC_MASS_POLY,
    RootRecord,
    VORTEX_MASS_POLY,
    bifurcation_scan,
    exclude_sign_types,
    isolate_roots,
    scan_branch,
    sign_type_windows,
    verify_mass_polynomial,
)
from .certify import Certificate, certify_no_common_zero, certify_unique_root, eval_F_interval
from .tropical import WeightVector, build_system, in_prevariety, verify_tables

__version__ = "0.1.0"

__all__ = [
    "ChainAngles", "CollisionError", "DistanceVector", "OutOfDomainError",
    "PlanarConfiguration", "SignType", "SymmetricShape", "cayley_menger",
    "classify_sign_type", "cyclic_from_angles", "mutual_distances",
    "oriented_area", "symmetric_coords",
    "Exponent", "MassVector", "ResidualReport", "albouy_chenciner_f",
    "la2_feasible", "laura_andoyer", "mass_coefficient_matrix", "mass_kernel",
    "region_classify",
    "Box", "Dual", "Interval", "IntervalDomainError",
    "F", "MassPolynomial", "QUARTIC_MASS_POLY", "RootRecord",
    "VORTEX_MASS_POLY", "bifurcation_scan", "exclude_sign_types",
    "isolate_roots", "scan_branch", "sign_type_windows",
    "verify_mass_polynomial",
    "Certificate", "certify_no_common_zero", "certify_unique_root",
    "eval_F_interval",
    "WeightVector", "build_system", "in_prevariety", "verify_tables",
]
