"""First-integral detection and verification for 2D/3D Lotka-Volterra systems
with constant terms."""

from .catalog2d import detect2d, detect2d_full
from .catalog3d import detect3d, detect3d_full, term_table
from .detection import Candidate, Detection
from .model import (
    LVSystem,
    Permutation,
    lift_exact,
    make_system,
    parse_system,
    permute_system,
    serialize_system,
)
from .oracle import AnsatzSpec, derive_conditions, residual_2d, residual_3d
from .verify import ConservationReport, Trajectory, conservation_report, integrate, lie_check

__version__ = "0.1.0"

__all__ = [
    "AnsatzSpec",
    "Candidate",
    "ConservationReport",
    "Detection",
    "LVSystem",
    "Permutation",
    "Trajectory",
    "conservation_report",
    "derive_conditions",
    "detect2d",
    "detect2d_full",
    "detect3d",
    "detect3d_full",
    "integrate",
    "lie_check",
    "lift_exact",
    "make_system",
    "parse_system",
    "permute_system",
    "residual_2d",
    "residual_3d",
    "serialize_system",
    "term_table",
    "__version__",
]
