"""Simplicial decomposition and ball parameterization of the nonnegative
part of a complete toric variety, with exact combinatorial certification.

See the README for an overview; the main entry points are:

    parse_and_validate / load_bundled   fan construction
    Atlas                               charts, intrinsic points, equality
    rescale_global / param_boundary_point
    build_ball_model / build_orbit_complex / verify_gluing / verify_regularity
"""

from importlib import resources as _resources

from .bary import (
    Flag,
    FlagCone,
    NotInCone,
    barycenter,
    cover_check,
    enumerate_flags,
    flag_cone,
    flag_intersection,
    simplicial_coords,
)
from .cellcomplex import (
    BallModel,
    OrbitComplex,
    build_ball_model,
    build_orbit_complex,
    euler_characteristic,
    pseudomanifold_check,
    verify_gluing,
    verify_regularity,
)
from .charts import (
    Atlas,
    Chart,
    NotInImage,
    NotInOpenSet,
    ToricPoint,
    psi_eval,
    psi_invert,
    theta,
)
from .cones import (
    SemigroupGens,
    hilbert_basis,
    relative_interior_point,
    triangular_generators,
)
from .exact import LatticeProjection, dual_basis, pair, quotient_projection
from .fan import (
    Cone,
    Fan,
    FanError,
    FanValidationError,
    FaceIntersectionViolation,
    IncompleteFan,
    NotPrimitiveRay,
    NotStronglyConvex,
    ParseError,
    parse_and_validate,
    star_fan,
    validate_fan,
)
from .homeo import (
    nonextension_probe,
    param_boundary_point,
    phi_coords,
    rescale_global,
    rescale_in_flag,
)

__version__ = "0.1.0"

BUNDLED_FANS = (
    "p1",
    "p1xp1",
    "p1xp1xp1",
    "p2",
    "p3",
    "p112",
    "twisted_p3",
)


def bundled_path(name: str):
    """Filesystem path of a bundled example fan description."""
    return _resources.files(__name__) / "data" / f"{name}.json"


def load_bundled(name: str) -> Fan:
    """Load one of the bundled example fans by short name."""
    if name not in BUNDLED_FANS:
        raise KeyError(f"unknown bundled fan {name!r}; options: {BUNDLED_FANS}")
    return parse_and_validate(bundled_path(name).read_text())
