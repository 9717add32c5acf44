"""Planar Lp Minkowski problem toolkit for 0 < p < 1.

Construct a convex body whose Lp surface area measure matches a prescribed
finite measure on the circle, verify solutions, and generate the explicit
boundary/unboundedness example families.
"""

from .errors import (
    AntipodalPairError,
    ConcentratedError,
    EmptyBodyError,
    EmptyMeasureError,
    LpMinkError,
    NoConvergenceError,
    OriginOutsideError,
    SchemaError,
    UnboundedError,
)
from .geometry import (
    Isometry2,
    Polygon,
    SymmetryGroup,
    apply_isometry,
    area,
    dilate,
    edge_lengths,
    in_positive_hull,
    polygon_from_support,
    support_distance,
    translate,
)
from .measure import (
    DiscreteMeasure,
    MeasureClass,
    MeasureSpec,
    PiecewiseLinearDensity,
    chord_mass_bound,
    classify,
    hemisphere_delta,
    lp_surface_measure,
    weak_distance,
)
from .pipeline import (
    PipelineConfig,
    classify_spec,
    detect_symmetry,
    discretize,
    discretize_symmetric,
    monge_ampere_residual,
    solve,
    solve_semicircle,
)
from .solver import (
    OrbitStructure,
    SolveReport,
    SolverConfig,
    anchor_objective,
    measure_residual,
    optimal_anchor,
    orbit_partition,
    solve_discrete,
)
from .gallery import (
    BoundaryGraphProfile,
    DiscreteMeasure3,
    Polytope3Instance,
    boundary_graph_profile,
    lp_surface_measure_3d,
    unbounded_limit_table,
    unbounded_polytope_3d,
)

__version__ = "0.1.0"
