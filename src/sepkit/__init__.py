"""sepkit: exact separation-property toolkit for parameterized IFSs on the line."""

from .exact import (
    AffineExpr,
    DEFAULT_SIGN_BUDGET,
    Param,
    ParamPoint,
    Rational,
    RationalInterval,
    RationalParam,
    Undecided,
    rational_from_str,
    rational_to_str,
    round_decimal,
)
from .ifs import (
    Cylinder,
    IfsSystem,
    Word,
    cylinder,
    map_at_zero,
    translation_amount,
    validate_system,
)
from .construction import (
    ConstructionRun,
    ConstructionState,
    ConstructionTemplate,
    DrivingSequence,
    EmptyRefinement,
    RefinementEngine,
    RefinementOption,
    example_point,
    example_system,
    example_template,
    fibonacci_bit,
    param_point,
    refine_step,
    run_construction,
    thue_morse_bit,
)
from .separation import (
    CensusResult,
    Displacement,
    NeighborhoodType,
    convex_type_census,
    displacement_levels,
    distinctness_check,
    endpoint_separation,
    exact_overlap_scan,
    osc_dimension,
    wsp_min_displacement,
)
from .openset import (
    OpenSetApprox,
    OverlapOracle,
    constructed_v_type_census,
    verify_osc_open_set,
)
from .render import CylinderDiagram, diagram_for_level, emit_svg, render_levels

__version__ = "0.1.0"
