"""Sign of the propagation speed of bistable competition fronts.

The package answers one question about the two-species strong-competition
system: which way does the unique bistable front move?  Three independent
routes are provided and cross-checked:

* ``theory``   -- explicit sufficient criteria on (d, r, k1, k2),
* ``supersol`` -- constructive blocking profiles certified numerically,
* ``pde``      -- a direct simulation oracle measuring the front speed,

plus ``scan`` for parameter-plane maps and a ``wavespeed`` CLI.
"""

from .model import (
    CompetitionParams,
    ParameterError,
    coexistence,
    reaction_f,
    reaction_g,
    to_cooperative,
    validate,
)
from .theory import (
    CriterionId,
    PolarityConflictError,
    SearchCapExceeded,
    Sign,
    SignVerdict,
    ThresholdBounds,
    classify,
    determinacy_thresholds,
    kstar_bounds,
    m_of_k,
    reflect,
)
from .supersol import (
    DegenerateSupersol,
    ProfileError,
    ResidualReport,
    SigmoidProfile,
    SupersolCandidate,
    abc_coefficients,
    admissibility_conditions,
    alpha_p,
    choose_p_a,
    degenerate_build,
    degenerate_residuals,
    h_p,
    h_star,
    matching_mismatch,
    residuals_IJ,
    sigma_profile,
)
from .pde import (
    Grid1D,
    SimConfig,
    SimulationError,
    SpeedEstimate,
    default_config,
    estimate_speed,
    refine_check,
    simulate,
)
from .scan import (
    Plane,
    RegionSample,
    ScanSpec,
    emit_csv,
    emit_svg,
    scan_plane,
)

__version__ = "0.1.0"
