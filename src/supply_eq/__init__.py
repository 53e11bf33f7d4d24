"""Supply-side equilibria of producer competition under personalized recommendations."""

from .closedform import (
    EquilibriumDist,
    FinitePCurve,
    InfiniteTwoGenre,
    OnePopulation,
    QuarterCircle,
    eq_sample,
)
from .geometry import (
    CostSpec,
    NumericalError,
    UserSet,
    angle_pair,
    basis_pair,
    beta_star_two_user,
    cost,
    dual_norm,
    orthonormal_users,
    weighted_norm,
)
from .ingest import (
    InputDataError,
    NmfConfig,
    NmfResult,
    RatingsTable,
    load_embeddings_csv,
    load_ratings_csv,
    nmf_factorize,
    save_embeddings_csv,
)
from .optimize import (
    OptResult,
    minmax_alignment,
    nsw_direction,
    simplex_logsum_max,
)
from .threshold import (
    ConditionProbe,
    ThresholdReport,
    beta_upper,
    max_condition_holds,
    threshold_report,
)
from .verify import (
    EmpiricalMarginals,
    VerifyReport,
    best_response_gap,
    empirical_marginals,
    positive_profit_condition,
)

__version__ = "0.1.0"
