"""tflow: transition-timing statistics for small quantum systems.

Builds time-of-flow distributions (the normalized rate of change of a
target-state population) from exact dynamics, from current-operator
expectations, or from a simulated finite-sample measurement protocol;
segments them into arrival/departure phases; and evaluates the speed
limits and spread bounds they obey. Includes ready-made two- and
three-level scenarios, a polynomial drive optimizer and a CLI emitting
CSV/JSON run artifacts.
"""

__version__ = "0.1.0"

from .dynamics import (  # noqa: F401
    HamiltonianSchedule,
    LindbladModel,
    TimeGrid,
    Trajectory,
    constant_hamiltonian,
    current_operator,
    lindblad_adjoint,
    population_series,
    propagate_lindblad,
    propagate_schrodinger,
)
from .tf import (  # noqa: F401
    Moments,
    PopulationSeries,
    TFDistribution,
    moments,
    split_toa_tod,
    step_model_statistics,
    tf_from_current,
    tf_from_population,
    tf_from_rate,
)
from .protocol import (  # noqa: F401
    EmpiricalTF,
    ProtocolConfig,
    convergence_report,
    simulate_protocol,
)
from .qsl import (  # noqa: F401
    chebyshev_spread_bound,
    mt_dephasing_bound,
    spread_bound_from_qsl,
    tf_qsl_closed,
    tf_qsl_open,
    uncertainty_check,
)
