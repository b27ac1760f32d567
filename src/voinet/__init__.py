"""Value-of-information assessment and scheduling for vehicular perception data.

The package scores the usefulness of transmitting sensed observations
between vehicles: pairwise-comparison weights for the application at hand
(``ahp``), conditional scores for proximity, timeliness, and sensing
quality with their weighted aggregation (``voi``), a value-ranked
transmission scheduler (``scheduler``), and parameter-sweep curve
generation with figure presets (``sweep``). ``voinet.cli`` exposes all of
it on the command line.
"""

from types import ModuleType as _ModuleType

from .ahp import (
    RANDOM_INDEX,
    ComparisonMatrix,
    ConsistencyReport,
    EigenSolution,
    consistency,
    principal_eigenvector,
)
from .voi import (
    DYNAMIC,
    HIGHWAY,
    NON_PROCESSED,
    PROCESSED,
    SAFETY,
    SCENARIOS,
    SENSORS,
    STATIC,
    TEMPORAL_CLASSES,
    TRAFFIC,
    URBAN,
    VARIABLE,
    ApplicationProfile,
    AssessmentContext,
    AttributeScores,
    LogisticParams,
    Scenario,
    SensorModel,
    TemporalClass,
    attribute_scores,
    focal_distance,
    los_probability,
    overall_voi,
    proximity_voi,
    quality_voi_nonprocessed,
    quality_voi_processed,
    safety_distance,
    timeliness_voi,
)
from .scheduler import (
    PerceptionRecord,
    RankedEntry,
    ReceiverView,
    SchedulerConfig,
    filter_broadcast,
    rank,
    score_record,
)
from .sweep import CurveSet, SweepSeries, SweepSpec, figure_preset, preset_names, run_sweep

__version__ = "0.1.0"

# Every public name imported above, so the list is not written twice.
__all__ = ["__version__"] + [
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
]
