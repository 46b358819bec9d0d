"""critlab: criticality-ordered testing lab for elementary adverse driving scenarios.

Generates maximally critical yet winnable test cases for merge, lane-change
and intersection conflicts, simulates pluggable longitudinal autopilots
against them in closed loop, and classifies failures by where they sit in the
criticality order (frontier band, irrational, overcautious, overall), with
rationality, determinacy and partition-coverage analyses on top.
"""

from .kinematics import ADProfile
from .scenario import (
    Property,
    ScenarioType,
    StaticPart,
    TestCase,
    collision_window,
    default_goal,
    equivalence_mutations,
    expand,
)
from .criticality import (
    CriticalBoundary,
    Zone,
    classify_zone,
    most_critical,
)
from .autopilots import (
    AutopilotSpec,
    ExternalAutopilot,
    always_cautious,
    constant_speed,
    irrational,
    non_determinate_accel,
    non_determinate_brake,
    overcautious,
    reference,
    transition_flawed,
)
from .simulator import Event, EventKind, SimConfig, SimOutcome, Verdict, VerdictKind, simulate, verdict
from .classify import (
    DeterminacyReport,
    GridResult,
    classify_grid,
    determinacy_check_braking,
    determinacy_check_progress,
    rationality_check,
    run_grid,
    run_grids,
)
from .partition import SpeedPartition, build_partition, coverage_ratio
from .campaign import CampaignConfig, CampaignReport, load_config, render_report, run_campaign

__version__ = "0.1.0"
