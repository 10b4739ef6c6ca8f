"""skillnet: continual skill learning for a single recurrent network.

Control skills are acquired by black-box weight search on copies of the
network, prediction skills by gradient descent, and everything is folded
back into the one network by replaying stored behavioral traces -- no
further environment interaction needed.
"""

from .consolidate import (
    ConsolidationConfig,
    ConsolidationReport,
    build_targets,
    consolidate,
    retention_check,
)
from .curriculum import BudgetsConfig, CurriculumReport, run_curriculum
from .envs import (
    GridMaze,
    GridMazeSpec,
    Observation,
    SuccessCriterion,
    TaskDescription,
    check_success,
    corner_tasks,
    goal_encoding,
    make_env,
)
from .evolve import Budget, EsConfig, SearchOutcome, perturb, try_solve_task
from .network import (
    NetConfig,
    Network,
    ReplayBatch,
    TrialTargets,
    bptt_gradient,
    init_network,
    load_checkpoint,
    save_checkpoint,
)
from .rollout import run_trial, run_trials
from .traces import ReplayPolicy, StoreDims, TraceFormatError, TraceStore, Trial

__version__ = "0.1.0"

__all__ = [
    "Budget",
    "BudgetsConfig",
    "ConsolidationConfig",
    "ConsolidationReport",
    "CurriculumReport",
    "EsConfig",
    "GridMaze",
    "GridMazeSpec",
    "NetConfig",
    "Network",
    "Observation",
    "ReplayBatch",
    "ReplayPolicy",
    "SearchOutcome",
    "StoreDims",
    "SuccessCriterion",
    "TaskDescription",
    "TraceFormatError",
    "TraceStore",
    "Trial",
    "TrialTargets",
    "bptt_gradient",
    "build_targets",
    "check_success",
    "consolidate",
    "corner_tasks",
    "goal_encoding",
    "init_network",
    "load_checkpoint",
    "make_env",
    "perturb",
    "retention_check",
    "run_curriculum",
    "run_trial",
    "run_trials",
    "save_checkpoint",
    "try_solve_task",
]
