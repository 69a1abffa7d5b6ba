"""FutureWorld: a live future-prediction environment engine.

Generates balanced streams of binary prediction questions, runs tool-using
agent rollouts against them, stores prediction-time trajectory prefixes,
backfills outcome labels and rewards after scheduled resolution, exports
group-relative training batches, and scores agents on probabilistic and
benchmark metrics. The whole loop runs as a deterministic closed-loop
simulation at desk scale.
"""

from .domain import (
    CandidateEvent,
    Outcome,
    Question,
    QuestionDescriptionPair,
    Step,
    Trajectory,
    TrajectoryStatus,
)
from .ledger import TrajectoryLedger, compute_group_advantages
from .orchestrator import CycleConfig, Orchestrator
from .rollout import AgentMove, RolloutLimits, parse_final_probability, run_group, run_rollout
from .scoring import (
    ChoiceAnswer,
    NumericAnswer,
    ProbPrediction,
    ScoreReport,
    accuracy,
    bootstrap_ci,
    brier,
    ece,
    f1_choice,
    numeric_score,
    overall,
    trajectory_reward,
)

__version__ = "0.1.0"

__all__ = [
    "AgentMove",
    "CandidateEvent",
    "ChoiceAnswer",
    "CycleConfig",
    "NumericAnswer",
    "Orchestrator",
    "Outcome",
    "ProbPrediction",
    "Question",
    "QuestionDescriptionPair",
    "RolloutLimits",
    "ScoreReport",
    "Step",
    "Trajectory",
    "TrajectoryLedger",
    "TrajectoryStatus",
    "accuracy",
    "bootstrap_ci",
    "brier",
    "compute_group_advantages",
    "ece",
    "f1_choice",
    "numeric_score",
    "overall",
    "parse_final_probability",
    "run_group",
    "run_rollout",
    "trajectory_reward",
]
