"""Exact wisdom-of-crowds analysis under squared-error loss.

Decides whether a linearly aggregated crowd of judges beats a
probabilistically selected individual, constructs the weights that make any
crowd wise, and quantifies the accuracy-diversity trade-off of adding
members.  Everything is computed from first and second moments only; a
seeded Monte Carlo oracle verifies the analytic quantities by simulation.
"""

from .diversity import (
    CandidateEvaluation,
    CandidateMember,
    CandidateRanking,
    extend_model,
    rank_candidates,
)
from .model import (
    CrowdModel,
    JudgmentSample,
    estimate_model,
    fixed_criterion_model,
    validate_model,
)
from .montecarlo import (
    SimulationResult,
    SimulationSpec,
    random_model,
    simulate,
)
from .schemes import (
    QPSolution,
    best_member_selection,
    inverse_mse_weights,
    optimal_weights,
    skill_scores,
    skill_selection,
    skill_weights,
    uniform_selection,
    uniform_weights,
)
from .wisdom import (
    CrowdMse,
    WeightVector,
    WisdomReport,
    crowd_mse,
    evaluate,
    per_judge_mse,
)

__version__ = "0.1.0"

__all__ = [
    "CandidateEvaluation",
    "CandidateMember",
    "CandidateRanking",
    "CrowdModel",
    "CrowdMse",
    "JudgmentSample",
    "QPSolution",
    "SimulationResult",
    "SimulationSpec",
    "WeightVector",
    "WisdomReport",
    "best_member_selection",
    "crowd_mse",
    "estimate_model",
    "evaluate",
    "extend_model",
    "fixed_criterion_model",
    "inverse_mse_weights",
    "optimal_weights",
    "per_judge_mse",
    "random_model",
    "rank_candidates",
    "simulate",
    "skill_scores",
    "skill_selection",
    "skill_weights",
    "uniform_selection",
    "uniform_weights",
    "validate_model",
]
