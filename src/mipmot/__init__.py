"""Online 3D multi-object tracking with DIoU affinities and exact MIP
data association."""

from .affinity import AffinityMatrix, compute_affinities, softmax_ranking
from .association import (
    AssociationProblem,
    AssociationResult,
    hungarian_baseline,
    solve_mip,
)
from .config import TrackerConfig
from .evaluation import MotReport, evaluate_sequence, aggregate_reports
from .geometry import bev_iou
from .io_formats import Detection, DetectionBatch
from .motion import kf_init, kf_predict, kf_update
from .simgen import ScenarioConfig, generate, scenario_template
from .tracker import FrameResult, Tracker, run_sequence

__version__ = "0.1.0"

__all__ = [
    "AffinityMatrix",
    "AssociationProblem",
    "AssociationResult",
    "Detection",
    "DetectionBatch",
    "FrameResult",
    "MotReport",
    "ScenarioConfig",
    "Tracker",
    "TrackerConfig",
    "aggregate_reports",
    "bev_iou",
    "compute_affinities",
    "evaluate_sequence",
    "generate",
    "hungarian_baseline",
    "kf_init",
    "kf_predict",
    "kf_update",
    "run_sequence",
    "scenario_template",
    "softmax_ranking",
    "solve_mip",
]
