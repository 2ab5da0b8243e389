"""Anchor-free detection geometry: corner-distance box coding, all-scale
center assignment, distance-space IoU losses with analytic gradients, and
inference post-processing, with a synthetic fitting harness for
verification."""

from .assign import (
    AssignMode,
    AssignmentError,
    AssignmentRecord,
    AssignmentTable,
    apply_scale_constraints,
    assign,
    assign_scenes,
    center_collision_audit,
)
from .codec import (
    CodecError,
    RegressionTarget,
    ScaleConfig,
    center_cell,
    decode_distances,
    encode,
    encode_logit_array,
)
from .fit import (
    FitConfig, FitReport, SceneSpec, compare_losses, fit_scene, fit_scenes, generate_scene,
)
from .geom import BoundingBox, CornerBox, GeometryError, giou, iou, to_corner
from .infer import (
    Detection,
    DetectionTable,
    DecodeResult,
    PredictionGrid,
    decode_grid,
    detections_from_jsonl,
    detections_to_jsonl,
    nms,
)
from .ingest import CocoFormatError, CocoLoadResult, Scene, dataset_stats, load_coco
from .losses import (
    DegenerateGeometryError,
    bce_with_logits,
    logit_loss_grad,
    regression_loss_grad,
    sdiou_loss,
)

__version__ = "0.1.0"

__all__ = [
    "AssignMode",
    "AssignmentError",
    "AssignmentRecord",
    "AssignmentTable",
    "BoundingBox",
    "CocoFormatError",
    "CocoLoadResult",
    "CodecError",
    "CornerBox",
    "DecodeResult",
    "DegenerateGeometryError",
    "Detection",
    "DetectionTable",
    "FitConfig",
    "FitReport",
    "GeometryError",
    "PredictionGrid",
    "RegressionTarget",
    "ScaleConfig",
    "Scene",
    "SceneSpec",
    "apply_scale_constraints",
    "assign",
    "assign_scenes",
    "bce_with_logits",
    "center_cell",
    "center_collision_audit",
    "compare_losses",
    "dataset_stats",
    "decode_distances",
    "decode_grid",
    "detections_from_jsonl",
    "detections_to_jsonl",
    "encode",
    "encode_logit_array",
    "fit_scene",
    "fit_scenes",
    "generate_scene",
    "giou",
    "iou",
    "load_coco",
    "logit_loss_grad",
    "nms",
    "regression_loss_grad",
    "sdiou_loss",
    "to_corner",
]
