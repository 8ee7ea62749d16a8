"""Desk-scale toolkit for learned rib-implant reconstruction.

Synthetic thorax phantoms, cuboid defect carving, a compact 3-D
encoder-decoder with hand-written gradients, composite reconstruction
losses, and exact surface metrics, all in float64 numpy on one CPU core.
"""

from .defects import (
    DefectSpec,
    EmptyImplantError,
    PipelineConfig,
    PlacementError,
    TrainingCase,
    normalize_ct,
    place_defect,
    prepare_case,
    scaled_defect_size,
    split_case,
    threshold_bone,
)
from .grid import (
    HU,
    UNBOUNDED,
    UNIT,
    BoundsError,
    Box,
    DomainError,
    Mask,
    ShapeError,
    Volume,
    binarize,
    crop,
    trilinear_resize,
)
from .losses import (
    LOSS_KINDS,
    LossReport,
    finite_diff_check,
    loss_gradient,
    loss_value,
    rib_loss,
)
from .manifest import CaseManifest, ManifestError, read_manifest, write_manifest
from .metrics import (
    EmptyMaskError,
    MetricReport,
    brute_force_edt_sq,
    brute_force_hausdorff_sq,
    directed_hausdorff,
    directed_hausdorff_sq,
    dsc,
    edt_sq,
    hausdorff,
    metric_report,
)
from .net import (
    CheckpointError,
    NetConfig,
    NetParams,
    OptState,
    adam_step,
    backward,
    forward,
    init_params,
    load_checkpoint,
    save_checkpoint,
)
from .nifti import NiftiError, VolumeHeader, read_volume, write_volume
from .phantom import GeometryError, PhantomSpec, generate_phantom
from .train import TrainingDivergedError, TrainResult, eval_csv, evaluate, train, train_log_csv

__version__ = "0.1.0"
