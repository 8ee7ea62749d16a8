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
    count_nonzero,
    crop,
    paste,
    trilinear_resize,
    vol_mean,
    vol_sum,
)
from .losses import (
    LOSS_KINDS,
    LossReport,
    dice_loss,
    err_loss,
    finite_diff_check,
    gf_loss,
    loss_gradient,
    loss_value,
    mse_loss,
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
    edt,
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
from .phantom import GeometryError, PhantomSpec, generate_dataset, generate_phantom
from .train import TrainingDivergedError, TrainResult, eval_csv, evaluate, train, train_log_csv

__version__ = "0.1.0"
