"""Stereo image super-resolution with multi-scale large-kernel attention and
optimal-transport cross-view matching."""

import os as _os

# The tensor sizes here are far below the threshold where BLAS threading
# pays off, so a single thread is faster.  Outputs and gradients are
# bit-identical at any thread count, float32 and float64 alike.  Only
# takes effect if numpy has not been imported yet.
_os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .tensor import (  # noqa: E402
    GradTape,
    ShapeError,
    Tensor,
    bilinear_upsample,
    grad_check,
)
from .blocks import LskaBranch, default_branches, mscab_forward  # noqa: E402
from .transport import (  # noqa: E402
    CostVolume,
    NonConvergenceError,
    SinkhornConfig,
    TransportPlan,
    cost_matrix,
    deam_forward,
    sinkhorn,
    sinkhorn_oracle,
)
from .model import (  # noqa: E402
    ModelConfig,
    StereoPair,
    WeightFormatError,
    WeightStore,
    forward,
    init_model,
    load_weights,
    save_weights,
)
from .train import (  # noqa: E402
    TrainingDivergedError,
    cosine_lr,
    lion_step,
    loss_total,
    overfit,
)
from .metrics import psnr, ssim  # noqa: E402
from .images import ImageBuffer, PngError, bicubic_downsample, load_png, save_png  # noqa: E402

__version__ = "0.1.0"

__all__ = [
    "GradTape", "ShapeError", "Tensor",
    "bilinear_upsample", "grad_check",
    "LskaBranch", "default_branches", "mscab_forward",
    "CostVolume", "NonConvergenceError", "SinkhornConfig",
    "TransportPlan", "cost_matrix", "deam_forward", "sinkhorn", "sinkhorn_oracle",
    "ModelConfig", "StereoPair", "WeightFormatError", "WeightStore",
    "forward", "init_model", "load_weights", "save_weights",
    "TrainingDivergedError",
    "cosine_lr", "lion_step", "loss_total", "overfit",
    "psnr", "ssim",
    "ImageBuffer", "PngError", "bicubic_downsample", "load_png", "save_png",
]
