"""Intra-view feature blocks: multi-scale spatial-channel attention + SFFN.

Each block (MSCAB) is two residual sub-blocks.  The first (MSCAM) combines
simplified channel attention with multi-scale large-separable-kernel spatial
attention; the second (SFFN) is an activation-free feed-forward.  The only
nonlinearity anywhere is the simple gate (channel-split product).  Each
large-separable-kernel branch is one conv2d chain of its four depthwise
convolutions, so a taped step keeps the branch's input but not its three
inner maps, which the chain's backward rebuilds.
"""

from __future__ import annotations

from dataclasses import dataclass

from .tensor import Tensor, add, conv1x1, conv2d, global_avg_pool, mul, simple_gate

DEFAULT_LSKA_BRANCHES = (
    # small / medium / large effective fields: 7, 23, 35
    (3, 3, 2),
    (5, 7, 3),
    (5, 11, 3),
)

# Largest effective field a branch may have.  It sets the zero padding of
# the dilated convolutions, so a weight file must not choose it freely.
MAX_EFFECTIVE_FIELD = 127


@dataclass(frozen=True)
class LskaBranch:
    """One large-separable-kernel branch.

    Four depthwise convolutions: 1 x base_k, base_k x 1, then a dilated
    1 x dilated_k, dilated_k x 1 pair.  The effective receptive field is
    base_k + (dilated_k - 1) * dilation, kept odd by requiring odd kernels
    and at most MAX_EFFECTIVE_FIELD.
    """

    base_k: int
    dilated_k: int
    dilation: int

    def __post_init__(self):
        if self.base_k < 1 or self.base_k % 2 == 0:
            raise ValueError(f"base_k must be odd and positive, got {self.base_k}")
        if self.dilated_k < 1 or self.dilated_k % 2 == 0:
            raise ValueError(f"dilated_k must be odd and positive, got {self.dilated_k}")
        if self.dilation < 1:
            raise ValueError(f"dilation must be >= 1, got {self.dilation}")
        if self.effective_field > MAX_EFFECTIVE_FIELD:
            raise ValueError(
                f"effective field {self.effective_field} exceeds {MAX_EFFECTIVE_FIELD}"
            )

    @property
    def effective_field(self) -> int:
        return self.base_k + (self.dilated_k - 1) * self.dilation


def default_branches() -> tuple[LskaBranch, ...]:
    return tuple(LskaBranch(*b) for b in DEFAULT_LSKA_BRANCHES)


def _lska_convs(c: int, branch: LskaBranch) -> tuple[tuple[str, tuple, tuple[int, int]], ...]:
    """(name, depthwise weight shape, dilation) of a branch's four convolutions."""
    k, dk, d = branch.base_k, branch.dilated_k, branch.dilation
    return (
        ("local_h", (c, 1, 1, k), (1, 1)),
        ("local_v", (c, 1, k, 1), (1, 1)),
        ("dilated_h", (c, 1, 1, dk), (1, d)),
        ("dilated_v", (c, 1, dk, 1), (d, 1)),
    )


def apply_conv(x: Tensor, p, name: str, dilation=(1, 1)) -> Tensor:
    """conv2d with the weight and bias that ``p`` holds under ``name``."""
    return conv2d(x, p[f"{name}.weight"], p[f"{name}.bias"], dilation)


def apply_conv1x1(x: Tensor, p, name: str, norm: str = "", scale: str = "") -> Tensor:
    """conv1x1 with the kernel and bias that ``p`` holds under ``name``, after
    the layer norm it holds under ``norm``, or scaled by ``p[scale]``, or
    neither."""
    return conv1x1(x, p[f"{name}.weight"], p[f"{name}.bias"],
                   (p[f"{norm}.gain"], p[f"{norm}.shift"]) if norm else None,
                   p[scale] if scale else None)


def sca(y: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Simplified channel attention: pool to per-channel statistics, mix with
    a 1x1 convolution, and rescale the input channels.  No nonlinearity."""
    return mul(y, conv1x1(global_avg_pool(y), w, b))


def _lska_branch(y: Tensor, p, j: int, branch: LskaBranch) -> Tensor:
    """The branch's four convolutions as one conv2d chain, whose record
    keeps only ``y`` and rebuilds the three inner maps in the backward."""
    convs = _lska_convs(y.c, branch)
    names = [f"mscam.lska.{j}.{name}" for name, _, _ in convs]
    return conv2d(y, [p[f"{name}.weight"] for name in names], [p[f"{name}.bias"] for name in names],
                  [dilation for _, _, dilation in convs])


def mslska(y: Tensor, p, branches: tuple[LskaBranch, ...]) -> Tensor:
    """Multi-scale large separable kernel attention: sum the branch outputs,
    mix with a shared 1x1 convolution, and gate the input with the result."""
    if not branches:
        raise ValueError("mslska needs at least one branch")
    acc = _lska_branch(y, p, 0, branches[0])
    for j, branch in enumerate(branches[1:], start=1):
        acc = add(acc, _lska_branch(y, p, j, branch))
    return mul(y, apply_conv1x1(acc, p, "mscam.lska.fuse"))


def mscam(x: Tensor, p, branches: tuple[LskaBranch, ...]) -> Tensor:
    """Attention half of the block: norm, expand, depthwise 3x3, gate, then
    spatial and channel attention in sequence, project, scaled residual.

    ``p`` maps the block's parameter names (see :func:`mscab_layout`) to
    tensors."""
    y = apply_conv1x1(x, p, "mscam.expand", norm="mscam.norm")
    y = apply_conv(y, p, "mscam.dwconv")
    y = simple_gate(y)
    y = mslska(y, p, branches)
    y = sca(y, p["mscam.sca.weight"], p["mscam.sca.bias"])
    return add(x, apply_conv1x1(y, p, "mscam.project", scale="mscam.res_scale"))


def sffn(x: Tensor, p) -> Tensor:
    """Feed-forward half: norm, expand to 2C, gate back to C, project,
    scaled residual."""
    y = simple_gate(apply_conv1x1(x, p, "sffn.expand", norm="sffn.norm"))
    return add(x, apply_conv1x1(y, p, "sffn.project", scale="sffn.res_scale"))


def mscab_forward(x: Tensor, p, branches: tuple[LskaBranch, ...]) -> Tensor:
    """One full block: MSCAM followed by SFFN."""
    return sffn(mscam(x, p, branches), p)


# ---------------------------------------------------------------------------
# Parameter layout
# ---------------------------------------------------------------------------

# Init kind of a layout row drawn uniform(-k, k) with k = 1/sqrt(fan_in);
# every other row names the constant it starts at.
UNIFORM = "uniform"


def conv_rows(name: str, shape: tuple) -> list[tuple]:
    """Layout rows of one convolution with an (out_ch, in_ch, kh, kw)
    kernel: uniform weight, zero bias."""
    return [(f"{name}.weight", shape, UNIFORM), (f"{name}.bias", (1, shape[0], 1, 1), 0.0)]


def norm_rows(name: str, c: int) -> list[tuple]:
    """Layout rows of one layer norm: unit gain, zero shift."""
    return [(f"{name}.gain", (1, c, 1, 1), 1.0), (f"{name}.shift", (1, c, 1, 1), 0.0)]


def mscab_layout(c: int, branches: tuple[LskaBranch, ...]) -> list[tuple]:
    """(name, shape, init kind) rows of one block, in the seeded draw order:
    unit norm gains and residual scales, zero shifts and biases, uniform
    fan-in conv weights."""
    rows = [
        *norm_rows("mscam.norm", c),
        *conv_rows("mscam.expand", (2 * c, c, 1, 1)),
        *conv_rows("mscam.dwconv", (2 * c, 1, 3, 3)),
    ]
    for j, branch in enumerate(branches):
        for name, shape, _ in _lska_convs(c, branch):
            rows += conv_rows(f"mscam.lska.{j}.{name}", shape)
    return rows + [
        *conv_rows("mscam.lska.fuse", (c, c, 1, 1)),
        *conv_rows("mscam.sca", (c, c, 1, 1)),
        *conv_rows("mscam.project", (c, c, 1, 1)),
        ("mscam.res_scale", (1, c, 1, 1), 1.0),
        *norm_rows("sffn.norm", c),
        *conv_rows("sffn.expand", (2 * c, c, 1, 1)),
        *conv_rows("sffn.project", (c, c, 1, 1)),
        ("sffn.res_scale", (1, c, 1, 1), 1.0),
    ]
