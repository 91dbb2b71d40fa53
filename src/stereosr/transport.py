"""Cross-view epipolar attention via entropic optimal transport.

For each batch item and image row, the left/right feature columns are
scored against each other (scaled dot product), and the score matrix is
normalized with Sinkhorn iterations instead of a softmax.  The result is an
approximately doubly stochastic transport plan: rows sum to 1 exactly after
the final row update, columns converge toward 1 with more iterations.

The normalization is one tape primitive, computed in one of two forms of the
same function.  The scaling form (Cuturi 2013) exponentiates the scores once
and then alternates batched mat-vecs; it runs whenever every row matrix of
the call spans at most ``SCALING_MAX_RANGE``.  A call with a wider row
matrix runs the log-domain iterations (Schmitzer 2019), which cannot
overflow but exponentiate the whole volume twice per iteration.  Either way
the primitive keeps only per-iteration vectors, so on a tape it holds two
cost-sized volumes (the scores and the plan) however many iterations it
runs.  Fusion mixes features across views through the plan, scaled by
per-channel weights that start at zero so the module is the identity at
initialization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .blocks import _conv1x1, apply_conv, conv_rows, norm_rows
from .tensor import (
    ShapeError,
    Tensor,
    _record,
    add,
    batched_matmul,
    layer_norm,
    mul,
    transpose,
)

# Sinkhorn iterations per normalization.  The forward keeps two duals per
# iteration, so the cap bounds memory as well as work.
MAX_SINKHORN_ITERS = 1000

# Widest score range (max - min over one w x w row matrix) that the scaling
# form of ``sinkhorn`` takes.  Its vectors and the backward's rank-1
# products grow like exp(range) / w, and float32 overflows at exp(88.7), so
# a call with any wider row matrix runs in the log domain instead.
SCALING_MAX_RANGE = 80.0


class NonConvergenceError(ArithmeticError):
    """The verification solver did not reach its tolerance within the cap."""


@dataclass(frozen=True)
class CostVolume:
    """Per-row match scores between left and right feature columns.

    ``values`` has shape (n, rows, w, w); entry (i, j) scores left column i
    against right column j on the same row.  Higher means a stronger match.
    The 1/sqrt(channels) scale is already applied.
    """

    values: Tensor


@dataclass(frozen=True)
class TransportPlan:
    """Nonnegative per-row coupling matrices, shape (n, rows, w, w)."""

    values: Tensor

    def row_sums(self) -> np.ndarray:
        return self.values.data.sum(axis=3)

    def col_sums(self) -> np.ndarray:
        return self.values.data.sum(axis=2)


@dataclass(frozen=True)
class SinkhornConfig:
    """Iteration count for the normalization.

    Marginals are uniform 1/w per row; the converged coupling is rescaled by
    w so returned plans have unit row/column sums.
    """

    iters: int = 10

    def __post_init__(self):
        if not 1 <= self.iters <= MAX_SINKHORN_ITERS:
            raise ValueError(f"iters must be in [1, {MAX_SINKHORN_ITERS}], got {self.iters}")


def cost_matrix(u_l: Tensor, u_r: Tensor) -> CostVolume:
    """Scaled per-row similarity: M[h] = rowsL(h) @ rowsR(h)^T / sqrt(c).

    Both inputs are (n, c, h, w) feature maps of identical shape.
    """
    if u_l.shape != u_r.shape:
        raise ShapeError(f"feature shapes differ: {u_l.shape} vs {u_r.shape}")
    c = u_l.c
    rows_l = transpose(u_l, (0, 2, 3, 1))        # (n, h, w, c)
    rows_r = transpose(u_r, (0, 2, 1, 3))        # (n, h, c, w)
    scores = mul(batched_matmul(rows_l, rows_r), 1.0 / math.sqrt(c))
    return CostVolume(values=scores)


def _dual_update(scores: np.ndarray, dual: np.ndarray, axis: int, work: np.ndarray,
                 log_w) -> np.ndarray:
    """-log w - LSE_axis(scores + dual), max-shifted, computed in ``work``.

    The numpy operations and their order are those of ``tensor.logsumexp``
    followed by ``add`` and ``neg``, so the result is bit-identical to that
    composition.
    """
    np.add(scores, dual, out=work)
    top = work.max(axis=axis, keepdims=True)
    work -= top
    np.exp(work, out=work)
    out = np.log(work.sum(axis=axis, keepdims=True))
    out += top
    out += log_w
    return np.negative(out, out=out)


def _pull_dual_update(scores: np.ndarray, dual_in: np.ndarray, dual_out: np.ndarray,
                      cot: np.ndarray, axis: int, work: np.ndarray, grad: np.ndarray,
                      log_w) -> np.ndarray:
    """Backward of ``dual_out = -log w - LSE(scores + dual_in)``.

    The update's softmax is exp(scores + dual_in + dual_out + log w).  Adds
    the scores' share of the pullback of ``cot`` to ``grad`` and returns the
    cotangent of ``dual_in``, which is broadcast along ``axis``.
    """
    np.add(scores, dual_in, out=work)
    work += dual_out
    work += log_w
    np.exp(work, out=work)
    work *= cot
    grad -= work
    return -work.sum(axis=axis, keepdims=True)


def _log_domain_sinkhorn(m: CostVolume, cfg: SinkhornConfig) -> TransportPlan:
    """Log-domain Sinkhorn normalization of a cost volume, as one primitive.

    Per row: duals start at zero, then for each iteration the column dual is
    refreshed from a column-wise logsumexp and the row dual from a row-wise
    one (columns first), and the plan is exp(M + u + v + log w).  All
    updates are overflow-safe for any finite scores.

    The forward reuses one work volume in place and keeps only the duals
    u_0..u_K and v_1..v_K.  The backward is the gradient of the unrolled
    iterations: it replays them in reverse, rebuilding each update's
    softmax from the scores and the two duals it links.
    """
    scores = m.values
    s = scores.data
    n, rows, _, w = s.shape
    log_w = s.dtype.type(math.log(w))
    work = np.empty_like(s)
    us = [np.zeros((n, rows, w, 1), dtype=s.dtype)]
    vs = []
    for _ in range(cfg.iters):
        # log marginal is -log w on both sides: v = -log w - LSE_i(M + u)
        vs.append(_dual_update(s, us[-1], 2, work, log_w))
        us.append(_dual_update(s, vs[-1], 3, work, log_w))
    np.add(s, us[-1], out=work)
    work += vs[-1]
    work += log_w
    plan = Tensor(np.exp(work, out=work))

    def bwd(g):
        grad = g * plan.data
        gu = grad.sum(axis=3, keepdims=True)
        gv = grad.sum(axis=2, keepdims=True)
        work = np.empty_like(s)
        for k in reversed(range(cfg.iters)):
            # vs[k] feeds us[k + 1] = -log w - LSE_j(M + vs[k]) and, last, the plan
            gv += _pull_dual_update(s, vs[k], us[k + 1], gu, 2, work, grad, log_w)
            # us[k] feeds vs[k] = -log w - LSE_i(M + us[k]) and nothing later
            gu = _pull_dual_update(s, us[k], vs[k], gv, 3, work, grad, log_w)
            gv = np.zeros_like(gv)
        return (grad,)

    _record("sinkhorn", (scores,), plan, bwd)
    return TransportPlan(values=plan)


def sinkhorn(m: CostVolume, cfg: SinkhornConfig = SinkhornConfig()) -> TransportPlan:
    """Sinkhorn normalization of a cost volume, as one tape primitive.

    Per row matrix M (w x w) the plan is that of ``cfg.iters`` log-domain
    Sinkhorn iterations from zero duals, columns first: rows sum to 1
    exactly (up to rounding) and columns converge toward 1.

    When every row matrix spans at most ``SCALING_MAX_RANGE`` it runs in
    the scaling domain (Cuturi 2013), the same function with one ``exp``:
    K = exp(M - max M), then b = 1 / (w K^T a) and a = 1 / (w K b) from
    a = 1, and the plan w * a_i K_ij b_j, built in place over K.  The
    backward is the gradient of the unrolled iterations.  It rebuilds K
    from the scores and pulls the cotangents alpha = a * da and
    beta = b * db back through the mat-vecs; every iteration adds two
    rank-1 terms to the scores' gradient, and all of them are applied at
    once as K * (U V), one batched matrix product.  Only the vectors
    a_0..a_K and b_1..b_K are held, so on a tape the primitive keeps two
    cost-sized volumes (the scores and the plan).

    A call with a wider row matrix anywhere runs the log-domain iterations
    instead (the stabilized form of Schmitzer 2019), whose updates cannot
    overflow.
    """
    scores = m.values
    s = scores.data
    n, rows, h, w = s.shape
    if h != w:
        raise ShapeError(f"cost volume must be square per row, got {s.shape}")
    top = s.max(axis=(2, 3), keepdims=True)
    kernel = np.subtract(s, top)
    if -kernel.min(initial=0.0) > SCALING_MAX_RANGE:
        return _log_domain_sinkhorn(m, cfg)
    np.exp(kernel, out=kernel)
    kernel_t = kernel.swapaxes(2, 3)
    a = [np.ones((n, rows, w, 1), dtype=s.dtype)]
    b = []
    for _ in range(cfg.iters):
        b.append(_scaling_update(kernel_t, a[-1], w))
        a.append(_scaling_update(kernel, b[-1], w))
    kernel *= w * a[-1]
    kernel *= b[-1].swapaxes(2, 3)
    plan = Tensor(kernel)

    def bwd(g):
        grad = g * plan.data
        alpha = grad.sum(axis=3, keepdims=True)
        beta = grad.sum(axis=2, keepdims=True).swapaxes(2, 3)
        kernel = np.subtract(s, top)
        np.exp(kernel, out=kernel)
        kernel_t = kernel.swapaxes(2, 3)
        # the scores' share of each update is -w K * (x y^T); rows 2k and
        # 2k + 1 of ``left`` and ``right`` hold x and y of a_{k+1} and b_k
        left = np.empty((n, rows, 2 * cfg.iters, w), dtype=s.dtype)
        right = np.empty_like(left)
        for k in reversed(range(cfg.iters)):
            # b_k feeds a_{k+1} = 1 / (w K b_k) and, last, the plan
            pulled = a[k + 1] * alpha
            left[:, :, 2 * k] = pulled[..., 0]
            right[:, :, 2 * k] = b[k][..., 0]
            beta -= w * b[k] * np.matmul(kernel_t, pulled)
            # a_k feeds b_k = 1 / (w K^T a_k) and nothing later
            pulled = b[k] * beta
            left[:, :, 2 * k + 1] = a[k][..., 0]
            right[:, :, 2 * k + 1] = pulled[..., 0]
            alpha = -w * a[k] * np.matmul(kernel, pulled)
            beta = np.zeros_like(beta)
        left *= w
        terms = np.matmul(left.swapaxes(2, 3), right)
        terms *= kernel
        grad -= terms
        return (grad,)

    _record("sinkhorn", (scores,), plan, bwd)
    return TransportPlan(values=plan)


def _scaling_update(kernel: np.ndarray, other: np.ndarray, w: int) -> np.ndarray:
    """1 / (w * kernel @ other): one scaling vector from the other, as
    (n, rows, w, 1) columns."""
    out = np.matmul(kernel, other)
    out *= w
    return np.reciprocal(out, out=out)


def sinkhorn_oracle(m: CostVolume, tol: float = 1e-9,
                    max_iters: int = 10000) -> TransportPlan:
    """Independent verification solver: scaling-vector Sinkhorn in float64.

    Alternates the closed-form updates r = 1 / (K c) and c = 1 / (K^T r)
    with K = exp(M), targeting unit marginals directly, until the largest
    row/column-sum violation drops below ``tol``.  Suitable only for bounded
    scores (K is formed explicitly); not differentiable, not part of the
    forward path.
    """
    scores = m.values.data.astype(np.float64)
    if scores.shape[2] != scores.shape[3]:
        raise ShapeError(f"cost volume must be square per row, got {scores.shape}")
    kernel = np.exp(scores)
    n, rows, w, _ = scores.shape
    r = np.ones((n, rows, w, 1))
    c = np.ones((n, rows, w, 1))
    violation = math.inf
    for _ in range(max_iters):
        r = 1.0 / np.matmul(kernel, c)
        c = 1.0 / np.matmul(kernel.swapaxes(2, 3), r)
        plan = r * kernel * c.swapaxes(2, 3)
        violation = max(
            np.abs(plan.sum(axis=3) - 1.0).max(),
            np.abs(plan.sum(axis=2) - 1.0).max(),
        )
        if violation < tol:
            return TransportPlan(values=Tensor(plan))
    raise NonConvergenceError(
        f"marginal violation {violation:.3e} above {tol:.1e} after {max_iters} iterations"
    )


def deam_forward(x_l: Tensor, x_r: Tensor, p,
                 cfg: SinkhornConfig = SinkhornConfig()) -> tuple[Tensor, Tensor, TransportPlan]:
    """One cross-view interaction: match, transport, fuse.

    Match features come from a 1x1 projection of the normalized inputs,
    value features from a 1x1 projection of the raw inputs.  The transport
    plan moves right values to left positions (and its transpose the other
    way); each view adds the transported features scaled per channel.
    Returns the fused pair and the plan.  ``p`` maps the stage's parameter
    names (see :func:`deam_layout`) to tensors.
    """
    if x_l.shape != x_r.shape:
        raise ShapeError(f"view shapes differ: {x_l.shape} vs {x_r.shape}")
    c = x_l.c
    spec = _conv1x1(c, c)
    match_l = apply_conv(layer_norm(x_l, p["norm_l.gain"], p["norm_l.shift"]), spec, p, "match_l")
    match_r = apply_conv(layer_norm(x_r, p["norm_r.gain"], p["norm_r.shift"]), spec, p, "match_r")
    value_l = apply_conv(x_l, spec, p, "value_l")
    value_r = apply_conv(x_r, spec, p, "value_r")

    plan = sinkhorn(cost_matrix(match_l, match_r), cfg)
    t = plan.values

    rows_value_r = transpose(value_r, (0, 2, 3, 1))              # (n, h, w, c)
    rows_value_l = transpose(value_l, (0, 2, 3, 1))
    to_left = transpose(batched_matmul(t, rows_value_r), (0, 3, 1, 2))
    to_right = transpose(
        batched_matmul(transpose(t, (0, 1, 3, 2)), rows_value_l), (0, 3, 1, 2)
    )

    f_l = add(x_l, mul(p["fuse_scale_l"], to_left))
    f_r = add(x_r, mul(p["fuse_scale_r"], to_right))
    return f_l, f_r, plan


# ---------------------------------------------------------------------------
# Parameter layout
# ---------------------------------------------------------------------------

def deam_layout(c: int) -> list[tuple]:
    """(name, shape, init kind) rows of one stage, in the seeded draw order.

    ``fuse_scale_l`` / ``fuse_scale_r`` are the per-channel mixing scales on
    the transported features; both start at zero so a fresh stage passes
    its inputs through unchanged.
    """
    rows = norm_rows("norm_l", c) + norm_rows("norm_r", c)
    for name in ("match_l", "match_r", "value_l", "value_r"):
        rows += conv_rows(name, _conv1x1(c, c))
    return rows + [("fuse_scale_l", (1, c, 1, 1), 0.0), ("fuse_scale_r", (1, c, 1, 1), 0.0)]
