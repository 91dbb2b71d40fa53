"""Cross-view epipolar attention via entropic optimal transport.

For each batch item and image row, the left/right feature columns are
scored against each other (scaled dot product), and the score matrix is
normalized with Sinkhorn iterations instead of a softmax.  The result is an
approximately doubly stochastic transport plan: rows sum to 1 exactly after
the final row update, columns converge toward 1 with more iterations.

The normalization computes one function in one of two forms.  The scaling
form (Cuturi 2013) exponentiates the scores once and then alternates
batched mat-vecs, as one tape primitive; it runs whenever every row matrix
of the call spans at most ``SCALING_MAX_RANGE``.  A call with a wider row
matrix runs the log-domain iterations (Schmitzer 2019), which cannot
overflow but exponentiate the whole volume twice per iteration; each of
its dual updates and its plan is a primitive with a local backward.  Either
way the records keep only per-iteration vectors besides the plan, so on a
tape the normalization holds two cost-sized volumes (the scores and the
plan) however many iterations it runs.  Fusion mixes features across views
through the plan, scaled by per-channel weights that start at zero so the
module is the identity at initialization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .blocks import apply_conv1x1, conv_rows, norm_rows
from .tensor import ShapeError, Tensor, _record, _unbroadcast, add

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


def _rows(x: np.ndarray) -> np.ndarray:
    """(n, h, c, w) view of an (n, c, h, w) array: one c x w matrix per
    image row, strided so ``np.matmul`` reads it without a copy."""
    return x.swapaxes(1, 2)


def _row_product(a: np.ndarray, b: np.ndarray, shape: tuple) -> np.ndarray:
    """A fresh (n, c, h, w) array whose row matrices are ``a @ b``."""
    out = np.empty(shape, dtype=np.result_type(a, b))
    np.matmul(a, b, out=_rows(out))
    return out


def cost_matrix(u_l: Tensor, u_r: Tensor) -> CostVolume:
    """Scaled per-row similarity as one tape primitive: with row h of each
    (n, c, h, w) feature map a c x w matrix, M[h] = L(h)^T @ R(h) / sqrt(c).
    """
    if u_l.shape != u_r.shape:
        raise ShapeError(f"feature shapes differ: {u_l.shape} vs {u_r.shape}")
    k = u_l.dtype.type(1.0 / math.sqrt(u_l.c))
    rows_l, rows_r = _rows(u_l.data), _rows(u_r.data)
    scores = np.matmul(rows_l.swapaxes(2, 3), rows_r)
    scores *= k
    out = Tensor(scores)

    def bwd(g):
        du_l = _row_product(rows_r, g.swapaxes(2, 3), u_l.shape)
        du_r = _row_product(rows_l, g, u_r.shape)
        du_l *= k
        du_r *= k
        return du_l, du_r

    _record("cost_matrix", (u_l, u_r), out, bwd)
    return CostVolume(values=out)


def carry(plan: Tensor, values: Tensor, to_left: bool) -> Tensor:
    """Move (n, c, h, w) value features along each row through a plan.

    With P the (w, w) plan of a row, ``to_left`` gathers right values at
    left columns, out[:, i] = sum_j P[i, j] v[:, j]; otherwise it gathers
    left values at right columns through P^T, out[:, j] = sum_i P[i, j] v[:, i].
    """
    n, c, h, w = values.shape
    if plan.shape != (n, h, w, w):
        raise ShapeError(f"plan shaped {plan.shape}, values need {(n, h, w, w)}")
    p = plan.data
    rows_v = _rows(values.data)
    out = Tensor(_row_product(rows_v, p.swapaxes(2, 3) if to_left else p, values.shape))

    def bwd(g):
        rows_g = _rows(g)
        dv = _row_product(rows_g, p if to_left else p.swapaxes(2, 3), values.shape)
        a, b = (rows_g, rows_v) if to_left else (rows_v, rows_g)
        return np.matmul(a.swapaxes(2, 3), b), dv

    _record("carry", (plan, values), out, bwd)
    return out


def _dual_update(scores: Tensor, dual: Tensor, axis: int) -> Tensor:
    """-log w - LSE_axis(scores + dual), max-shifted, as a tape primitive.

    The numpy operations and their order are those of ``tensor.logsumexp``
    followed by ``add`` and ``mul`` by -1, so the result is bit-identical
    to that composition.  The backward rebuilds the update's softmax
    S = exp(scores + dual + out + log w) in a fresh volume, so the record
    holds only vectors besides the scores.
    """
    s, d = scores.data, dual.data
    log_w = s.dtype.type(math.log(s.shape[3]))
    work = np.add(s, d)
    top = work.max(axis=axis, keepdims=True)
    work -= top
    np.exp(work, out=work)
    lse = np.log(work.sum(axis=axis, keepdims=True))
    lse += top
    lse += log_w
    out = Tensor(np.negative(lse, out=lse))

    def bwd(g):
        grad = np.add(s, d)
        grad += out.data
        grad += log_w
        np.exp(grad, out=grad)
        grad *= g
        np.negative(grad, out=grad)
        return grad, _unbroadcast(grad, d.shape)

    _record("sinkhorn", (scores, dual), out, bwd)
    return out


def _log_domain_sinkhorn(m: CostVolume, cfg: SinkhornConfig) -> TransportPlan:
    """Log-domain Sinkhorn normalization of a cost volume.

    Per row: duals start at zero, then for each iteration the column dual is
    refreshed from a column-wise logsumexp and the row dual from a row-wise
    one (columns first), and the plan is exp(M + u + v + log w).  All
    updates are overflow-safe for any finite scores.  Each update and the
    plan is a primitive with a local backward, so the tape's reverse replay
    of the 2 * iters + 1 records is the gradient of the unrolled iterations.
    """
    scores = m.values
    s = scores.data
    n, rows, _, w = s.shape
    u = Tensor(np.zeros((n, rows, w, 1), dtype=s.dtype))
    for _ in range(cfg.iters):
        # log marginal is -log w on both sides: v = -log w - LSE_i(M + u)
        v = _dual_update(scores, u, 2)
        u = _dual_update(scores, v, 3)
    work = np.add(s, u.data)
    work += v.data
    work += s.dtype.type(math.log(w))
    plan = Tensor(np.exp(work, out=work))

    def bwd(g):
        grad = g * plan.data
        return grad, _unbroadcast(grad, u.shape), _unbroadcast(grad, v.shape)

    _record("sinkhorn", (scores, u, v), plan, bwd)
    return TransportPlan(values=plan)


def sinkhorn(m: CostVolume, cfg: SinkhornConfig = SinkhornConfig()) -> TransportPlan:
    """Sinkhorn normalization of a cost volume.

    Per row matrix M (w x w) the plan is that of ``cfg.iters`` log-domain
    Sinkhorn iterations from zero duals, columns first: rows sum to 1
    exactly (up to rounding) and columns converge toward 1.

    When every row matrix spans at most ``SCALING_MAX_RANGE`` it runs in
    the scaling domain (Cuturi 2013), the same function with one ``exp``,
    as one tape primitive: K = exp(M - max M), then b = 1 / (w K^T a) and
    a = 1 / (w K b) from a = 1, and the plan w * a_i K_ij b_j, built in
    place over K.  The backward is the gradient of the unrolled
    iterations.  It rebuilds K from the scores and pulls the cotangents
    alpha = a * da and beta = b * db back through the mat-vecs; every
    iteration adds two rank-1 terms to the scores' gradient, and all of
    them are applied at once as K * (U V), one batched matrix product.
    Only the vectors a_0..a_K and b_1..b_K are held, so on a tape the
    primitive keeps two cost-sized volumes (the scores and the plan).

    A call with a wider row matrix anywhere runs the log-domain iterations
    instead (the stabilized form of Schmitzer 2019), whose updates cannot
    overflow.  There each update and the plan is a primitive with a local
    backward: 2 * iters + 1 records, all named ``sinkhorn``, that hold the
    same two volumes.
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
    match_l = apply_conv1x1(x_l, p, "match_l", norm="norm_l")
    match_r = apply_conv1x1(x_r, p, "match_r", norm="norm_r")
    # f * carry(P, v) = carry(P, f * v): each fusion scale acts on the other view's values
    value_l = apply_conv1x1(x_l, p, "value_l", scale="fuse_scale_r")
    value_r = apply_conv1x1(x_r, p, "value_r", scale="fuse_scale_l")

    plan = sinkhorn(cost_matrix(match_l, match_r), cfg)
    f_l = add(x_l, carry(plan.values, value_r, to_left=True))
    f_r = add(x_r, carry(plan.values, value_l, to_left=False))
    return f_l, f_r, plan


# ---------------------------------------------------------------------------
# Parameter layout
# ---------------------------------------------------------------------------

def deam_layout(c: int) -> list[tuple]:
    """(name, shape, init kind) rows of one stage, in the seeded draw order.

    ``fuse_scale_l`` / ``fuse_scale_r`` are the per-channel mixing scales on
    the transported features; both start at zero so a fresh stage passes
    its inputs through unchanged.

    ``norm_l.shift`` and ``match_l.bias`` never train: they reach the scores
    only through W_l s_l + b_l, a constant per column of each row's scores
    that the first column-dual update absorbs exactly.  The right pair's
    row offset is absorbed only as the iterations converge.
    """
    rows = norm_rows("norm_l", c) + norm_rows("norm_r", c)
    for name in ("match_l", "match_r", "value_l", "value_r"):
        rows += conv_rows(name, (c, c, 1, 1))
    return rows + [("fuse_scale_l", (1, c, 1, 1), 0.0), ("fuse_scale_r", (1, c, 1, 1), 0.0)]
