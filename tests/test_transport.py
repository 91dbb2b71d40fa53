"""Optimal-transport attention: marginal guarantees, oracle agreement,
fusion semantics, and differentiability."""

import math
from collections import Counter

import numpy as np
import pytest

from stereosr import tensor as tz
from stereosr import transport as ot
from stereosr.model import init_params
from stereosr.tensor import Tensor
from stereosr.transport import CostVolume, SinkhornConfig, TransportPlan


def random_cost(shape, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    return CostVolume(values=Tensor((rng.normal(size=shape) * scale).astype(np.float32)))


def entropic_objective(plan: np.ndarray, scores: np.ndarray) -> float:
    """sum(T * M) - E(T) with E(T) = sum(T * (log T - 1)); 0 log 0 = 0."""
    ent = np.where(plan > 0, plan * (np.log(np.where(plan > 0, plan, 1.0)) - 1.0), 0.0)
    return float((plan * scores).sum() - ent.sum())


def random_doubly_stochastic(w, rng, terms=6):
    """Convex combination of permutation matrices."""
    weights = rng.dirichlet(np.ones(terms))
    out = np.zeros((w, w))
    for coeff in weights:
        perm = rng.permutation(w)
        out[np.arange(w), perm] += coeff
    return out


def _sinkhorn_unrolled(m: CostVolume, cfg: SinkhornConfig) -> Tensor:
    """The plan as a composition of taped primitives, one record per step:
    the form ``sinkhorn`` replaces, kept as its forward and gradient oracle."""
    scores = m.values
    n, rows, w, _ = scores.shape
    log_w = tz.full((1, 1, 1, 1), math.log(w), dtype=scores.dtype)
    neg = tz.full((1, 1, 1, 1), -1.0, dtype=scores.dtype)
    u = tz.zeros((n, rows, w, 1), dtype=scores.dtype)
    v = tz.zeros((n, rows, 1, w), dtype=scores.dtype)
    for _ in range(cfg.iters):
        v = tz.mul(tz.add(tz.logsumexp(tz.add(scores, u), axis=2), log_w), neg)
        u = tz.mul(tz.add(tz.logsumexp(tz.add(scores, v), axis=3), log_w), neg)
    return tz.exp(tz.add(tz.add(tz.add(scores, u), v), log_w))


def _plan_and_gradient(plan_fn, scores: Tensor, cot: np.ndarray):
    with tz.GradTape() as tape:
        plan = plan_fn(scores)
    (grad,) = tape.gradients(plan, [scores], cot)
    return plan.data, grad


def _against_log_domain(scores: Tensor, cot: np.ndarray, iters: int):
    """Plan and gradient of the public ``sinkhorn``, then of the log-domain
    primitive it falls back to."""
    cfg = SinkhornConfig(iters=iters)
    plan, grad = _plan_and_gradient(
        lambda s: ot.sinkhorn(CostVolume(values=s), cfg).values, scores, cot)
    plan_ref, grad_ref = _plan_and_gradient(
        lambda s: ot._log_domain_sinkhorn(CostVolume(values=s), cfg).values, scores, cot)
    return plan, grad, plan_ref, grad_ref


def _score_layout(layout: str, span: float, shape, rng) -> np.ndarray:
    """Float64 scores whose every trailing (w, w) matrix spans exactly ``span``:
    a ramp over rows or columns plus a little noise, a sharp diagonal, or
    uniform noise."""
    w = shape[-1]
    ramp = np.linspace(0.0, 1.0, w)
    noise = rng.uniform(size=shape)
    s = {
        "row_offset": ramp[:, None] + 0.05 * noise,
        "column_offset": ramp[None, :] + 0.05 * noise,
        "sharp_diagonal": np.broadcast_to(np.eye(w), shape),
        "uniform": noise,
    }[layout]
    s = s - s.min(axis=(-2, -1), keepdims=True)
    return s * (span / s.max(axis=(-2, -1), keepdims=True))


class TestFusedSinkhorn:
    @pytest.mark.parametrize("dtype, rtol", [(np.float32, 1e-5), (np.float64, 1e-6)])
    @pytest.mark.parametrize("iters", [1, 2, 10])
    @pytest.mark.parametrize("batch", [1, 2])
    def test_matches_unrolled_composition(self, dtype, rtol, iters, batch):
        rng = np.random.default_rng(100 + 10 * iters + batch)
        scores = Tensor((rng.normal(size=(batch, 3, 7, 7)) * 3.0).astype(dtype))
        cot = rng.normal(size=scores.shape).astype(dtype)
        cfg = SinkhornConfig(iters=iters)
        plan, grad = _plan_and_gradient(
            lambda s: ot._log_domain_sinkhorn(CostVolume(values=s), cfg).values, scores, cot)
        plan_ref, grad_ref = _plan_and_gradient(
            lambda s: _sinkhorn_unrolled(CostVolume(values=s), cfg), scores, cot)
        assert plan.dtype == dtype and grad.dtype == dtype
        assert np.array_equal(plan, plan_ref)
        rel = np.abs(grad - grad_ref).max() / np.abs(grad_ref).max()
        assert rel < rtol

    @pytest.mark.parametrize("dtype, plan_tol, grad_tol",
                             [(np.float32, 5e-6, 1e-5), (np.float64, 1e-12, 1e-9)])
    @pytest.mark.parametrize("iters", [1, 2, 10])
    @pytest.mark.parametrize("batch", [1, 2])
    def test_scaling_form_matches_log_domain(self, dtype, plan_tol, grad_tol, iters, batch):
        rng = np.random.default_rng(200 + 10 * iters + batch)
        scores = Tensor((rng.normal(size=(batch, 3, 7, 7)) * 3.0).astype(dtype))
        cot = rng.normal(size=scores.shape).astype(dtype)
        plan, grad, plan_ref, grad_ref = _against_log_domain(scores, cot, iters)
        assert plan.dtype == dtype and grad.dtype == dtype
        assert np.abs(plan - plan_ref).max() <= plan_tol * np.abs(plan_ref).max()
        assert np.abs(grad - grad_ref).max() <= grad_tol * np.abs(grad_ref).max()

    @pytest.mark.parametrize("dtype, plan_tol, grad_tol",
                             [(np.float32, 2e-5, 5e-6), (np.float64, 1e-12, 1e-12)])
    @pytest.mark.parametrize("span", [20.0, 40.0, 79.0])
    @pytest.mark.parametrize("layout", ["row_offset", "column_offset", "sharp_diagonal", "uniform"])
    def test_wide_score_ranges_below_the_fallback(self, dtype, plan_tol, grad_tol, span, layout):
        rng = np.random.default_rng(int(span))
        scores = Tensor(_score_layout(layout, span, (1, 2, 16, 16), rng).astype(dtype))
        cot = rng.normal(size=scores.shape).astype(dtype)
        plan, grad, plan_ref, grad_ref = _against_log_domain(scores, cot, 10)
        assert np.isfinite(plan).all() and np.isfinite(grad).all()
        assert np.abs(plan - plan_ref).max() <= plan_tol
        assert np.abs(grad - grad_ref).max() <= grad_tol * np.abs(cot).max()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_one_wide_row_matrix_sends_the_call_to_the_log_domain(self, dtype):
        rng = np.random.default_rng(30)
        scores = rng.normal(size=(2, 3, 8, 8))
        scores[1, 2] = _score_layout("uniform", 100.0, (8, 8), rng)
        scores = Tensor(scores.astype(dtype))
        cot = rng.normal(size=scores.shape).astype(dtype)
        plan, grad, plan_ref, grad_ref = _against_log_domain(scores, cot, 10)
        assert np.array_equal(plan, plan_ref)
        assert np.array_equal(grad, grad_ref)

    @pytest.mark.parametrize("span, falls_back", [(79.0, False), (81.0, True)])
    def test_fallback_threshold_is_80(self, monkeypatch, span, falls_back):
        rng = np.random.default_rng(31)
        scores = rng.normal(size=(2, 3, 8, 8))
        scores[1, 2] = _score_layout("row_offset", span, (8, 8), rng)
        calls = []
        log_domain = ot._log_domain_sinkhorn

        def counted(m, cfg):
            calls.append(cfg)
            return log_domain(m, cfg)

        monkeypatch.setattr(ot, "_log_domain_sinkhorn", counted)
        ot.sinkhorn(CostVolume(values=Tensor(scores.astype(np.float32))))
        assert len(calls) == falls_back

    @pytest.mark.parametrize("iters", [1, 3])
    def test_taped_fallback_holds_two_volumes(self, iters):
        # span 100 sends the call to the log domain: one record per dual
        # update and one for the plan, whose backward rules between them
        # hold no volume but the scores and the plan
        rng = np.random.default_rng(32)
        shape = (2, 3, 8, 8)
        scores = Tensor(_score_layout("uniform", 100.0, shape, rng).astype(np.float32))
        with tz.GradTape() as tape:
            plan = ot.sinkhorn(CostVolume(values=scores), SinkhornConfig(iters=iters)).values
        assert [rec.name for rec in tape._records] == ["sinkhorn"] * (2 * iters + 1)
        held = set()
        for rec in tape._records:
            cells = [cell.cell_contents for cell in rec.backward.__closure__ or ()]
            for obj in cells:
                arr = obj.data if isinstance(obj, Tensor) else obj
                if isinstance(arr, np.ndarray) and arr.shape == shape:
                    held.add(id(arr))
        assert held == {id(scores.data), id(plan.data)}

    def test_taped_stage_records_one_sinkhorn(self):
        n, c, h, w = 2, 4, 3, 5
        p = init_params(ot.deam_layout(c), np.random.default_rng(20))
        x = Tensor(np.random.default_rng(21).normal(size=(n, c, h, w)).astype(np.float32))
        with tz.GradTape() as tape:
            f_l, f_r, _ = ot.deam_forward(x, x, p)
            stage = list(tape._records)
            out = tz.add(f_l, f_r)
        names = Counter(rec.name for rec in stage)
        # the norms' gains and shifts and the fusion scales act on the four
        # 1x1 kernels, so no record multiplies a map by a parameter
        assert names == {"conv1x1": 4, "cost_matrix": 1, "sinkhorn": 1,
                         "carry": 2, "add": 2}
        # a record keeps no tensor, so read each output's shape off the
        # cotangent that its backward receives
        shapes = {}

        def spy(rec):
            backward = rec.backward

            def bwd(g):
                shapes[rec.output] = g.shape
                return backward(g)
            return bwd

        for rec in stage:
            rec.backward = spy(rec)
        tape.gradients(out, list(p.values()), np.ones_like(out.data))
        assert len(shapes) == len(stage)
        volumes = [rec.name for rec in stage if shapes[rec.output] == (n, h, w, w)]
        assert volumes == ["cost_matrix", "sinkhorn"]


class TestCostMatrix:
    def test_self_similarity_of_scaled_orthonormal_columns(self):
        # orthogonal columns with squared norm sqrt(C) -> M is the identity
        # (M = U U^T / sqrt(C), so the Gram matrix must equal sqrt(C) * I)
        c = 4
        u = np.zeros((1, c, 1, c), np.float32)
        for j in range(c):
            u[0, j, 0, j] = c ** 0.25
        m = ot.cost_matrix(Tensor(u), Tensor(u))
        np.testing.assert_allclose(m.values.data[0, 0], np.eye(c), atol=1e-6)

    def test_outer_product_single_channel(self):
        left = Tensor(np.array([2.0, 3.0], np.float32).reshape(1, 1, 1, 2))
        right = Tensor(np.array([4.0, 5.0], np.float32).reshape(1, 1, 1, 2))
        m = ot.cost_matrix(left, right)
        np.testing.assert_allclose(m.values.data[0, 0], [[8.0, 10.0], [12.0, 15.0]])

    def test_role_swap_is_transpose(self):
        rng = np.random.default_rng(0)
        a = Tensor(rng.normal(size=(2, 3, 4, 5)).astype(np.float32))
        b = Tensor(rng.normal(size=(2, 3, 4, 5)).astype(np.float32))
        m_ab = ot.cost_matrix(a, b).values.data
        m_ba = ot.cost_matrix(b, a).values.data
        np.testing.assert_allclose(m_ba, m_ab.swapaxes(2, 3), atol=1e-6)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(tz.ShapeError):
            ot.cost_matrix(tz.zeros((1, 2, 3, 4)), tz.zeros((1, 2, 3, 5)))


def _taped(f, inputs, cot):
    """Output of ``f`` and the cotangent of each input for <out, cot>."""
    with tz.GradTape() as tape:
        out = f(*inputs)
    return out.data, tape.gradients(out, inputs, cot)


class TestRowProducts:
    """``cost_matrix`` and ``carry`` against float64 einsum: forward, and
    the adjoint applied to a random cotangent."""

    TOL = {np.float32: 1e-5, np.float64: 1e-12}

    def _assert_close(self, got, want, dtype):
        assert got.dtype == dtype
        assert np.abs(got - want).max() <= self.TOL[dtype] * np.abs(want).max()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n", [1, 2])
    def test_cost_matrix_matches_einsum(self, dtype, n):
        rng = np.random.default_rng(40 + n)
        c, h, w = 3, 4, 6
        u_l, u_r = (rng.normal(size=(n, c, h, w)) for _ in range(2))
        cot = rng.normal(size=(n, h, w, w))
        k = 1.0 / math.sqrt(c)
        inputs = [Tensor(a.astype(dtype)) for a in (u_l, u_r)]
        out, (du_l, du_r) = _taped(lambda a, b: ot.cost_matrix(a, b).values, inputs,
                                   cot.astype(dtype))
        self._assert_close(out, k * np.einsum("nchi,nchj->nhij", u_l, u_r), dtype)
        self._assert_close(du_l, k * np.einsum("nhij,nchj->nchi", cot, u_r), dtype)
        self._assert_close(du_r, k * np.einsum("nhij,nchi->nchj", cot, u_l), dtype)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("to_left", [True, False], ids=["to_left", "to_right"])
    def test_carry_matches_einsum(self, dtype, n, to_left):
        rng = np.random.default_rng(50 + n)
        c, h, w = 3, 4, 6
        plan = rng.uniform(size=(n, h, w, w))
        values = rng.normal(size=(n, c, h, w))
        cot = rng.normal(size=(n, c, h, w))
        inputs = [Tensor(a.astype(dtype)) for a in (plan, values)]
        out, (d_plan, d_values) = _taped(lambda p, v: ot.carry(p, v, to_left), inputs,
                                         cot.astype(dtype))
        # to_left reads values at plan columns j, to_right at plan rows i
        src, dst = ("nchj", "nchi") if to_left else ("nchi", "nchj")
        self._assert_close(out, np.einsum(f"nhij,{src}->{dst}", plan, values), dtype)
        self._assert_close(d_plan, np.einsum(f"{dst},{src}->nhij", cot, values), dtype)
        self._assert_close(d_values, np.einsum(f"nhij,{dst}->{src}", plan, cot), dtype)

    def test_carry_plan_shape_mismatch_rejected(self):
        with pytest.raises(tz.ShapeError, match="plan"):
            ot.carry(tz.zeros((1, 3, 5, 5)), tz.zeros((1, 2, 4, 5)), to_left=True)


class TestSinkhorn:
    def test_zero_scores_give_uniform_plan(self):
        plan = ot.sinkhorn(CostVolume(values=tz.zeros((1, 1, 2, 2))))
        np.testing.assert_allclose(plan.values.data[0, 0], [[0.5, 0.5], [0.5, 0.5]], atol=1e-7)

    def test_strong_diagonal_converges_to_identity(self):
        scores = Tensor(np.array([[10.0, 0.0], [0.0, 10.0]], np.float32).reshape(1, 1, 2, 2))
        plan = ot.sinkhorn(CostVolume(values=scores), SinkhornConfig(iters=10))
        oracle = ot.sinkhorn_oracle(CostVolume(values=scores))
        np.testing.assert_allclose(plan.values.data, np.eye(2).reshape(1, 1, 2, 2), atol=1e-3)
        np.testing.assert_allclose(plan.values.data, oracle.values.data, atol=1e-3)

    def test_non_square_volume_rejected(self):
        with pytest.raises(tz.ShapeError, match="square per row"):
            ot.sinkhorn(random_cost((1, 2, 3, 4), seed=0))

    def test_default_iteration_count(self):
        assert SinkhornConfig().iters == 10

    def test_iteration_cap(self):
        assert SinkhornConfig(iters=ot.MAX_SINKHORN_ITERS).iters == ot.MAX_SINKHORN_ITERS
        with pytest.raises(ValueError, match="iters"):
            SinkhornConfig(iters=ot.MAX_SINKHORN_ITERS + 1)
        with pytest.raises(ValueError, match="iters"):
            SinkhornConfig(iters=0)

    def test_ten_iterations_near_converged_oracle(self):
        m = random_cost((1, 4, 8, 8), seed=1)
        plan = ot.sinkhorn(m, SinkhornConfig(iters=10))
        oracle = ot.sinkhorn_oracle(m, max_iters=1000)
        assert np.abs(plan.values.data - oracle.values.data).max() < 0.05

    def test_row_sums_exact_after_final_row_update(self):
        for seed in range(5):
            m = random_cost((1, 3, 16, 16), seed=seed, scale=2.0)
            plan = ot.sinkhorn(m, SinkhornConfig(iters=seed + 1))
            np.testing.assert_allclose(plan.row_sums(), 1.0, atol=5e-6)

    def test_column_violation_shrinks_and_converges(self):
        rng = np.random.default_rng(6)
        scores = Tensor(np.clip(rng.normal(size=(1, 2, 12, 12)) * 6.0, -20, 20).astype(np.float32))
        m = CostVolume(values=scores)
        violations = []
        for iters in (1, 5, 20, 80, 200):
            plan = ot.sinkhorn(m, SinkhornConfig(iters=iters))
            violations.append(np.abs(plan.col_sums() - 1.0).max())
        assert all(b <= a + 1e-7 for a, b in zip(violations, violations[1:]))
        assert violations[-1] < 1e-5

    def test_shift_invariance(self):
        # adding a constant to every score leaves the plan unchanged
        m64 = Tensor(np.random.default_rng(7).normal(size=(1, 2, 6, 6)))
        shifted = Tensor(m64.data + 3.7)
        cfg = SinkhornConfig(iters=50)
        a = ot.sinkhorn(CostVolume(values=m64), cfg).values.data
        b = ot.sinkhorn(CostVolume(values=shifted), cfg).values.data
        np.testing.assert_allclose(a, b, atol=1e-6)

    def test_transpose_duality_at_convergence(self):
        m = Tensor(np.random.default_rng(8).normal(size=(1, 2, 6, 6)))
        cfg = SinkhornConfig(iters=ot.MAX_SINKHORN_ITERS)
        plan = ot.sinkhorn(CostVolume(values=m), cfg).values.data
        plan_t = ot.sinkhorn(CostVolume(values=Tensor(m.data.swapaxes(2, 3).copy())), cfg).values.data
        np.testing.assert_allclose(plan_t, plan.swapaxes(2, 3), atol=1e-6)

    def test_nonnegative_entries_bounded_by_mass(self):
        m = random_cost((2, 3, 8, 8), seed=9, scale=4.0)
        plan = ot.sinkhorn(m, SinkhornConfig(iters=10)).values.data
        assert (plan >= 0.0).all()
        assert plan.max() <= 8.0

    def test_gradients_flow_through_iterations(self):
        scores = Tensor(np.random.default_rng(10).normal(size=(1, 1, 4, 4)).astype(np.float32))

        def f(params):
            plan = ot.sinkhorn(CostVolume(values=params[0]), SinkhornConfig(iters=10))
            return tz.mean_all(tz.mul(plan.values, plan.values))

        assert tz.grad_check(f, [scores]) < 1e-4


class TestSinkhornOracle:
    def test_uniform_for_zero_scores(self):
        plan = ot.sinkhorn_oracle(CostVolume(values=tz.zeros((1, 1, 3, 3))))
        np.testing.assert_allclose(plan.values.data, 1.0 / 3.0, atol=1e-9)

    def test_marginals_meet_tolerance(self):
        m = random_cost((1, 2, 8, 8), seed=11, scale=3.0)
        plan = ot.sinkhorn_oracle(m)
        np.testing.assert_allclose(plan.row_sums(), 1.0, atol=1e-8)
        np.testing.assert_allclose(plan.col_sums(), 1.0, atol=1e-8)

    def test_non_square_volume_rejected(self):
        with pytest.raises(tz.ShapeError, match="square per row"):
            ot.sinkhorn_oracle(random_cost((1, 2, 3, 4), seed=0))

    def test_nonconvergence_reports_violation(self):
        m = random_cost((1, 1, 4, 4), seed=12)
        with pytest.raises(ot.NonConvergenceError, match="violation"):
            ot.sinkhorn_oracle(m, tol=1e-16, max_iters=3)

    def test_objective_beats_sampled_feasible_plans(self):
        # the oracle plan maximizes <T, M> - E(T) over doubly stochastic T
        rng = np.random.default_rng(13)
        for seed in range(5):
            scores = rng.normal(size=(1, 1, 4, 4))
            plan = ot.sinkhorn_oracle(CostVolume(values=Tensor(scores)))
            best = entropic_objective(plan.values.data[0, 0], scores[0, 0])
            for _ in range(40):
                candidate = random_doubly_stochastic(4, rng)
                assert entropic_objective(candidate, scores[0, 0]) <= best + 1e-9


class TestDeamForward:
    def _params(self, c, seed=0):
        return init_params(ot.deam_layout(c), np.random.default_rng(seed))

    def test_identity_at_initialization(self):
        rng = np.random.default_rng(14)
        p = self._params(6)
        x_l = Tensor(rng.normal(size=(1, 6, 4, 8)).astype(np.float32))
        x_r = Tensor(rng.normal(size=(1, 6, 4, 8)).astype(np.float32))
        f_l, f_r, plan = ot.deam_forward(x_l, x_r, p)
        assert np.array_equal(f_l.data, x_l.data)
        assert np.array_equal(f_r.data, x_r.data)
        assert isinstance(plan, TransportPlan)

    def test_symmetric_views_fuse_symmetrically(self):
        rng = np.random.default_rng(15)
        p = self._params(4, seed=16)
        p = {
            name: p[name.replace("_r", "_l")] if "_r" in name else t
            for name, t in p.items()
        }
        p["fuse_scale_l"] = p["fuse_scale_r"] = tz.full((1, 4, 1, 1), 0.5)
        x = Tensor(rng.normal(size=(1, 4, 3, 6)).astype(np.float32))
        f_l, f_r, _ = ot.deam_forward(x, x, p, SinkhornConfig(iters=400))
        np.testing.assert_allclose(f_l.data, f_r.data, atol=1e-5)

    def test_identity_plan_substitution(self):
        # with a diagonal plan the fusion reduces to adding the other view's
        # value features site by site
        rng = np.random.default_rng(17)
        c, h, w = 3, 2, 4
        x_l = Tensor(rng.normal(size=(1, c, h, w)).astype(np.float32))
        value_r = Tensor(rng.normal(size=(1, c, h, w)).astype(np.float32))
        eye_plan = Tensor(np.broadcast_to(np.eye(w, dtype=np.float32), (1, h, w, w)).copy())
        moved = ot.carry(eye_plan, value_r, to_left=True)
        fused = tz.add(x_l, tz.mul(tz.full((1, c, 1, 1), 1.0), moved))
        np.testing.assert_allclose(fused.data, x_l.data + value_r.data, atol=1e-6)

    def test_gradcheck_all_stage_params(self):
        c = 4
        p = self._params(c, seed=18)
        # nonzero fusion scales so gradients reach every projection
        p["fuse_scale_l"] = tz.full((1, c, 1, 1), 0.3)
        p["fuse_scale_r"] = tz.full((1, c, 1, 1), -0.2)
        rng = np.random.default_rng(19)
        x_l = Tensor(rng.normal(size=(1, c, 3, 4)).astype(np.float32))
        x_r = Tensor(rng.normal(size=(1, c, 3, 4)).astype(np.float32))

        def f(params):
            f_l, f_r, _ = ot.deam_forward(x_l, x_r, dict(zip(p, params)), SinkhornConfig(iters=10))
            return tz.add(tz.mean_all(tz.mul(f_l, f_l)), tz.mean_all(tz.mul(f_r, f_r)))

        assert tz.grad_check(f, list(p.values())) < 1e-4

    def test_shape_mismatch_rejected(self):
        p = self._params(4)
        with pytest.raises(tz.ShapeError):
            ot.deam_forward(tz.zeros((1, 4, 3, 4)), tz.zeros((1, 4, 3, 5)), p)
