"""Loss arithmetic, Lion updates, the cosine schedule, and the overfit
harness."""

import math

import numpy as np
import pytest

from stereosr import train as tr
from stereosr import tensor as tz
from stereosr.blocks import LskaBranch
from stereosr.model import ModelConfig, StereoPair, forward, init_model
from stereosr.tensor import Tensor
from stereosr.train import BETA1, BETA2, FREQ_WEIGHT, StepLog


def pair_of(value, shape=(1, 3, 4, 6)):
    t = tz.full(shape, value)
    return StereoPair(left=t, right=t)


def pair_from(arr):
    return StereoPair(left=Tensor(arr), right=Tensor(arr))


class TestLossTotal:
    def test_identical_pairs_give_zero(self):
        rng = np.random.default_rng(0)
        data = rng.uniform(size=(1, 3, 4, 6)).astype(np.float32)
        assert tr.loss_total(pair_from(data), pair_from(data)).item() == 0.0

    @staticmethod
    def _offset_loss(k):
        # only the DC bin differs, by k*h*w per channel per view, so the
        # frequency mean over real+imaginary entries is |k| / 2
        return k * k + FREQ_WEIGHT * abs(k) / 2.0

    def test_uniform_offset(self):
        loss = tr.loss_total(pair_of(0.6), pair_of(0.5))
        assert loss.item() == pytest.approx(self._offset_loss(0.1), rel=1e-5)

    def test_uniform_offset_with_frequency_term(self):
        k = 0.2
        loss = tr.loss_total(pair_of(0.5 + k), pair_of(0.5))
        assert loss.item() == pytest.approx(self._offset_loss(k), rel=1e-4)

    def test_offset_law(self):
        hr = pair_of(0.5)
        one = tr.loss_total(pair_of(0.6), hr).item()
        two = tr.loss_total(pair_of(0.7), hr).item()
        assert one == pytest.approx(self._offset_loss(0.1), rel=1e-4)
        assert two == pytest.approx(self._offset_loss(0.2), rel=1e-4)

    def test_nonnegative_and_definite(self):
        rng = np.random.default_rng(1)
        a = rng.uniform(size=(1, 3, 4, 6)).astype(np.float32)
        b = rng.uniform(size=(1, 3, 4, 6)).astype(np.float32)
        assert tr.loss_total(pair_from(a), pair_from(b)).item() > 0.0

    def test_every_record_has_one_tensor_output(self):
        # the backward pass looks up one cotangent per record's output, so a
        # record holding a tuple would silently never receive one
        cfg = ModelConfig(n_blocks=2, width=16)
        rng = np.random.default_rng(3)
        lr = pair_from(rng.uniform(size=(1, 3, 4, 6)).astype(np.float32))
        hr = pair_from(rng.uniform(size=(1, 3, 16, 24)).astype(np.float32))
        with tz.GradTape() as tape:
            tr.loss_total(forward(lr, init_model(cfg, 0), cfg), hr)
        assert len(tape) > 0
        assert all(isinstance(rec.output, Tensor) for rec in tape._records)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(tz.ShapeError):
            tr.loss_total(pair_of(0.5), pair_of(0.5, shape=(1, 3, 4, 8)))


def zero_momentum(store):
    return [np.zeros_like(t.data) for t in store.tensors()]


class TestLionStep:
    def _store(self):
        return init_model(
            ModelConfig(n_blocks=1, width=8, scale=2, lska_branches=(LskaBranch(3, 3, 1),)),
            seed=0,
        )

    def test_zero_gradient_is_noop(self):
        store = self._store()
        grads = [np.zeros_like(t.data) for t in store.tensors()]
        new_store, _ = tr.lion_step(store, grads, zero_momentum(store), lr=0.1)
        for a, b in zip(store.tensors(), new_store.tensors()):
            np.testing.assert_array_equal(a.data, b.data)

    def test_step_magnitude_is_lr(self):
        store = self._store()
        rng = np.random.default_rng(2)
        grads = [rng.normal(size=t.shape).astype(np.float32) for t in store.tensors()]
        lr = 0.05
        new_store, _ = tr.lion_step(store, grads, zero_momentum(store), lr=lr)
        for old, new, g in zip(store.tensors(), new_store.tensors(), grads):
            delta = np.abs(new.data - old.data)
            moved = np.sign(g) != 0
            np.testing.assert_allclose(delta[moved], lr, rtol=1e-4)

    def test_scalar_positive_gradient_steps_down(self):
        store = init_model(
            ModelConfig(n_blocks=1, width=8, scale=2, lska_branches=(LskaBranch(3, 3, 1),)),
            seed=0,
        )
        grads = [np.full_like(t.data, 2.0) for t in store.tensors()]
        new_store, _ = tr.lion_step(store, grads, zero_momentum(store), lr=0.1)
        for old, new in zip(store.tensors(), new_store.tensors()):
            np.testing.assert_allclose(old.data - new.data, 0.1, rtol=1e-5)

    def test_momentum_update_rule(self):
        store = self._store()
        rng = np.random.default_rng(3)
        grads = [rng.normal(size=t.shape).astype(np.float32) for t in store.tensors()]
        _, momentum = tr.lion_step(store, grads, zero_momentum(store), lr=0.01)
        for m, g in zip(momentum, grads):
            np.testing.assert_allclose(m, (1.0 - BETA2) * g, rtol=1e-5)

    def test_shipped_defaults(self):
        assert BETA1 == 0.9
        assert BETA2 == 0.99

    def test_momentum_count_mismatch_rejected(self):
        store = self._store()
        grads = [np.zeros_like(t.data) for t in store.tensors()]
        with pytest.raises(tz.ShapeError):
            tr.lion_step(store, grads, zero_momentum(store)[1:], lr=0.1)


class TestCosineLr:
    def test_endpoints(self):
        assert tr.cosine_lr(0, 1000) == pytest.approx(3e-4)
        assert tr.cosine_lr(1000, 1000) == pytest.approx(1e-8)

    def test_midpoint(self):
        assert tr.cosine_lr(500, 1000) == pytest.approx((3e-4 + 1e-8) / 2.0)

    def test_clamps_past_end(self):
        assert tr.cosine_lr(101, 100) == pytest.approx(1e-8)
        assert tr.cosine_lr(10_000, 100) == pytest.approx(1e-8)

    def test_non_increasing(self):
        values = [tr.cosine_lr(s, 200) for s in range(201)]
        assert all(b <= a for a, b in zip(values, values[1:]))


class TestOverfit:
    def _pairs(self, scale=2):
        rng = np.random.default_rng(4)
        lr = StereoPair(
            left=Tensor(rng.uniform(size=(1, 3, 6, 8)).astype(np.float32)),
            right=Tensor(rng.uniform(size=(1, 3, 6, 8)).astype(np.float32)),
        )
        hr = StereoPair(
            left=Tensor(rng.uniform(size=(1, 3, 6 * scale, 8 * scale)).astype(np.float32)),
            right=Tensor(rng.uniform(size=(1, 3, 6 * scale, 8 * scale)).astype(np.float32)),
        )
        return lr, hr

    def _cfg(self):
        return ModelConfig(n_blocks=1, width=8, scale=2, lska_branches=(LskaBranch(3, 3, 1),))

    def test_zero_steps_returns_initial_weights(self):
        lr, hr = self._pairs()
        store, log = tr.overfit(lr, hr, self._cfg(), steps=0, seed=5)
        reference = init_model(self._cfg(), seed=5)
        assert log == []
        for a, b in zip(store.tensors(), reference.tensors()):
            np.testing.assert_array_equal(a.data, b.data)

    def test_losses_finite_and_logged(self):
        lr, hr = self._pairs()
        store, log = tr.overfit(lr, hr, self._cfg(), steps=5, seed=6)
        assert len(log) == 5
        assert all(math.isfinite(e.loss) for e in log)
        assert [e.step for e in log] == list(range(5))

    def test_deterministic_given_seed(self):
        lr, hr = self._pairs()
        store_a, log_a = tr.overfit(lr, hr, self._cfg(), steps=4, seed=7)
        store_b, log_b = tr.overfit(lr, hr, self._cfg(), steps=4, seed=7)
        assert [e.loss for e in log_a] == [e.loss for e in log_b]
        for a, b in zip(store_a.tensors(), store_b.tensors()):
            np.testing.assert_array_equal(a.data, b.data)

    def test_size_mismatch_rejected(self):
        lr, hr = self._pairs()
        with pytest.raises(tz.ShapeError):
            tr.overfit(lr, lr, self._cfg(), steps=1)

    def test_divergence_aborts_with_step_index(self, monkeypatch):
        lr, hr = self._pairs()
        monkeypatch.setattr(tr, "cosine_lr", lambda step, total_steps: 1e18)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(tr.TrainingDivergedError) as err:
                tr.overfit(lr, hr, self._cfg(), steps=8, seed=8)
        assert err.value.step >= 1


class TestLogFormat:
    def test_tab_separated_fields(self):
        line = tr.format_log_line(StepLog(step=3, lr=2.5e-4, loss=0.125, psnr_left=21.5, psnr_right=22.25))
        fields = line.split("\t")
        assert fields[0] == "3"
        assert float(fields[1]) == pytest.approx(2.5e-4)
        assert float(fields[2]) == pytest.approx(0.125)
        assert fields[3] == "21.50"
        assert fields[4] == "22.25"
