"""Loss arithmetic, Lion updates, the cosine schedule, and the overfit
harness."""

import gc
import math
import weakref

import numpy as np
import pytest

from stereosr import train as tr
from stereosr import tensor as tz
from stereosr import transport as ot
from stereosr import verify
from stereosr.blocks import LskaBranch
from stereosr.model import (ModelConfig, StereoPair, WeightStore, forward, init_model,
                            init_params)
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
        # the backward pass looks up one cotangent per record's output key,
        # so a record naming a tuple would silently never receive one.  Each
        # output is a fresh tensor, made after the inputs it reads
        cfg = ModelConfig(n_blocks=2, width=16)
        rng = np.random.default_rng(3)
        lr = pair_from(rng.uniform(size=(1, 3, 4, 6)).astype(np.float32))
        hr = pair_from(rng.uniform(size=(1, 3, 16, 24)).astype(np.float32))
        with tz.GradTape() as tape:
            loss = tr.loss_total(forward(lr, init_model(cfg, 0), cfg), hr)
        outputs = [rec.output for rec in tape._records]
        assert len(tape) > 0
        assert all(type(key) is int for key in outputs)
        assert len(set(outputs)) == len(outputs)
        assert all(max(rec.inputs) < rec.output for rec in tape._records)
        assert outputs[-1] == loss.key

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
        log = []
        store = tr.overfit(lr, hr, self._cfg(), steps=0, seed=5, log_fn=log.append)
        reference = init_model(self._cfg(), seed=5)
        assert log == []
        for a, b in zip(store.tensors(), reference.tensors()):
            np.testing.assert_array_equal(a.data, b.data)

    def test_losses_finite_and_logged(self):
        lr, hr = self._pairs()
        log = []
        tr.overfit(lr, hr, self._cfg(), steps=5, seed=6, log_fn=log.append)
        assert len(log) == 5
        assert all(math.isfinite(e.loss) for e in log)
        assert [e.step for e in log] == list(range(5))

    def test_deterministic_given_seed(self):
        lr, hr = self._pairs()
        log_a, log_b = [], []
        store_a = tr.overfit(lr, hr, self._cfg(), steps=4, seed=7, log_fn=log_a.append)
        store_b = tr.overfit(lr, hr, self._cfg(), steps=4, seed=7, log_fn=log_b.append)
        assert [e.loss for e in log_a] == [e.loss for e in log_b]
        for a, b in zip(store_a.tensors(), store_b.tensors()):
            np.testing.assert_array_equal(a.data, b.data)

    def test_entries_are_streamed_not_kept(self, monkeypatch):
        # each step's entry goes to log_fn alone, and without log_fn no
        # PSNR is taken
        lr, hr = self._pairs()
        seen = []

        def on_step(entry):
            gc.collect()
            assert [ref() for ref in seen] == [None] * len(seen)
            seen.append(weakref.ref(entry))

        assert isinstance(tr.overfit(lr, hr, self._cfg(), steps=3, seed=6, log_fn=on_step),
                          WeightStore)
        assert len(seen) == 3
        calls = []
        monkeypatch.setattr(tr, "psnr", lambda *args: calls.append(args))
        tr.overfit(lr, hr, self._cfg(), steps=2, seed=6)
        assert calls == []

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


def _acceptance_step():
    """One taped training step at the acceptance config (N=2, C=16, 24x72
    LR): the tape, the parameters and the number of forward records."""
    cfg = ModelConfig(n_blocks=2, width=16)
    rng = np.random.default_rng(8)
    lr = StereoPair(*(Tensor(rng.uniform(size=(1, 3, 24, 72)).astype(np.float32))
                      for _ in range(2)))
    hr = StereoPair(*(Tensor(rng.uniform(size=(1, 3, 96, 288)).astype(np.float32))
                      for _ in range(2)))
    store = init_model(cfg, 0)
    with tz.GradTape() as tape:
        sr = forward(lr, store, cfg)
        n_forward = len(tape)
        tr.loss_total(sr, hr)
    return tape, store.tensors(), n_forward


def _wide_range_stage():
    """A taped cross-view stage whose norm gains of 30 spread the scores
    past SCALING_MAX_RANGE, so its normalization runs in the log domain."""
    c = 4
    p = init_params(ot.deam_layout(c), np.random.default_rng(22))
    p["norm_l.gain"] = p["norm_r.gain"] = tz.full((1, c, 1, 1), 30.0)
    rng = np.random.default_rng(23)
    x_l, x_r = (Tensor(rng.normal(size=(1, c, 3, 8)).astype(np.float32)) for _ in range(2))
    with tz.GradTape() as tape:
        ot.deam_forward(x_l, x_r, p)
    return tape


class TestTapeCoverage:
    def test_every_recorded_primitive_has_a_gradient_check(self):
        # a record name is covered by a check of the same name or one that
        # extends it (conv2d by conv2d_full_3x3, spectral_l1 by spectral_l1_even);
        # the wide-range stage adds the records of the log-domain fallback
        tape, _, _ = _acceptance_step()
        wide = _wide_range_stage()
        assert [rec.name for rec in wide._records].count("sinkhorn") == 2 * 10 + 1
        recorded = {rec.name for rec in tape._records + wide._records}
        checked = [r.name for r in verify.primitive_checks()]
        assert {"cost_matrix", "carry", "sinkhorn", "conv2d", "spectral_l1"} <= recorded
        assert [name for name in sorted(recorded)
                if not any(row.startswith(name) for row in checked)] == []


class TestOverfitBound:
    @pytest.mark.parametrize("w, admitted", [(256, True), (257, False)])
    def test_taped_step_bound_checked_before_init_model(self, monkeypatch, w, admitted):
        # default config: 32 stages * 16 * 256^2 = 2^25; 16 * 257^2 * 32 = 33,817,088
        class Reached(Exception):
            pass

        def init_model(cfg, seed):
            raise Reached

        monkeypatch.setattr(tr, "init_model", init_model)
        cfg = ModelConfig()
        lr, hr = (StereoPair(*(tz.zeros((1, 3, k * 16, k * w)) for _ in range(2)))
                  for k in (1, cfg.scale))
        if admitted:
            with pytest.raises(Reached):
                tr.overfit(lr, hr, cfg, steps=1)
        else:
            with pytest.raises(tz.ShapeError, match="16x257.*33817088 for 32 cross-view stages"):
                tr.overfit(lr, hr, cfg, steps=1)


def _owner(arr):
    """The array that owns the memory ``arr`` views."""
    while isinstance(arr.base, np.ndarray):
        arr = arr.base
    return arr


def _held_arrays(tape):
    """The distinct arrays that a tape's backward rules hold: everything
    reachable through their closures, through tensors, nested functions,
    tuples and lists, as the arrays that own the memory."""
    seen, owners = set(), {}
    stack = [rec.backward for rec in tape._records]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            arr = _owner(obj)
            owners[id(arr)] = arr
        elif isinstance(obj, Tensor):
            stack.append(obj.data)
        elif isinstance(obj, (tuple, list)):
            stack.extend(obj)
        elif getattr(obj, "__closure__", None):
            stack.extend(cell.cell_contents for cell in obj.__closure__)
    return list(owners.values())


class TestTapeHygiene:
    def test_every_record_reads_a_parameter(self):
        # a record whose inputs are all constants is never differentiated
        tape, params, _ = _acceptance_step()
        live = {p.key for p in params}
        constant = []
        for rec in tape._records:
            if any(key in live for key in rec.inputs):
                live.add(rec.output)
            else:
                constant.append(rec.name)
        assert constant == []

    def test_tape_holds_only_the_maps_its_backward_reads(self):
        # records name tensors by key, so the arrays a tape keeps alive are
        # those its backward rules capture.  Count the maps each one reads;
        # a closure that also keeps a whole tensor it does not read (a block
        # input, a branch output) adds at least 4 C-channel maps here
        tape, params, _ = _acceptance_step()
        n, c, h, w, iters = 1, 16, 24, 72, 10
        big_h, big_w = 4 * h, 4 * w
        site = n * h * w  # one channel of one view's features
        # each norm's output is read by its backward and by the 1x1
        # convolution after it, which folds the norm's gain and shift, so
        # the two share one map; residual and fusion scales fold into the
        # kernels before them, so no unscaled projection or carry is kept
        per_view_block = (
            10 * c * site  # MSCAM: norm and expand 1, dwconv 2, gate 2, LSKA input 1,
                           # fuse 1, attention 1, SCA 1, project 1; each branch's
                           # inner maps are rebuilt in its backward
            + 4 * c * site  # SFFN: norm and expand 1, gate 2, project 1
            + 4 * c * site  # cross-view stage: norm and match conv 1, value conv 1,
                            # cost matrix 1, carry 1
            + 3 * site      # the three norms' inverse deviations
        )
        per_block = (2 * per_view_block
                     + 2 * n * h * w * w          # the scores and the plan
                     + (2 * iters + 1) * site)    # Sinkhorn's scaling vectors
        per_view = (3 * site + c * site          # intro and head convolution inputs
                    + 3 * n * big_h * big_w      # the residual, read by its square
                    + 2 * 3 * n * big_h * (big_w // 2 + 1))  # its complex half spectrum
        # per-channel and per-row vectors (SCA, Sinkhorn's row maxima) fit in one site
        bound = 4 * (2 * per_block + 2 * per_view + site)
        owned = {id(_owner(p.data)) for p in params}
        held = sum(a.nbytes for a in _held_arrays(tape) if id(a) not in owned)
        assert held <= bound

    def test_loss_records(self):
        # per view: sub, mul, mean_all, spectral_l1, mul, add; then add, mul
        tape, _, n_forward = _acceptance_step()
        assert len(tape) - n_forward == 14


class TestLogFormat:
    def test_tab_separated_fields(self):
        line = tr.format_log_line(StepLog(step=3, lr=2.5e-4, loss=0.125, psnr_left=21.5, psnr_right=22.25))
        fields = line.split("\t")
        assert fields[0] == "3"
        assert float(fields[1]) == pytest.approx(2.5e-4)
        assert float(fields[2]) == pytest.approx(0.125)
        assert fields[3] == "21.50"
        assert fields[4] == "22.25"
