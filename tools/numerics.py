"""SHA-256 digests of the program's numerics, for comparing two source trees.

    python3 tools/numerics.py SRC [--overfit]

SRC is the ``src/`` directory of a checkout (this one, or a ``git archive``
export of another commit); ``stereosr`` is imported from it, with one BLAS
thread.  Each line of standard output is ``name sha256``:

* ``weights``: the bytes ``save_weights`` writes for the seeded default
  model, ``init_model(ModelConfig(), 5)``;
* for each config in CASES, with weights ``init_model(cfg, 5)`` plus seeded
  N(0, 0.05) noise (so the cross-view stages, zero at init, are live) and
  seeded uniform inputs and targets:
  ``<case>.outputs``, both views of the untaped forward;
  ``<case>.records``, the taped step's record names in order;
  ``<case>.gradients``, the ``loss_total`` gradient of every parameter and
  of both input views;
* with ``--overfit``, ``overfit.log``: the 2,000-step log of acceptance
  criterion 5 (``tests/test_acceptance.py``), one ``format_log_line`` line
  per step, as ``stereosr overfit`` writes it.  This takes about a minute.

Two trees whose lines are equal compute bit-identical numbers.  The tool
reads only what both the current and earlier trees provide: entries reach
it through ``overfit``'s ``log_fn`` and the records through the tape.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
import tempfile

# (name, ModelConfig fields, LR height and width, dtype)
CASES = (
    ("default_16x96_float32", {}, (16, 96), "float32"),
    ("n2_c16_24x72_float32", dict(n_blocks=2, width=16), (24, 72), "float32"),
    ("n2_c16_12x36_float64", dict(n_blocks=2, width=16), (12, 36), "float64"),
    ("n3_c8_separate_12x36_float32",
     dict(n_blocks=3, width=8, share_view_weights=False), (12, 36), "float32"),
    ("n2_c8_single_no_residual_x2_8x24_float64",
     dict(n_blocks=2, width=8, single_interaction=True, global_residual=False, scale=2),
     (8, 24), "float64"),
)


def _digest(arrays) -> str:
    import numpy as np

    h = hashlib.sha256()
    for a in arrays:
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _text_digest(lines) -> str:
    return hashlib.sha256("".join(line + "\n" for line in lines).encode()).hexdigest()


def _case(name: str, fields: dict, size: tuple[int, int], dtype: str):
    import numpy as np
    from stereosr import GradTape, ModelConfig, StereoPair, Tensor, WeightStore
    from stereosr import forward, init_model, loss_total

    cfg = ModelConfig(**fields)
    rng = np.random.default_rng(5)
    store = WeightStore(cfg, [
        (key, Tensor((t.data + rng.normal(0.0, 0.05, t.shape)).astype(dtype)))
        for key, t in init_model(cfg, 5).items()])
    (h, w), r = size, cfg.scale
    lr, hr = (StereoPair(*(Tensor(rng.uniform(size=(1, 3, k * h, k * w)).astype(dtype))
                           for _ in range(2))) for k in (1, r))
    sr = forward(lr, store, cfg)
    yield f"{name}.outputs", _digest((sr.left.data, sr.right.data))
    del sr
    with GradTape() as tape:
        loss = loss_total(forward(lr, store, cfg), hr)
    yield f"{name}.records", _text_digest(rec.name for rec in tape._records)
    yield f"{name}.gradients", _digest(tape.gradients(loss, store.tensors() + [lr.left, lr.right]))


def _overfit_log(src: str):
    from stereosr import ModelConfig, overfit
    from stereosr.train import format_log_line

    sys.path.insert(0, os.path.join(src, os.pardir, "tests"))
    from _synthetic import make_lr_hr_pair

    lr, hr = make_lr_hr_pair(height=96, width=288, scale=4)
    lines = []
    overfit(lr, hr, ModelConfig(n_blocks=2, width=16, scale=4), steps=2000, seed=0,
            log_fn=lambda entry: lines.append(format_log_line(entry)))
    return "overfit.log", _text_digest(lines)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("src", help="the src/ directory of the tree to digest")
    p.add_argument("--overfit", action="store_true",
                   help="also digest acceptance criterion 5's 2,000-step log")
    args = p.parse_args(argv)
    src = os.path.abspath(args.src)
    os.environ["OPENBLAS_NUM_THREADS"] = "1"   # read when numpy first loads BLAS
    sys.path.insert(0, src)
    import stereosr
    from stereosr import ModelConfig, init_model, save_weights

    if not os.path.realpath(stereosr.__file__).startswith(os.path.realpath(src) + os.sep):
        print(f"error: imported stereosr from {stereosr.__file__}, not from {src}",
              file=sys.stderr)
        return 1
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "weights.msin")
        save_weights(init_model(ModelConfig(), 5), path)
        with open(path, "rb") as fh:
            print("weights", hashlib.sha256(fh.read()).hexdigest(), flush=True)
    for case in CASES:
        for name, digest in _case(*case):
            print(name, digest, flush=True)
    if args.overfit:
        print(*_overfit_log(src), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
