"""Broken backward rules must fail a check, and a failing check must not hide
the rest of the session.

Each mutant scales one cotangent of a recorded backward rule by 0.99 and
runs the checks that must kill it, which must then report a failure; every
rule that the package records has a mutant and a gradcheck row.  All
mutants run in turn in one child process, which sees only PATH, one BLAS
thread and the directory that holds the stereosr package this process
imported, and writes no bytecode and no cache.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import stereosr
from stereosr import verify

ROOT = Path(__file__).resolve().parents[1]

# the whole network's float64 gradient against the reference
REFERENCE = ("tests/test_reference.py::test_gradient_matches_the_reference",)
# the checks that must kill a broken conv2d or conv1x1 backward: the
# primitive's oracle tests and the reference
CONV2D_CHECKS = (
    "tests/test_tensor.py::TestConv2d::test_all_paths_match_oracle",
    "tests/test_tensor.py::TestConv2d::test_grad_w_matches_frame_oracle",
    *REFERENCE,
)
CONV1X1_CHECKS = ("tests/test_tensor.py::TestConv1x1::test_matches_the_unfolded_composition",
                  *REFERENCE)
ROW = "tests/test_verify.py::test_primitive_row"


def rows(*names: str) -> tuple[str, ...]:
    """The gradcheck rows of these names, each a test of its own."""
    return tuple(f"{ROW}[{name}]" for name in names)


# name: (rule, index of the cotangent to scale, the input counts of the
# records it scales, or None for every record of the rule, the checks).  A
# conv2d record's inputs are x, then each convolution's W and b, so a chain
# of four, as in an LSKA branch, has 9, and its last W and b come last.  A
# conv1x1 record's inputs are x, W, b, the scale if given, then the norm's
# gain and shift if given; a sinkhorn record of the scaling form has one
# input, the scores, and the log-domain fallback's have two (a dual update:
# the scores and the other dual) or three (the plan: the scores and both
# duals).  A rule's gradcheck rows come first among its checks and must be
# what kills it
MUTANTS = {
    "conv2d-dx": ("conv2d", 0, None, CONV2D_CHECKS),
    "conv2d-dW": ("conv2d", 1, None, CONV2D_CHECKS),
    "conv2d-db": ("conv2d", 2, None, CONV2D_CHECKS),
    "conv2d-chain-last-dW": ("conv2d", -2, (9,), (*rows("conv2d_chain"), *REFERENCE)),
    "conv2d-chain-last-db": ("conv2d", -1, (9,), (*rows("conv2d_chain"), *REFERENCE)),
    "conv1x1-dx": ("conv1x1", 0, None, CONV1X1_CHECKS),
    "conv1x1-dW": ("conv1x1", 1, None, CONV1X1_CHECKS),
    "conv1x1-db": ("conv1x1", 2, None, CONV1X1_CHECKS),
    "conv1x1-dscale": ("conv1x1", 3, (4, 6), CONV1X1_CHECKS),
    "conv1x1-dgain": ("conv1x1", -2, (5, 6), CONV1X1_CHECKS),
    "conv1x1-dshift": ("conv1x1", -1, (5, 6), CONV1X1_CHECKS),
    "simple_gate-dx": ("simple_gate", 0, None, (*rows("simple_gate"), *REFERENCE)),
    "sinkhorn-dscores": ("sinkhorn", 0, (1,), (*rows("sinkhorn"), *REFERENCE)),
    "cost_matrix-du_l": ("cost_matrix", 0, None, REFERENCE),
    "cost_matrix-du_r": ("cost_matrix", 1, None, REFERENCE),
    "carry-dplan": ("carry", 0, None, REFERENCE),
    "carry-dvalues": ("carry", 1, None, REFERENCE),
    "add-da": ("add", 0, None, rows("add", "add_broadcast")),
    "add-db": ("add", 1, None, rows("add", "add_broadcast")),
    "sub-da": ("sub", 0, None, rows("sub")),
    "sub-db": ("sub", 1, None, rows("sub")),
    "mul-da": ("mul", 0, None, rows("mul", "mul_broadcast")),
    "mul-db": ("mul", 1, None, rows("mul", "mul_broadcast")),
    "exp-dx": ("exp", 0, None, rows("exp")),
    "mean_all-dx": ("mean_all", 0, None, (*rows("mean_all"), *REFERENCE)),
    "logsumexp-dx": ("logsumexp", 0, None, rows("logsumexp")),
    "global_avg_pool-dx": ("global_avg_pool", 0, None, rows("global_avg_pool")),
    "pixel_shuffle-dx": ("pixel_shuffle", 0, None, rows("pixel_shuffle")),
    "spectral_l1-dx": ("spectral_l1", 0, None, rows("spectral_l1_even", "spectral_l1_odd")),
    "sinkhorn-update-dscores": ("sinkhorn", 0, (2,), rows("sinkhorn_wide")),
    "sinkhorn-update-ddual": ("sinkhorn", 1, (2,), rows("sinkhorn_wide")),
    "sinkhorn-plan-dscores": ("sinkhorn", 0, (3,), rows("sinkhorn_wide")),
    "sinkhorn-plan-du": ("sinkhorn", 1, (3,), rows("sinkhorn_wide")),
    "sinkhorn-plan-dv": ("sinkhorn", 2, (3,), rows("sinkhorn_wide")),
}

# argv: the mutants as JSON.  transport imports _record by name, so both
# bindings are patched.  A failing hypothesis draw is reported unshrunk:
# one failure is all a mutant needs
MUTANT = (
    "import json, sys\n"
    "import pytest\n"
    "from stereosr import tensor as tz, transport as ot\n"
    "class Unshrunk:\n"
    "    @staticmethod\n"
    "    def pytest_configure(config):\n"
    "        from hypothesis import Phase, settings\n"
    "        settings.register_profile('unshrunk', phases=(Phase.explicit, Phase.reuse,"
    " Phase.generate))\n"
    "        settings.load_profile('unshrunk')\n"
    "record = tz._record\n"
    "for label, (rule, index, counts, checks) in json.loads(sys.argv[1]).items():\n"
    "    def mutant(name, inputs, output, backward_fn, rule=rule, index=index, counts=counts):\n"
    "        def scaled(g):\n"
    "            grads = list(backward_fn(g))\n"
    "            grads[index] = grads[index] * 0.99\n"
    "            return tuple(grads)\n"
    "        hit = name == rule and (counts is None or len(inputs) in counts)\n"
    "        record(name, inputs, output, scaled if hit else backward_fn)\n"
    "    tz._record = ot._record = mutant\n"
    "    print(f'MUTANT {label}', flush=True)\n"
    "    code = pytest.main(['-q', '-x', '-p', 'no:cacheprovider', *checks], plugins=[Unshrunk])\n"
    "    print(f'EXIT {int(code)}', flush=True)\n"
)


def _pytest(cwd: Path, *argv: str) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, "-c", *argv], cwd=cwd, capture_output=True, text=True, timeout=300,
        env={
            "PATH": "/usr/bin:/bin",
            "OPENBLAS_NUM_THREADS": "1",
            "PYTHONPATH": str(Path(stereosr.__file__).resolve().parent.parent),
            "PYTHONDONTWRITEBYTECODE": "1",
        },
    )
    return proc.returncode, proc.stdout + proc.stderr


@pytest.fixture(scope="module")
def mutant_runs() -> str:
    return _pytest(ROOT, MUTANT, json.dumps(MUTANTS))[1]


def _assert_killed(out: str, name: str):
    # the mutant's part of the child's output, from its MUTANT line on
    part = out.partition(f"MUTANT {name}\n")[2].partition("MUTANT ")[0]
    # exit code 1 is "some tests failed"; an error in collection or in
    # pytest itself exits otherwise
    assert "\nEXIT 1\n" in part and " failed" in part, out[-2000:]
    # the checks stop at the first failure, so a failed row killed it
    if MUTANTS[name][3][0].startswith(ROW):
        assert f"FAILED {ROW}[" in part, part[-2000:]


@pytest.mark.parametrize("index", ["dx", "dW", "db", "chain-last-dW", "chain-last-db"])
def test_scaled_conv2d_cotangent_fails_a_check(mutant_runs, index):
    _assert_killed(mutant_runs, f"conv2d-{index}")


@pytest.mark.parametrize("name", [name for name in MUTANTS if not name.startswith("conv2d")])
def test_scaled_cotangent_fails_a_check(mutant_runs, name):
    _assert_killed(mutant_runs, name)


def test_every_recorded_rule_has_a_gradcheck_row_and_a_mutant():
    # a rule is covered by a row of its name or one that extends it (conv2d
    # by conv2d_full_3x3, spectral_l1 by spectral_l1_even); the rules are read
    # off the source, so a record that no test step reaches is covered too
    source = [path.read_text() for path in Path(stereosr.__file__).resolve().parent.glob("*.py")]
    literals = [name for text in source for name in re.findall(r'_record\(\s*"(\w+)"', text)]
    # a rule recorded under a computed name would escape the checks below
    calls = sum(len(re.findall(r"(?<!def )\b_record\(", text)) for text in source)
    assert len(literals) == calls
    recorded = set(literals)
    mutated = {rule for rule, *_ in MUTANTS.values()}
    checked = list(verify.primitive_cases())
    assert {"add", "conv2d", "conv1x1", "sinkhorn", "spectral_l1"} <= recorded
    assert sorted(name for name in recorded
                  if not any(row.startswith(name) for row in checked)) == []
    assert sorted(recorded - mutated) == []
    assert sorted(mutated - recorded) == []


def test_failing_hypothesis_test_leaves_later_tests_running(tmp_path):
    (tmp_path / "pyproject.toml").write_text((ROOT / "pyproject.toml").read_text())
    tests = tmp_path / "tests"
    tests.mkdir()
    (tests / "conftest.py").write_text((ROOT / "tests" / "conftest.py").read_text())
    (tests / "test_pair.py").write_text(
        "from hypothesis import given, settings, strategies as st\n"
        "@settings(database=None)\n"
        "@given(st.integers())\n"
        "def test_fails(n):\n"
        "    assert n < 5\n"
        "def test_passes():\n"
        "    pass\n"
    )
    code, out = _pytest(tmp_path, "import sys, pytest; sys.exit(pytest.main(sys.argv[1:]))",
                        "-q", "-p", "no:cacheprovider", "tests")
    assert "INTERNALERROR" not in out and "1 failed, 1 passed" in out, out[-2000:]
