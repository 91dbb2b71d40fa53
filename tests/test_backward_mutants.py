"""Broken backward rules must fail a check, and a failing check must not hide
the rest of the session.

Each mutant scales one cotangent of a recorded backward rule by 0.99 in a
child pytest session, which must then report a failure.  Children see only
PATH, one BLAS thread and the directory that holds the stereosr package
this process imported, and write no bytecode and no cache.
"""

import subprocess
import sys
from pathlib import Path

import pytest

import stereosr

ROOT = Path(__file__).resolve().parents[1]

# the checks that must kill a broken conv2d backward: its oracle tests and
# the whole network's float64 gradient against the reference
CONV2D_CHECKS = (
    "tests/test_tensor.py::TestConv2d::test_all_paths_match_oracle",
    "tests/test_tensor.py::TestConv2d::test_grad_w_matches_frame_oracle",
    "tests/test_reference.py::test_gradient_matches_the_reference",
)

# argv: rule name, index of the cotangent to scale, then pytest's arguments
MUTANT = (
    "import sys\n"
    "import pytest\n"
    "from stereosr import tensor as tz\n"
    "rule, index, record = sys.argv[1], int(sys.argv[2]), tz._record\n"
    "def mutant(name, inputs, output, backward_fn):\n"
    "    def scaled(g):\n"
    "        grads = list(backward_fn(g))\n"
    "        grads[index] = grads[index] * 0.99\n"
    "        return tuple(grads)\n"
    "    record(name, inputs, output, scaled if name == rule else backward_fn)\n"
    "tz._record = mutant\n"
    "sys.exit(pytest.main(sys.argv[3:]))\n"
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


@pytest.mark.parametrize("index", [0, 1, 2], ids=["dx", "dW", "db"])
def test_scaled_conv2d_cotangent_fails_a_check(index):
    code, out = _pytest(ROOT, MUTANT, "conv2d", str(index), "-q", "-x", "-p", "no:cacheprovider",
                        *CONV2D_CHECKS)
    # exit code 1 is "some tests failed"; an error in collection or in
    # pytest itself exits otherwise
    assert code == 1 and " failed" in out, out[-2000:]


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
