"""tools/numerics.py: the digest that compares two trees' numerics."""

import os
import re
import subprocess
import sys

import stereosr

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOL = os.path.join(ROOT, "tools", "numerics.py")

CASES = ("default_16x96_float32", "n2_c16_24x72_float32", "n2_c16_12x36_float64",
         "n3_c8_separate_12x36_float32", "n2_c8_single_no_residual_x2_8x24_float64")
NAMES = ["weights"] + [f"{case}.{part}" for case in CASES
                       for part in ("outputs", "records", "gradients")]


def test_prints_each_digest_once():
    # the directory that holds the package the tests imported
    src = os.path.dirname(os.path.dirname(os.path.abspath(stereosr.__file__)))
    proc = subprocess.run([sys.executable, TOOL, src], capture_output=True, text=True,
                          timeout=600)
    assert proc.returncode == 0, proc.stderr
    lines = [line.split() for line in proc.stdout.splitlines()]
    assert [name for name, _ in lines] == NAMES
    assert all(re.fullmatch("[0-9a-f]{64}", digest) for _, digest in lines)
