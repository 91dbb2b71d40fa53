"""Each row of the primitive gradient checks as its own test, so that a
broken backward rule can be run against its own row alone."""

import pytest

from stereosr import verify
from stereosr.tensor import grad_check


@pytest.mark.parametrize("name", list(verify.primitive_cases()))
def test_primitive_row(name):
    params, f, eps = verify.primitive_cases()[name]
    err = grad_check(f, params, eps)
    assert err < verify.PRIMITIVE_TOLERANCE, f"{name}: {err:.2e}"
