import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from helpers import adaptive_simpson
from rvqlab.errors import ResourceLimitError
from rvqlab.quadrature import integrate_piecewise


def test_cubic_is_exact():
    # Simpson integrates cubics exactly on a single panel
    got = adaptive_simpson(lambda x: 4.0 * x ** 3 + 1.0, 0.0, 1.0)
    assert got == pytest.approx(2.0, abs=1e-14)


def test_smooth_integrand():
    assert adaptive_simpson(math.sin, 0.0, math.pi, tol=1e-12) == pytest.approx(
        2.0, abs=1e-11)


def test_tight_tolerance():
    got = adaptive_simpson(lambda x: x ** 8, 0.0, 1.0, tol=1e-13)
    assert got == pytest.approx(1.0 / 9.0, abs=1e-12)


def test_degenerate_and_reversed_bounds():
    assert adaptive_simpson(math.exp, 2.0, 2.0) == 0.0
    with pytest.raises(ValueError):
        adaptive_simpson(math.exp, 1.0, 0.0)


def test_interval_budget():
    step = lambda x: 0.0 if x < 1.0 / 3.0 else 1.0
    with pytest.raises(ResourceLimitError):
        adaptive_simpson(step, 0.0, 1.0, tol=1e-14, max_intervals=40)


def test_piecewise_skips_empty_panels():
    got = integrate_piecewise(lambda x: x, [0.0, 0.5, 0.5, 1.0], tol=1e-12)
    assert got == pytest.approx(0.5, abs=1e-11)
    assert integrate_piecewise(lambda x: x, [1.0, 1.0]) == 0.0


def test_piecewise_needs_two_breakpoints():
    with pytest.raises(ValueError):
        integrate_piecewise(lambda x: x, [0.0])


@given(st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=5),
       st.floats(-2.0, 2.0), st.floats(0.01, 2.0))
def test_polynomials_match_antiderivative(coeffs, a, width):
    p = np.polynomial.Polynomial(coeffs)
    want = p.integ()(a + width) - p.integ()(a)
    got = adaptive_simpson(p, a, a + width, tol=1e-11)
    assert got == pytest.approx(want, abs=1e-9)
