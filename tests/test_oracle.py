"""The deterministic loss oracles against 40-digit references
(``helpers.mpmath_loss``)."""

import math

import numpy as np
import pytest

from helpers import adaptive_simpson, mpmath_loss
from rvqlab.errors import ResourceLimitError
from rvqlab.loss import (GAP_RTOL, _deficit_integrand, _normalized,
                         delta1_quadrature, delta2_quadrature)
from rvqlab.quadrature import integrate_piecewise

SPECTRA = [
    [2.0, 1.0],
    [3.0, 1.8, 0.6],
    [4.0, 2.8, 1.6, 0.4],
    [1.0, 0.3, 0.3],                      # tied trailing
    [0.7, 0.1, 0.1, 0.1],                 # tied trailing, a Schur profile
    [1.0, 0.0, 0.0, 0.0],                 # rank one
    [1.0, 1.0 - 1.01 * GAP_RTOL, 0.5],    # top gap just above the guard
    [1.0, 1.0 - 1.01 * GAP_RTOL, 0.5, 0.2],
    [5.0, 4.0, 3.0, 2.0, 1.0],
    [6.0, 4.0, 3.0, 2.5, 1.0, 0.5],
    [8.0, 7.0, 6.0, 5.0, 4.0, 3.0, 2.0, 1.0],
    [1.0, 0.2, 0.2, 0.2, 0.2],            # tied trailing, n = 5
    [1.0, 0.5, 0.5 - 1.01 * GAP_RTOL, 0.2, 0.1],  # inner near-tie
]
BITS = [0, 1, 2, 4, 8, 12, 16, 20, 24]  # fig3's validate cap is 24
RHO = 3.0


@pytest.mark.parametrize("bits", BITS)
@pytest.mark.parametrize("lam", SPECTRA, ids=str)
def test_gain_loss_oracle_matches_mpmath(lam, bits):
    want = mpmath_loss(lam, bits)
    got = delta1_quadrature(lam, bits).value
    assert abs(got - want) <= 1e-12 * want


@pytest.mark.parametrize("bits", BITS)
@pytest.mark.parametrize("lam", SPECTRA, ids=str)
def test_rate_loss_oracle_matches_mpmath(lam, bits):
    want = mpmath_loss(lam, bits, RHO)
    got = delta2_quadrature(lam, RHO, bits).value
    assert abs(got - want) <= 1e-12 * want


@pytest.mark.parametrize("lam", SPECTRA, ids=str)
def test_gauss_legendre_agrees_with_simpson(lam):
    for bits in (0, 1, 2, 4, 8):
        f, pts = _deficit_integrand(_normalized(lam), bits)
        panels = [(lo, hi) for lo, hi in zip(pts[:-1], pts[1:]) if hi > lo]
        simpson = math.fsum(
            adaptive_simpson(lambda u: float(f(np.array([u]))[0]), lo, hi,
                             tol=1e-12 / len(panels))
            for lo, hi in panels)
        assert abs(integrate_piecewise(f, pts, tol=1e-12) - simpson) <= 1e-11


def test_panel_budget_raises():
    # no panel width resolves this, so every pass halves them all
    with pytest.raises(ResourceLimitError):
        integrate_piecewise(lambda x: np.cos(1e9 * x), [0.0, 1.0], tol=1e-12)
