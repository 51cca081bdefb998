"""Adaptive composite Gauss-Legendre on array integrands, deliberately
hand-rolled: the one quadrature rule of the package.  The plain and skewed
loss oracles that the closed forms are checked against integrate with it, and
so do the skewed two-antenna bound and the rate-loss approximant
``delta2_appx``, whose reference is the mpmath route of its tests instead.
"""

from __future__ import annotations

from functools import cache

import numpy as np

from .errors import ResourceLimitError

DEFAULT_TOL = 1e-10
MAX_PANELS = 10 ** 4
GAUSS_ORDER = 16


@cache
def _gauss_legendre():
    return np.polynomial.legendre.leggauss(GAUSS_ORDER)


def _gauss(f, lo, hi):
    """Gauss-Legendre estimate on each panel [lo_i, hi_i], one call to f."""
    nodes, weights = _gauss_legendre()
    half = 0.5 * (hi - lo)
    x = (lo + half)[:, None] + half[:, None] * nodes
    return half * (f(x.ravel()).reshape(x.shape) @ weights)


def integrate_piecewise(f, breakpoints, tol: float = DEFAULT_TOL) -> float:
    """Integrate f across consecutive [b_i, b_i+1] panels (skips empty ones).

    f maps an array of abscissae to an array of values.  Each pass evaluates
    the halves of every unconverged panel in one call to f; a panel is
    accepted, as the sum over its halves, when that sum matches its own
    estimate within its width's share of tol, and is otherwise replaced by
    its halves.  Raises once more than MAX_PANELS panels were needed.
    """
    pts = np.asarray(breakpoints, dtype=float)
    if pts.size < 2:
        raise ValueError("need at least two breakpoints")
    full = pts[1:] > pts[:-1]
    lo, hi = pts[:-1][full], pts[1:][full]
    if not lo.size:
        return 0.0
    span, total, used = np.sum(hi - lo), 0.0, lo.size
    est = _gauss(f, lo, hi)
    while lo.size:
        mid = 0.5 * (lo + hi)
        left, right = np.split(_gauss(f, np.append(lo, mid), np.append(mid, hi)), 2)
        done = np.abs(left + right - est) <= tol * (hi - lo) / span
        total += float(np.sum(left[done] + right[done]))
        lo, hi = np.append(lo[~done], mid[~done]), np.append(mid[~done], hi[~done])
        est = np.append(left[~done], right[~done])
        used += lo.size
        if used > MAX_PANELS:
            raise ResourceLimitError("integrate_piecewise panel budget exhausted")
    return total
