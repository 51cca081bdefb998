"""Adaptive quadrature: composite Gauss-Legendre for the loss oracles, and
Simpson for the skew integrals and as the oracle's check in the tests.

Deliberately hand-rolled.  The loss oracles that the closed forms are
checked against integrate with it, and so does the rate-loss approximant
``delta2_appx``, whose reference is the mpmath route of its tests instead.
"""

from __future__ import annotations

from functools import cache

import numpy as np

from .errors import ResourceLimitError

DEFAULT_TOL = 1e-10
MAX_INTERVALS = 10 ** 6
MAX_PANELS = 10 ** 4
GAUSS_ORDER = 16


def adaptive_simpson(f, a: float, b: float, tol: float = DEFAULT_TOL,
                     max_intervals: int = MAX_INTERVALS) -> float:
    """Integrate f over [a, b] to absolute tolerance tol.

    Classic recursive Simpson with Richardson acceptance, run on an explicit
    stack; raises if the interval budget is exhausted before convergence.
    """
    if not b > a:
        if b == a:
            return 0.0
        raise ValueError("integration bounds must satisfy a <= b")
    fa, fb = f(a), f(b)
    mid = 0.5 * (a + b)
    fm = f(mid)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    stack = [(a, b, fa, fm, fb, whole, tol)]
    total = 0.0
    used = 0
    while stack:
        x0, x1, f0, fmid, f1, s, t = stack.pop()
        used += 1
        if used > max_intervals:
            raise ResourceLimitError("adaptive_simpson interval budget exhausted")
        xm = 0.5 * (x0 + x1)
        xl = 0.5 * (x0 + xm)
        xr = 0.5 * (xm + x1)
        fl, fr = f(xl), f(xr)
        sl = (xm - x0) / 6.0 * (f0 + 4.0 * fl + fmid)
        sr = (x1 - xm) / 6.0 * (fmid + 4.0 * fr + f1)
        err = sl + sr - s
        # 15x factor from the Richardson error model of Simpson halving
        if abs(err) <= 15.0 * t or (x1 - x0) < 1e-15 * (b - a):
            total += sl + sr + err / 15.0
        else:
            half = 0.5 * t
            stack.append((x0, xm, f0, fl, fmid, sl, half))
            stack.append((xm, x1, fmid, fr, f1, sr, half))
    return total


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
