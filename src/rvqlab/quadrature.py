"""Adaptive composite Gauss-Legendre on array integrands, deliberately
hand-rolled: the one quadrature rule of the package.  The plain and skewed
loss oracles that the closed forms are checked against integrate with it, and
so do the skewed two-antenna bound, the theorem sum and the rate-loss
approximant ``delta2_appx``, those two checked against mpmath instead.
A stack of rows is integrated in one adaptive pass, every sum taken per row
in the row's own panel order: a row's value does not depend on the others.
"""

from __future__ import annotations

from functools import cache

import numpy as np

from .errors import ResourceLimitError

DEFAULT_TOL = 1e-10
MAX_PANELS = 10 ** 4
GAUSS_ORDER = 16
_BLOCK = 256  # panels per integrand call: bounds its temporaries at any depth


@cache
def _gauss_legendre():
    return np.polynomial.legendre.leggauss(GAUSS_ORDER)


def _gauss(f, lo, hi, rows):
    """Gauss-Legendre estimate on each panel [lo_i, hi_i] of row rows[i], in
    calls to f on at most _BLOCK panels.  Each panel is reduced on its own:
    a matrix-vector product rounds it by how many panels share the call."""
    nodes, weights = _gauss_legendre()
    half = 0.5 * (hi - lo)
    x = (lo + half)[:, None] + half[:, None] * nodes
    vals = np.concatenate([f(x[i:i + _BLOCK], rows[i:i + _BLOCK])
                           for i in range(0, len(x), _BLOCK)])
    return half * np.add.reduce(vals * weights, axis=1)


def integrate_piecewise(f, breakpoints, tol=DEFAULT_TOL):
    """Integrate f across consecutive [b_i, b_i+1] panels (skips empty ones).

    Of one row (k,), f maps an array of abscissae to an array of values; of
    a stack (p, k), f(x, rows) reads row rows[i] at x[i], x (P, q), gives
    one integral per row and tol may be one per row.  Each pass evaluates
    the halves of every unconverged panel (the first, the panels too); a
    panel is accepted, as the sum over its halves, when that sum matches its
    own estimate within its width's share of its row's tol, and is otherwise
    replaced by its halves.  Raises once a row needs over MAX_PANELS panels.
    """
    pts = np.asarray(breakpoints, dtype=float)
    if pts.shape[-1] < 2:
        raise ValueError("need at least two breakpoints")
    if pts.ndim == 1:
        one = lambda x, rows: f(x.ravel()).reshape(x.shape)
        return float(integrate_piecewise(one, pts[None], tol)[0])
    p, full = len(pts), pts[:, 1:] > pts[:, :-1]
    rows, lo, hi = np.nonzero(full)[0], pts[:, :-1][full], pts[:, 1:][full]
    span = np.bincount(rows, hi - lo, minlength=p)
    share = np.divide(tol, span, out=np.zeros(p), where=span > 0)
    total, used, est = np.zeros(p), np.bincount(rows, minlength=p), np.zeros(0)
    while lo.size:
        mid, new = 0.5 * (lo + hi), lo.size - est.size  # new: panels without an estimate
        vals = _gauss(f, np.concatenate((lo[:new], lo, mid)), np.concatenate((hi[:new], mid, hi)),
                      np.concatenate((rows[:new], rows, rows)))
        est = np.concatenate((est, vals[:new]))
        left, right = vals[new:new + lo.size], vals[new + lo.size:]
        both = left + right
        todo = ~(np.abs(both - est) <= share[rows] * (hi - lo))  # NaN is not done
        total += np.bincount(rows[~todo], both[~todo], minlength=p)
        lo, hi = np.concatenate((lo[todo], mid[todo])), np.concatenate((mid[todo], hi[todo]))
        rows, est = np.concatenate((rows[todo],) * 2), np.concatenate((left[todo], right[todo]))
        used += np.bincount(rows, minlength=p)
        if used.max() > MAX_PANELS:
            raise ResourceLimitError("integrate_piecewise panel budget exhausted")
    return total
