"""Distribution of the eigenweighted squared projection of an isotropic vector.

For a unit-norm isotropic complex n-vector f and a spectrum l1 >= ... >= ln,
the random variable w = sum_i l_i |f_i|^2 has a piecewise-polynomial law on
[ln, l1].  Closed forms are implemented for n = 2, 3, 4 (cdf and pdf) and for
the top segment [l2, l1] at any n; everything else falls back to sampling.
Both take a float or an array of points.

Branch bookkeeping: a segment of zero width (tied eigenvalues) is skipped, so
spectra with repeated trailing values evaluate through the surviving branches.
A branch is refused only when its own denominators involve a gap below
1e-9 * l1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSpectrumError, UnsupportedRegionError, UnsupportedModelError
from .linalg import check_spectrum
from .rng import RngStream

GAP_RTOL = 1e-9
_CHUNK = 1 << 16


@dataclass(frozen=True)
class WeightedNormLaw:
    """Law of the eigenweighted norm for one spectrum (descending, l1 > 0)."""

    lam: np.ndarray

    def __post_init__(self):
        lam = check_spectrum(self.lam, n_min=2)
        object.__setattr__(self, "lam", lam)

    @property
    def n(self) -> int:
        return self.lam.size

    @property
    def support(self) -> tuple[float, float]:
        return float(self.lam[-1]), float(self.lam[0])


def _gap_ok(lam, *pairs) -> bool:
    tol = GAP_RTOL * lam[0]
    return all(lam[i] - lam[j] >= tol for i, j in pairs)


def _require_gaps(lam, *pairs):
    if not _gap_ok(lam, *pairs):
        raise DegenerateSpectrumError(
            "branch denominator gap below 1e-9 of the leading eigenvalue")


# libm pow, as the scalar formulas always had: x ** k on an array rounds
# differently in the last bit
_pow = np.float_power


def _int_rise_fall(a, b, lo, hi):
    # integral of (t-a)(b-t) dt from lo to hi, computed in shifted form
    u0, u1 = lo - a, hi - a
    w = b - a
    return w * (u1 * u1 - u0 * u0) / 2.0 - (_pow(u1, 3) - u0 ** 3) / 3.0


def _by_branch(lam, xs, out, rest, branches):
    """Fill ``out`` where ``rest`` holds from (mask, gap pairs, formula)
    branches; each takes the points of its mask no earlier one took, and checks
    its gaps only when it takes some.  A 0-d ``out`` gives a float."""
    for mask, gaps, formula in branches:
        sel = rest & mask
        if sel.any():
            _require_gaps(lam, *gaps)
            out[sel] = formula(xs[sel])
        rest = rest & ~sel
    return float(out) if out.ndim == 0 else out


def cdf(law: WeightedNormLaw, x):
    """Exact CDF at x, a float or an array of them.

    n in {2, 3, 4}: any x.  n >= 5: only x at or above l2 (or at/below the
    support bottom); interior points below l2 raise, callers sample instead.
    """
    lam, n = law.lam, law.n
    xs = np.asarray(x, dtype=float)
    out = np.where(xs >= lam[0], 1.0, 0.0)
    inside = (xs > lam[-1]) & (xs < lam[0])
    l1, l2 = lam[:2]
    if n == 2:
        top = lambda t: (t - l2) / (l1 - l2)
    else:
        top = lambda t: 1.0 - _pow(l1 - t, n - 1) / np.prod(l1 - lam[1:])
    branches = [(xs >= l2, [(0, j) for j in range(1, n)], top)]
    if n == 3:
        l3 = lam[2]
        branches.append((True, [(0, 2), (1, 2)],
                         lambda t: _pow(t - l3, 2) / ((l1 - l3) * (l2 - l3))))
    elif n == 4:
        l3, l4 = lam[2:]
        branches += [(xs <= l3, [(0, 3), (1, 3), (2, 3)],
                      lambda t: _pow(t - l4, 3) / ((l1 - l4) * (l2 - l4) * (l3 - l4))),
                     (True, [(0, 2), (1, 3), (1, 2), (0, 3)],
                      lambda t: _cdf4_middle(lam, t))]
    elif n > 4 and np.any(inside & (xs < l2)):
        raise UnsupportedRegionError(
            f"no closed-form CDF below the second eigenvalue for n={n}")
    return _by_branch(lam, xs, out, inside, branches)


def _cdf4_middle(lam, x):
    # middle segment [l3, l2]
    l1, l2, l3, l4 = lam
    if l3 - l4 >= GAP_RTOL * l1:
        base = (l3 - l4) ** 2 / ((l1 - l4) * (l2 - l4))
    else:
        base = 0.0
    k = 3.0 / ((l1 - l3) * (l2 - l4))
    part = (_int_rise_fall(l3, l2, l3, x) / (l2 - l3)
            + _int_rise_fall(l4, l1, l3, x) / (l1 - l4))
    return base + k * part


def pdf(law: WeightedNormLaw, x):
    """Exact density at x, a float or an array of them; n in {2, 3, 4} only."""
    lam, n = law.lam, law.n
    if n not in (2, 3, 4):
        raise UnsupportedModelError(f"no closed-form density for n={n}")
    xs = np.asarray(x, dtype=float)
    out = np.zeros(xs.shape)
    inside = (xs >= lam[-1]) & (xs <= lam[0])
    l1, l2 = lam[:2]
    if n == 2:
        return _by_branch(lam, xs, out, inside,
                          [(True, [(0, 1)], lambda t: 1.0 / (l1 - l2))])
    if n == 3:
        l3 = lam[2]
        return _by_branch(lam, xs, out, inside, [
            (xs >= l2, [(0, 1), (0, 2)],
             lambda t: 2.0 * (l1 - t) / ((l1 - l2) * (l1 - l3))),
            (True, [(0, 2), (1, 2)],
             lambda t: 2.0 * (t - l3) / ((l1 - l3) * (l2 - l3)))])
    l3, l4 = lam[2:]
    return _by_branch(lam, xs, out, inside, [
        (xs >= l2, [(0, 1), (0, 2), (0, 3)],
         lambda t: 3.0 * _pow(l1 - t, 2) / ((l1 - l2) * (l1 - l3) * (l1 - l4))),
        (xs <= l3, [(0, 3), (1, 3), (2, 3)],
         lambda t: 3.0 * _pow(t - l4, 2) / ((l1 - l4) * (l2 - l4) * (l3 - l4))),
        (True, [(0, 2), (1, 3), (1, 2), (0, 3)],
         lambda t: 3.0 / ((l1 - l3) * (l2 - l4)) * (
             (t - l3) * (l2 - t) / (l2 - l3) + (t - l4) * (l1 - t) / (l1 - l4)))])


def sample_weighted_norms(law: WeightedNormLaw, n_samples: int, stream: RngStream) -> np.ndarray:
    """Draw eigenweighted norms; fixed chunking keeps the result independent
    of worker layout (chunk c always uses the substream derived with key c)."""
    if n_samples < 1:
        raise ValueError("n_samples must be positive")
    lam = law.lam
    out = np.empty(n_samples)
    pos = 0
    chunk_idx = 0
    while pos < n_samples:
        take = min(_CHUNK, n_samples - pos)
        g = stream.derive(chunk_idx).generator().standard_normal((take, lam.size, 2))
        q = g[..., 0] ** 2 + g[..., 1] ** 2
        out[pos:pos + take] = (q @ lam) / q.sum(axis=1)
        pos += take
        chunk_idx += 1
    return out


def empirical_cdf(law: WeightedNormLaw, n_samples: int, stream: RngStream) -> np.ndarray:
    """Sorted sample of the law; evaluate the empirical CDF by searchsorted."""
    out = sample_weighted_norms(law, n_samples, stream)
    out.sort()
    return out


def empirical_cdf_eval(sorted_samples: np.ndarray, x) -> np.ndarray:
    """Empirical CDF of a sorted sample evaluated at x (scalar or array)."""
    n = sorted_samples.size
    return np.searchsorted(sorted_samples, x, side="right") / n
