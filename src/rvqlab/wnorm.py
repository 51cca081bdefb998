"""Distribution of the eigenweighted squared projection of an isotropic vector.

For a unit-norm isotropic complex n-vector f and a spectrum l1 >= ... >= ln,
the weights |f_i|^2 are uniform on the simplex, so w = sum_i l_i |f_i|^2 has
as density the normalized B-spline with knots ln, ..., l1 (Curry and
Schoenberg, 1966).  ``pdf`` and ``cdf`` evaluate it for any n <= MAX_DIM by
the de Boor-Cox recursion (de Boor, 1972), in which every step is a convex
combination of nonnegative terms; a zero-width knot span contributes 0, so
tied eigenvalues need no guard.  Both take a float or an array of points.
The same fact samples the law: ``sample_weighted_norms`` normalizes n Exp(1)
variables into simplex weights, and so do the plain rows of the Monte Carlo
kernel.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import MAX_DIM, check_spectrum
from .rng import RngStream

_CHUNK = 1 << 16


@dataclass(frozen=True)
class WeightedNormLaw:
    """Law of the eigenweighted norm for one spectrum (descending, l1 > 0)."""

    lam: np.ndarray
    # ascending knots ln..l1 padded with n - 1 more copies of l1, and for each
    # order r = 2..n the inverse widths 1/(t[i+r-1] - t[i]), 0 where a width is 0
    knots: np.ndarray = field(init=False, repr=False, compare=False)
    inv_widths: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        lam = check_spectrum(self.lam, n_min=2)
        if lam.size > MAX_DIM:
            raise ValueError(f"spectrum length exceeds the cap {MAX_DIM}")
        t = np.append(lam[::-1], np.full(lam.size - 1, lam[0]))
        widths = [t[r - 1:] - t[:1 - r] for r in range(2, lam.size + 1)]
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "knots", t)
        object.__setattr__(self, "inv_widths", tuple(
            np.divide(1.0, w, out=np.zeros_like(w), where=w > 0) for w in widths))

    @property
    def n(self) -> int:
        return self.lam.size

    @property
    def support(self) -> tuple[float, float]:
        return float(self.lam[-1]), float(self.lam[0])


def _splines(law: WeightedNormLaw, xs: np.ndarray, order: int, n_knots: int):
    """De Boor-Cox: the B-splines of an order on the first n_knots knots at
    the points xs (flat), one row per spline.  Spans are half-open, except
    that the last nonempty one also takes its top knot."""
    t = law.knots[:n_knots]
    top = np.searchsorted(t, t[-1])  # first copy of the top knot
    span = np.minimum(np.searchsorted(t, xs, side="right"), top) - 1
    b = ((np.arange(n_knots - 1)[:, None] == span) & (xs <= t[-1])).astype(float)
    t = t[:, None]
    for r in range(2, order + 1):
        inv = law.inv_widths[r - 2][:n_knots - r + 1, None]
        b = ((xs - t[:n_knots - r]) * inv[:-1] * b[:-1]
             + (t[r:] - xs) * inv[1:] * b[1:])
    return b


def _shaped(out, xs):
    return float(out[0]) if xs.ndim == 0 else out.reshape(xs.shape)


def pdf(law: WeightedNormLaw, x):
    """Exact density at x, a float or an array of them: the order n-1 spline
    on the n knots, scaled by (n-1)/(l1-ln).  A flat spectrum reads 0."""
    xs = np.asarray(x, dtype=float)
    n = law.n
    b = _splines(law, xs.ravel(), n - 1, n)[0]
    return _shaped((n - 1) * law.inv_widths[-1][0] * b, xs)


def cdf(law: WeightedNormLaw, x):
    """Exact CDF at x, a float or an array of them: the sum of the order n
    splines on the padded knots, whose derivative telescopes to the density.
    Each term is nonnegative, so the low tail keeps its relative precision."""
    xs = np.asarray(x, dtype=float)
    flat = xs.ravel()
    out = np.where(flat >= law.lam[0], 1.0,
                   _splines(law, flat, law.n, law.knots.size).sum(axis=0))
    return _shaped(out, xs)


def sample_weighted_norms(law: WeightedNormLaw, n_samples: int, stream: RngStream) -> np.ndarray:
    """Draw eigenweighted norms; fixed chunking keeps the result independent
    of worker layout (chunk c always uses the substream derived with key c)."""
    if n_samples < 1:
        raise ValueError("n_samples must be positive")
    out = np.empty(n_samples)
    for chunk_idx, pos in enumerate(range(0, n_samples, _CHUNK)):
        take = min(_CHUNK, n_samples - pos)
        e = stream.derive(chunk_idx).generator().standard_exponential((law.n, take))
        out[pos:pos + take] = law.lam @ e
        out[pos:pos + take] /= e.sum(axis=0)
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
