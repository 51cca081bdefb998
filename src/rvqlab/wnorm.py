"""Distribution of the eigenweighted squared projection of an isotropic vector.

For a unit-norm isotropic complex n-vector f and a spectrum l1 >= ... >= ln,
the weights |f_i|^2 are uniform on the simplex, so w = sum_i l_i |f_i|^2 has
as density the normalized B-spline with knots ln, ..., l1 (Curry and
Schoenberg, 1966).  ``pdf`` and ``cdf`` evaluate it for any n <= MAX_DIM by
the de Boor-Cox recursion (de Boor, 1972), in which every step is a convex
combination of nonnegative terms; a zero-width knot span contributes 0, so
tied eigenvalues need no guard.  Both take a float or an array of points;
``cdf`` also takes a law over a stack of spectra, of any sign.
The same fact samples the law: ``sample_weighted_norms`` takes its draws from
the Monte Carlo kernel, as the plain rows of one-codeword codebooks, whose
simplex weights are the spacings of sorted uniforms (or, at many antennas,
normalized Exp(1) draws).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .codebook import best_quotients
from .linalg import MAX_DIM, check_spectrum
from .rng import RngStream

_CHUNK = 1 << 16


@dataclass(frozen=True)
class WeightedNormLaw:
    """Law of the eigenweighted norm for one spectrum (descending, l1 > 0),
    or for each row of a stack (p, n) its caller has checked, for ``cdf``."""

    lam: np.ndarray
    # the padded knots and their inverse widths, as ``_padded_knots`` gives them
    knots: np.ndarray = field(init=False, repr=False, compare=False)
    inv_widths: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        lam = (np.asarray(self.lam, dtype=float) if np.ndim(self.lam) == 2
               else check_spectrum(self.lam, n_min=2))
        if lam.shape[-1] > MAX_DIM:
            raise ValueError(f"spectrum length exceeds the cap {MAX_DIM}")
        t, inv_widths = _padded_knots(lam)
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "knots", t)
        object.__setattr__(self, "inv_widths", inv_widths)

    @property
    def n(self) -> int:
        return self.lam.shape[-1]

    @property
    def support(self) -> tuple[float, float]:
        return float(self.lam[-1]), float(self.lam[0])


def _padded_knots(lam):
    """Ascending knots ln..l1 padded with n - 1 more copies of l1, of one
    descending spectrum (n,) or a column per row of a stack (p, n), and for
    each order r = 2..n the inverse widths 1/(t[i+r-1] - t[i]), 0 where a
    width is 0."""
    n = lam.shape[-1]
    t = np.concatenate([lam[..., ::-1]] + [lam[..., :1]] * (n - 1), axis=-1).T
    col = t.reshape(t.shape[0], -1)  # widths in columns, also of one spectrum
    return t, tuple(np.divide(1.0, w, out=np.zeros_like(w), where=w > 0)
                    for w in (col[r - 1:] - col[:1 - r] for r in range(2, n + 1)))


def _splines(t, inv_widths, xs: np.ndarray, order: int):
    """De Boor-Cox: the B-splines of an order on the knots t, with
    ``_padded_knots``' inverse widths, at the points xs (flat), one row per
    spline.  t is one column for every point, (k,), which is searched, or a
    column per point, (k, xs.size), which is counted.  Spans are half-open,
    except that the last nonempty one also takes its top knot."""
    k = t.shape[0]
    top, span = ((np.searchsorted(t, t[-1]), np.searchsorted(t, xs, side="right"))
                 if t.ndim == 1 else ((t < t[-1]).sum(axis=0), (t <= xs).sum(axis=0)))
    b = ((np.arange(k - 1)[:, None] == np.minimum(span, top) - 1)
         & (xs <= t[-1])).astype(float)
    d = xs - t.reshape(k, -1)  # t[j] - xs is exactly -d[j]
    for r in range(2, order + 1):
        inv = inv_widths[r - 2][:k - r + 1]
        b = d[:k - r] * inv[:-1] * b[:-1] - d[r:] * inv[1:] * b[1:]
    return b


def _shaped(out, xs):
    return float(out[0]) if xs.ndim == 0 else out.reshape(xs.shape)


def pdf(law: WeightedNormLaw, x):
    """Exact density at x, a float or an array of them: the order n-1 spline
    on the n knots, scaled by (n-1)/(l1-ln).  A flat spectrum reads 0."""
    xs = np.asarray(x, dtype=float)
    n = law.n
    b = _splines(law.knots[:n], law.inv_widths, xs.ravel(), n - 1)[0]
    return _shaped((n - 1) * law.inv_widths[-1][0] * b, xs)


def cdf(law: WeightedNormLaw, x, rows=None):
    """Exact CDF at x, a float or an array of them: the sum of the order n
    splines on the padded knots, whose derivative telescopes to the density.
    Each term is nonnegative, so the low tail keeps its relative precision.
    Over a stack, x (P, q) reads row rows[i] at x[i], its knots gathered
    once for the q points and counted; a one-row stack needs no rows, and
    its column is searched.  Either way gives the same bits."""
    xs = np.asarray(x, dtype=float)
    t, inv_widths = law.knots, law.inv_widths
    if rows is not None:
        t, *inv_widths = (np.repeat(a[:, rows], xs.shape[-1], axis=1)
                          for a in (t, *inv_widths))
    elif t.ndim == 2:
        t = t[:, 0]
    flat = xs.ravel()
    out = np.where(flat >= t[-1], 1.0, _splines(t, inv_widths, flat, law.n).sum(axis=0))
    return _shaped(out, xs)


def sample_weighted_norms(law: WeightedNormLaw, n_samples: int, stream: RngStream) -> np.ndarray:
    """Draw eigenweighted norms, the Monte Carlo kernel's plain rows of
    one-codeword codebooks; fixed chunking keeps the result independent of
    worker layout (chunk c always uses the substream derived with key c)."""
    if n_samples < 1:
        raise ValueError("n_samples must be positive")
    out = np.empty(n_samples)
    for chunk_idx, pos in enumerate(range(0, n_samples, _CHUNK)):
        take = min(_CHUNK, n_samples - pos)
        gens = (stream.derive(chunk_idx).generator(), None)
        out[pos:pos + take] = best_quotients(law.lam[None], [None], 0, take, gens)[0, 0]
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
