"""Beamforming-gain and rate loss of RVQ codebooks: exact laws, approximants,
asymptotics, and Monte Carlo counterparts.

Conventions used throughout:

* ``lam`` is the descending spectrum of the channel Gram matrix; values are
  normalized internally to ``lam[0] = 1`` (every quantity here is either
  scale-free or carries the SNR separately), so scale invariance is exact.
* ``m = 2**bits`` is the codebook size.
* Gain loss is ``(lam[0] - best gain)/lam[0]`` in [0, 1]; rate loss is the
  mean shortfall from the perfect-feedback rate, in bits.

Closed forms are capped at bits <= 20.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from .channel import ChannelRealization, ChannelModel, sample_grams
from .codebook import best_quotients, codeword_generators, group_width
from .errors import (DegenerateSpectrumError, ResourceLimitError,
                     UnsupportedModelError)
from .linalg import check_spectrum
from .quadrature import integrate_piecewise
from .rng import RngStream
from .wnorm import WeightedNormLaw, cdf

MAX_CLOSED_FORM_BITS = 20
GAP_RTOL = 1e-9
_LN2 = math.log(2.0)
# complex entries one block of channels may stack: every H and G and, when a
# skew is present, every U and five n x n matrices per skew (B = AU, its
# conjugate transpose, B'G, B'GB and B'B)
_STACK_ENTRIES = 1 << 20


@dataclass(frozen=True)
class LossEstimate:
    value: float
    method: str
    stderr: float | None = None
    warning: str | None = None
    n: int | None = None  # sample count of a Monte Carlo estimate

    @classmethod
    def from_samples(cls, samples: np.ndarray) -> "LossEstimate":
        """Monte Carlo estimate: the sample mean, its standard error and count."""
        return cls(float(samples.mean()), "monte-carlo",
                   stderr=float(samples.std(ddof=1) / math.sqrt(samples.size)),
                   n=int(samples.size))


@dataclass(frozen=True)
class QuantizationFactors:
    """Ingredients of the large-codebook gain-loss approximant."""

    m: int
    a_n: float      # 1 / (m (n-1) + 1)
    d: float        # 1 - prod_j (l1-l2)/(l1-lj), the decay base
    c: float        # 1 - d as the product itself: d rounds to 1 for n >= 4


@dataclass(frozen=True)
class MiFactors2:
    """Two-antenna rate-loss factors: z = rho(l1-l2)/(1+rho l2), s = (1+rho l2)/rho."""

    z: float
    s: float


def _check_bits(bits: int, cap: int | None = None) -> int:
    if bits < 0:
        raise ValueError("bits must be non-negative")
    if cap is not None and bits > cap:
        raise ResourceLimitError(f"closed forms support bits <= {cap}")
    return 1 << bits


def _normalized(lam):
    lam = check_spectrum(lam, n_min=2)
    return lam / lam[0]


def _require_gap12(lam):
    if lam[0] - lam[1] < GAP_RTOL * lam[0]:
        raise DegenerateSpectrumError("top eigenvalue gap below 1e-9 relative")


def _require_all_gaps(lam):
    if np.min(-np.diff(lam)) < GAP_RTOL * lam[0]:
        raise DegenerateSpectrumError("spectrum has a gap below 1e-9 relative")


def _theorem_sum(m: int, q: float, c: float, k_min: int = 0) -> float:
    """sum_{k=k_min}^{m} d^(m-k) G(m+1) G(m+q-k) / (G(m-k+1) G(m+q)), d = 1 - c,
    k_min 0 or 1: m B(m, q) c^-q I_c(q, m - k_min + 1) (DLMF 8.17), whose
    gamma ratios cancel with t = u^(1/q) in the incomplete beta integral, to
    (m + q)/q or m/q times c^-q int_0^(c^q) (1 - u^(1/q))^(m - k_min) du.  The
    caller passes c, not d: near d = 1 only c keeps its digits."""
    if not 0.0 < c <= 1.0:
        raise DegenerateSpectrumError("decay base must lie in [0, 1)")
    scale = (m + q if k_min == 0 else m) / q
    return scale * c ** -q * _dominant_integral(m, 1.0 / q, c, k_min=k_min)


def _dominant_integral(m: int, k: float, c: float, gamma=0.0, k_min=0) -> float:
    """int_0^(c^(1/k)) (1 - u^k)^(m - k_min) / (1 - gamma u) du, 0 <= gamma < 1,
    on panels graded toward 0 at the scale m^(-1/k), where (1 - u^k)^m decays,
    and, if gamma > 0, toward the top at its distance from the pole 1/gamma."""
    top, scale = c ** (1.0 / k), m ** (-1.0 / k)
    steps = 2.0 ** np.arange(64)
    pole = [top - (1.0 / gamma - top) * steps] if gamma else []
    pts = np.unique(np.clip(np.concatenate([[0.0], scale * steps, *pole]), 0.0, top))

    def f(u):
        with np.errstate(divide="ignore"):
            return np.exp((m - k_min) * np.log1p(-u ** k)) / (1.0 - gamma * u)

    # a tolerance in proportion to the range: its share on the panels near 0
    # that carry the mass must stay above their rounding
    return integrate_piecewise(f, pts, tol=1e-14 * top)


def quantization_factors(lam, bits: int) -> QuantizationFactors:
    """Approximant ingredients for a spectrum and codebook size."""
    lam = _normalized(lam)
    n = lam.size
    m = _check_bits(bits, MAX_CLOSED_FORM_BITS)
    _require_gap12(lam)
    c = float(np.prod((lam[0] - lam[1]) / (lam[0] - lam[1:])))
    q = 1.0 / (n - 1)
    return QuantizationFactors(m=m, a_n=q / (m + q), d=1.0 - c, c=c)


# ---------------------------------------------------------------------------
# gain loss


def delta1_exact(lam, bits: int) -> LossEstimate:
    """Closed-form mean gain loss for two or three antennas."""
    lam = _normalized(lam)
    n = lam.size
    m = _check_bits(bits, MAX_CLOSED_FORM_BITS)
    if n == 2:
        _require_gap12(lam)
        return LossEstimate((1.0 - lam[1]) / (m + 1.0), "exact")
    if n == 3:
        _require_all_gaps(lam)
        # 1 - r as a quotient: 1 - r formed from r = (l2-l3)/(l1-l3) rounds,
        # and the theorem sum amplifies that about 350-fold near r = 1
        c = (lam[0] - lam[1]) / (lam[0] - lam[2])
        r = 1.0 - c
        s = _theorem_sum(m, 0.5, c, k_min=1)
        value = ((1.0 - lam[2]) * r ** m + (1.0 - lam[1]) * s) / (2.0 * m + 1.0)
        return LossEstimate(value, "exact")
    raise UnsupportedModelError("closed form available for 2 or 3 antennas only")


def delta1_appx(lam, bits: int) -> LossEstimate:
    """Dominant-segment approximant of the mean gain loss (any n >= 2).

    Exact for n = 2 and for rank-one spectra; a provable under-estimate in
    general with relative defect bounded by epsilon_b.
    """
    lam = _normalized(lam)
    qf = quantization_factors(lam, bits)
    s = _theorem_sum(qf.m, 1.0 / (lam.size - 1), qf.c)
    return LossEstimate(qf.a_n * (1.0 - lam[1]) * s, "approx")


def _deficit_integrand(lam, bits: int, deficit_cdf=None):
    """(f, breakpoints): f(u) = F(l1 - u)**m over the gain deficit u, F the
    gain-law CDF of a normalized spectrum, or the law whose G = 1 - F the
    caller's deficit_cdf(u) gives; of a stack (p, n), rows of breakpoints.

    f is exp(m log1p(-G)), G = 1 - F the CDF of the deficit law (spectrum
    l1 - lam), whose low tail is a sum of positive terms: G keeps its
    relative precision as u -> 0, where 1 - F, or l1 - x at a rounded x,
    loses it m-fold.  Above each panel's lower end F**m decays over no less
    than about 1/(4m) of the panel, so each panel is graded toward that end
    down to 1/m of its width: on a coarse panel every node misses the mass at
    large m and the estimate reads 0.  F**m falls as u grows: breakpoints
    past the first where it reads 0 are moved onto it, dropping dead panels.
    """
    m = _check_bits(bits)
    edges = lam[..., :1] - lam
    if deficit_cdf is None:  # the knots of every deficit law, built once
        law = WeightedNormLaw(np.atleast_2d(edges)[:, ::-1])
        deficit_cdf = lambda u, *rows: cdf(law, u, *rows)

    def f(u, *rows):
        g = np.minimum(deficit_cdf(u, *rows), 1.0)  # rounding near l_n
        with np.errstate(divide="ignore"):
            return np.exp(m * np.log1p(-g))

    lo, hi = edges[..., :-1, None], edges[..., 1:, None]
    graded = np.concatenate([lo + (hi - lo) * 0.5 ** np.arange(bits, 0, -1), hi], axis=-1)
    pts = np.concatenate([np.zeros_like(edges[..., :1]),
                          graded.reshape(*edges.shape[:-1], -1)], axis=-1)
    at = f(pts) if pts.ndim == 1 else f(pts, np.arange(len(pts)))
    return f, np.minimum(pts, np.where(at == 0.0, pts, np.inf).min(axis=-1, keepdims=True))


def _normalized_rows(lam):
    """``_normalized`` of one spectrum, or of each row of a stack (p, n),
    checked at once; the first bad row raises its own call's error."""
    if np.ndim(lam) != 2:
        return _normalized(lam)
    lam = np.asarray(lam, dtype=float)
    with np.errstate(invalid="ignore"):  # inf - inf
        good = ((lam.shape[1] >= 2) & np.isfinite(lam).all(axis=1)
                & (lam >= 0).all(axis=1) & (np.diff(lam, axis=1) <= 0).all(axis=1)
                & (lam[:, :1] > 0).all(axis=1))
    if not good.all():
        _normalized(lam[np.argmin(good)])
    return lam / lam[:, :1]


def _quadrature_estimates(values):
    """The estimate of one spectrum's value, or the list of a stack's."""
    est = [LossEstimate(float(v), "quadrature") for v in np.atleast_1d(values)]
    return est if np.ndim(values) else est[0]


def delta1_quadrature(lam, bits: int):
    """Deterministic oracle, to 1e-12: integrate the gain-law CDF to the m-th
    power; of a stack (p, n), one estimate per row in one pass, each its own call's."""
    f, pts = _deficit_integrand(_normalized_rows(lam), bits)
    return _quadrature_estimates(integrate_piecewise(f, pts, tol=1e-12))


def delta1_miso(n_t: int, bits: int) -> LossEstimate:
    """Rank-one (single receive stream) closed form: m B(m, n/(n-1)), which
    u^(n-1) = t turns into int_0^1 (1 - u^(n-1))^m du."""
    if n_t < 2:
        raise ValueError("n_t must be at least 2")
    m = _check_bits(bits, MAX_CLOSED_FORM_BITS)
    return LossEstimate(_dominant_integral(m, n_t - 1.0, 1.0), "exact")


def delta1_asympt(lam, bits: int) -> LossEstimate:
    """Large-codebook asymptote of the mean gain loss (n >= 2).

    This is the genuine limit of the closed-form approximant, so the ratio
    delta1_appx / delta1_asympt tends to one as bits grow; at n = 2 it is
    (1 - l2/l1) 2^-b.
    """
    lam = _normalized(lam)
    n = lam.size
    _check_bits(bits)
    _require_gap12(lam)
    q = 1.0 / (n - 1)
    gap_ratio = float(np.prod((lam[0] - lam[1]) / (lam[0] - lam[1:])))
    value = (math.gamma(q) * 2.0 ** (-bits * q) / (n - 1.0)
             * (1.0 - lam[1]) * gap_ratio ** -q)
    return LossEstimate(value, "asymptotic")


def epsilon_b(lam, bits: int) -> float:
    """Relative-defect bound of delta1_appx (can exceed 1 at small bits)."""
    return 2.0 ** epsilon_b_log2(lam, bits)


def epsilon_b_log2(lam, bits: int) -> float:
    """log2 of the defect bound; usable far past floating-point underflow."""
    lam = _normalized(lam)
    qf = quantization_factors(lam, bits)
    if lam[1] - lam[-1] <= 0.0 or qf.d == 0.0:
        return -math.inf
    appx = delta1_appx(lam, bits).value
    return (math.log2(lam[1] - lam[-1]) + qf.m * math.log2(qf.d)
            - math.log2(appx))


def delta1_mc(channel: ChannelRealization, bits: int, n_codebooks: int,
              stream: RngStream) -> LossEstimate:
    """Monte Carlo mean gain loss over fresh codebooks for one channel."""
    return sampled_losses(channel, [None], bits, n_codebooks, stream)[0]


def delta1_closed(lam, bits: int) -> LossEstimate:
    """Best closed form for the dimension: exact (n <= 3) or approximant.
    When a gap it needs is below 1e-9 relative, it returns the quadrature
    oracle's value, at any n, with a warning."""
    lam = _normalized(lam)
    try:
        if lam.size <= 3:
            return delta1_exact(lam, bits)
        return delta1_appx(lam, bits)
    except DegenerateSpectrumError:
        est = delta1_quadrature(lam, bits)
        return LossEstimate(est.value, est.method, warning="degenerate-gap fallback")


# ---------------------------------------------------------------------------
# rate loss


def mi_factors2(lam, rho: float) -> MiFactors2:
    # z pairs rho with raw eigenvalues; it is invariant under
    # (lam, rho) -> (c lam, rho/c), so no normalization here
    lam = check_spectrum(lam)
    if lam.size != 2:
        raise UnsupportedModelError("two-antenna factors only")
    if rho <= 0:
        raise ValueError("rho must be positive")
    return MiFactors2(z=rho * (lam[0] - lam[1]) / (1.0 + rho * lam[1]),
                      s=(1.0 + rho * lam[1]) / rho)


@cache
def _gauss_laguerre():
    return np.polynomial.laguerre.laggauss(64)


def delta2_exact2(lam, rho: float, bits: int) -> LossEstimate:
    """Two-antenna closed-form mean rate loss.

    ln2 * loss = z int_0^1 s^m / (1 + z s) ds (Euler's integral, DLMF 15.6.1)
    = z/(m+1) int_0^inf e^-v / (1 + z exp(-v/(m+1))) dv, by Gauss-Laguerre.
    For m < 16 and z >= 1 that integrand steps too sharply for the rule, and
    the first integral's polynomial division, m terms in 1/z, is used instead.
    """
    lam = check_spectrum(lam)
    if lam.size != 2:
        raise UnsupportedModelError("two-antenna closed form only")
    _require_gap12(lam)
    m = _check_bits(bits, MAX_CLOSED_FORM_BITS)
    z = mi_factors2(lam, rho).z
    if m < 16 and z >= 1.0:
        u = np.arange(m, dtype=float)
        series = float(np.sum(((-1.0) ** u) * z ** (-u) / (m - u)))
        delta = ((-1.0) ** m) * z ** (-float(m)) * math.log1p(z) + series
    else:
        v, w = _gauss_laguerre()
        delta = z / (m + 1.0) * float(w @ (1.0 / (1.0 + z * np.exp(-v / (m + 1.0)))))
    return LossEstimate(delta / _LN2, "exact")


def delta2_quadrature(lam, rho: float, bits: int):
    """Deterministic rate-loss oracle by direct integration, to 1e-12 bits; of
    a stack (p, n) of spectra, one estimate per row, as ``delta1_quadrature``."""
    f, pts = _deficit_integrand(_normalized_rows(lam), bits)
    if rho <= 0:
        raise ValueError("rho must be positive")
    rho_hat = rho * np.asarray(lam, dtype=float)[..., 0]  # rho and scale act jointly

    def g(u, *rows):
        return f(u, *rows) / (1.0 + (rho_hat[rows[0], None] if rows else rho_hat) * (1.0 - u))

    value = integrate_piecewise(g, pts, tol=1e-12 * _LN2 / np.maximum(rho_hat, 1.0))
    return _quadrature_estimates(rho_hat * value / _LN2)


def delta2_appx(lam, rho: float, bits: int) -> LossEstimate:
    """Dominant-segment rate-loss approximant for n >= 3.

    Its outer series sum_i gamma^i int_0^c s^(q_i - 1) (1-s)^m ds, with
    q_i = (i+1)/(n-1) and c = 1 - d, sums under the integral; with
    s = u^(n-1) it is (n-1) int_0^(c^(1/(n-1))) (1 - u^(n-1))^m / (1 - gamma u) du,
    at gamma = 0 the theorem sum's integral.
    """
    lam = check_spectrum(lam)
    n = lam.size
    if n < 3:
        raise UnsupportedModelError("use delta2_exact2 for two antennas")
    if rho <= 0:
        raise ValueError("rho must be positive")
    qf = quantization_factors(lam, bits)
    a = float(np.exp(np.mean(np.log(lam[0] - lam[1:]))))
    gamma = rho * a / (1.0 + rho * lam[0])
    value = _dominant_integral(qf.m, n - 1.0, qf.c, gamma)
    return LossEstimate(rho * a / (_LN2 * (1.0 + rho * lam[0])) * value, "approx")


def epsilon_b_prime(lam, rho: float, bits: int) -> float:
    """Relative-defect bound of delta2_appx (can exceed 1 at small bits)."""
    return 2.0 ** epsilon_b_prime_log2(lam, rho, bits)


def epsilon_b_prime_log2(lam, rho: float, bits: int) -> float:
    lam = check_spectrum(lam)
    qf = quantization_factors(lam, bits)
    if lam[1] - lam[-1] <= 0.0 or qf.d == 0.0:
        return -math.inf
    appx = delta2_appx(lam, rho, bits).value
    return (math.log2(rho * (lam[1] - lam[-1]) / ((1.0 + rho * lam[-1]) * _LN2))
            + qf.m * math.log2(qf.d) - math.log2(appx))


def delta2_asympt(lam, rho: float, bits: int, method: str = "prop3") -> LossEstimate:
    """Large-codebook rate-loss asymptotes.

    Two published variants differ in SNR weighting and bracket shape; both
    are exposed and reported side by side rather than adjudicated.
    """
    lam = check_spectrum(lam)
    n = lam.size
    if rho <= 0:
        raise ValueError("rho must be positive")
    m = _check_bits(bits)
    _require_gap12(lam)
    c = float(np.prod((lam[0] - lam[1]) / (lam[0] - lam[1:])))  # 1 - d
    kappa = math.gamma(1.0 / (n - 1))
    if method == "prop3":
        if n == 2:
            z = mi_factors2(lam, rho).z
            if z < 1.0:
                return LossEstimate(z / (_LN2 * (m + 1.0)), "asymptotic")
            if m < 2:
                raise ValueError("z >= 1 branch needs at least 1 bit")
            if z == 1.0:
                return LossEstimate(1.0 / (_LN2 * 2.0 * (m - 1.0)), "asymptotic")
            return LossEstimate((z - 1.0) / (_LN2 * 2.0 * z * math.log(z) * (m - 1.0)),
                                "asymptotic")
        value = (2.0 ** (-bits / (n - 1.0)) / (_LN2 * (n - 1.0))
                 * rho * (lam[0] - lam[1]) / (1.0 + rho * lam[0])
                 * (kappa + (1.0 - c) / c))
        return LossEstimate(value, "asymptotic")
    if method == "corollary3":
        value = (2.0 ** (-bits / (n - 1.0)) * kappa / (_LN2 * (n - 1.0))
                 * rho * (lam[0] - lam[1]) / (1.0 + rho * lam[1])
                 * (1.0 + (1.0 - c) / (c * (n - 1.0))))
        return LossEstimate(value, "asymptotic")
    raise ValueError(f"unknown method {method!r}")


def delta2_mc(channel: ChannelRealization, rho: float, bits: int,
              n_codebooks: int, stream: RngStream) -> LossEstimate:
    """Monte Carlo mean rate loss over fresh codebooks for one channel."""
    return sampled_losses(channel, [None], bits, n_codebooks, stream, rho)[0]


# ---------------------------------------------------------------------------
# sampled losses: every Monte Carlo estimate goes through these two functions


def _check_sampling(bits: int, rho, n_draws: int, what: str):
    _check_bits(bits)
    if rho is not None and rho <= 0:
        raise ValueError("rho must be positive")
    if n_draws < 2:
        raise ValueError(f"need at least 2 {what} for a standard error")


def _loss_samples(grams: np.ndarray, spectra: np.ndarray, skews, bits: int,
                  n_codebooks: int, gens, rho) -> np.ndarray:
    """The (c, len(skews), n_codebooks) losses of fresh codebooks on c Grams
    and their descending spectra, from one kernel call.  A skew needs the
    eigenvectors U, from one stacked solve with columns reversed to the
    spectra's order, and stacked products give its (B'GB, B'B), B = AU."""
    if any(a is not None and a.shape != grams.shape[1:] for a in skews):
        raise ValueError("skew and channel dimensions disagree")
    if (spectra[:, 0] <= 0).any():
        raise ValueError("zero channel")
    matrices, pairs = [a for a in skews if a is not None], iter(())
    if matrices:  # U, columns descending, and B = AU for every skew
        b = np.array(matrices)[:, None] @ np.linalg.eigh(grams)[1][..., ::-1]
        bh = b.conj().swapaxes(-1, -2)
        pairs = zip(bh @ grams @ b, bh @ b)
    best = best_quotients(spectra, [a if a is None else next(pairs) for a in skews],
                          bits, n_codebooks, gens)
    top = spectra[:, :1, None]
    if rho is None:
        return (top - best) / top
    return np.log2(1.0 + rho * top) - np.log2(1.0 + rho * best)


def sampled_losses(channel: ChannelRealization, skews, bits: int,
                   n_codebooks: int, stream: RngStream,
                   rho: float | None = None) -> list:
    """One Monte Carlo ``LossEstimate`` per codebook for one channel.

    ``skews`` lists the codebooks: None is plain RVQ, a matrix A selects on
    (f'A'GAf)/(f'A'Af).  All share their codewords (common random numbers).
    ``rho`` None gives the gain loss (top - best)/top, a value the rate loss
    in bits at that power.
    """
    _check_sampling(bits, rho, n_codebooks, "codebooks")
    gens = codeword_generators(stream, any(a is not None for a in skews))
    samples, = _loss_samples(channel.gram[None], channel.spectrum[None], skews,
                             bits, n_codebooks, gens, rho)
    return [LossEstimate.from_samples(s) for s in samples]


def _channel_means(model: ChannelModel, skews, bits: int, n_channels: int,
                   n_codebooks: int, stream: RngStream, rho) -> np.ndarray:
    """The (n_channels, len(skews)) channel means.  Group g, the next
    ``group_width`` channels, draws from stream.derive(g): its channels from
    the "channel" child in one stacked draw, its codewords from "codebooks".
    Memory blocks cut a group, reading each generator in the same order."""
    n = model.n_t
    s = sum(a is not None for a in skews)
    block = max(1, _STACK_ENTRIES // (n * (model.n_r + n * (2 + 5 * s if s else 1))))
    width = group_width(n, bits, n_codebooks)
    means = []
    for g, first in enumerate(range(0, n_channels, width)):
        sub, end = stream.derive(g), min(first + width, n_channels)
        channels = sub.derive("channel").generator()
        gens = codeword_generators(sub.derive("codebooks"), s > 0)
        for lo in range(first, end, block):
            grams, spectra = sample_grams(model, channels, min(block, end - lo))
            means.append(_loss_samples(grams, spectra, skews, bits, n_codebooks,
                                       gens, rho).mean(axis=2))
    return np.concatenate(means)


def channel_averaged_losses(model: ChannelModel, skews, bits: int,
                            n_channels: int, n_codebooks: int,
                            stream: RngStream, rho: float | None = None) -> list:
    """Channel- and codebook-averaged ``sampled_losses`` of several codebooks,
    the standard error taken over ``_channel_means``."""
    _check_sampling(bits, rho, n_channels, "channel draws")
    means = _channel_means(model, skews, bits, n_channels, n_codebooks, stream, rho)
    return [LossEstimate.from_samples(row) for row in means.T]


def avg_delta_snr(model: ChannelModel, bits: int, n_channels: int,
                  n_codebooks: int, stream: RngStream) -> LossEstimate:
    """Channel- and codebook-averaged normalized gain loss."""
    return channel_averaged_losses(model, [None], bits, n_channels,
                                   n_codebooks, stream)[0]


def avg_delta_mi(model: ChannelModel, rho: float, bits: int, n_channels: int,
                 n_codebooks: int, stream: RngStream) -> LossEstimate:
    """Channel- and codebook-averaged rate loss in bits."""
    return channel_averaged_losses(model, [None], bits, n_channels,
                                   n_codebooks, stream, rho)[0]
