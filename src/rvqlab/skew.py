"""Skewed random codebooks: a fixed full-rank matrix biases the isotropic
codewords toward its dominant singular directions before normalization.

Selection maximizes the generalized quotient (f' M f)/(f' N f) with
M = A'GA, N = A'A and G the channel Gram matrix; the loss is measured
against the perfect-feedback gain of G.  The two-antenna case admits an
exact integral through the eigenvalues of the pencil M - xN.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelModel, ChannelRealization, sample_channel, transmit_covariance
from .errors import (DegenerateSpectrumError, SingularCovarianceError,
                     SingularSkewError, UnsupportedModelError)
from .linalg import hermitian_eig
from .loss import LossEstimate, sampled_losses
from .quadrature import adaptive_simpson
from .rng import RngStream

RANK_RTOL = 1e-12
_ENDPOINT_INSET = 1e-12
_NAN = float("nan")


@dataclass(frozen=True)
class SkewMatrix:
    a: np.ndarray
    eig_ata: np.ndarray = None
    eig_aat: np.ndarray = None

    def __post_init__(self):
        a = np.asarray(self.a, dtype=complex)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("skew matrix must be square")
        ata = hermitian_eig(a.conj().T @ a, vectors=False).values
        aat = hermitian_eig(a @ a.conj().T, vectors=False).values
        if ata[-1] < RANK_RTOL * ata[0]:
            raise SingularSkewError("skew matrix is rank deficient")
        if np.max(np.abs(ata - aat)) > 1e-10 * ata[0]:
            raise SingularSkewError("inconsistent singular spectra")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "eig_ata", ata)
        object.__setattr__(self, "eig_aat", aat)

    @property
    def n_t(self) -> int:
        return self.a.shape[0]


@dataclass(frozen=True)
class SkewDiagnostics:
    m1: float
    m2: float
    d_sk: float
    l1: float
    l2: float
    l3: float
    l4: float
    l5: float
    l6: float
    chi_ha: float
    chi_a: float


@dataclass(frozen=True)
class SkewSearchResult:
    skew: SkewMatrix
    objective: float
    n_evals: int


def _pair(channel: ChannelRealization, skew: SkewMatrix):
    a = skew.a
    if a.shape[0] != channel.gram.shape[0]:
        raise ValueError("skew and channel dimensions disagree")
    m = a.conj().T @ channel.gram @ a
    n = a.conj().T @ a
    return m, n


def delta1_sk_mc(channel: ChannelRealization, skew: SkewMatrix, bits: int,
                 n_codebooks: int, stream: RngStream) -> LossEstimate:
    """Monte Carlo gain loss of the skewed codebook for one channel."""
    return sampled_losses(channel, [skew.a], bits, n_codebooks, stream)[0]


def _pencil_pair(b: np.ndarray) -> tuple[float, float]:
    """Eigenvalues (larger, smaller) of a 2x2 Hermitian matrix."""
    half_tr = 0.5 * (b[0, 0].real + b[1, 1].real)
    rad = math.hypot(0.5 * (b[0, 0].real - b[1, 1].real), abs(b[0, 1]))
    return half_tr + rad, half_tr - rad


def delta1_sk_exact2(channel: ChannelRealization, skew: SkewMatrix, bits: int,
                     tol: float = 1e-9) -> LossEstimate:
    """Exact two-antenna skewed-codebook loss by integrating the pencil CDF.

    The integrand is smooth inside the gain support but 0/0-prone where an
    eigenvalue vanishes, so the endpoints are inset by 1e-12 of the span.
    """
    if channel.gram.shape[0] != 2:
        raise UnsupportedModelError("exact integral is two-antenna only")
    if bits < 0:
        raise ValueError("bits must be non-negative")
    m_pow = 1 << bits
    lam = channel.spectrum
    lo, hi = float(lam[1]), float(lam[0])
    if hi - lo < 1e-12 * hi:
        return LossEstimate(0.0, "quadrature")
    m_mat, n_mat = _pair(channel, skew)

    def integrand(x):
        g1, g2 = _pencil_pair(m_mat - x * n_mat)
        return (max(-g2, 0.0) / (max(g1, 0.0) + max(-g2, 0.0))) ** m_pow

    inset = _ENDPOINT_INSET * (hi - lo)
    value = adaptive_simpson(integrand, lo + inset, hi - inset, tol=tol * hi) / hi
    return LossEstimate(value, "quadrature")


def delta1_sk_upper2(channel: ChannelRealization, skew: SkewMatrix, bits: int) -> LossEstimate:
    """Two-antenna upper bound on the skewed-codebook loss.

    Bounds the pencil-CDF integrand pointwise: the negative eigenvalue from
    above by x lam1(A'A) - lam2(A'GA), the positive one from below by
    (lam1 - x) lam_min(A'A).  When A'A is a scalar matrix the two extreme
    eigenvalues agree, the denominator telescopes to a constant, and the
    integral collapses to a closed form; otherwise the bounding integrand is
    integrated by adaptive quadrature.  Equals the exact loss at A = I.
    """
    if channel.gram.shape[0] != 2:
        raise UnsupportedModelError("bound is two-antenna only")
    if bits < 0:
        raise ValueError("bits must be non-negative")
    m_pow = 1 << bits
    lam = channel.spectrum
    m_mat, _ = _pair(channel, skew)
    b = float(hermitian_eig(m_mat, vectors=False).values[1])
    a_top = float(skew.eig_ata[0])
    a_bot = float(skew.eig_ata[-1])
    l1, l2 = float(lam[0]), float(lam[1])
    den = l1 * a_top - b
    if den <= 0:
        raise DegenerateSpectrumError("bound denominator vanished")
    if a_top - a_bot <= 1e-12 * a_top:
        c4 = (l2 * a_top - b) / den
        value = (1.0 - b / (l1 * a_top) * (1.0 - c4 ** m_pow)
                 - l2 / l1 * c4 ** m_pow) / (m_pow + 1.0)
        return LossEstimate(value, "bound")

    def integrand(x):
        num = x * a_top - b
        return (num / ((l1 - x) * a_bot + num)) ** m_pow

    value = adaptive_simpson(integrand, l2, l1, tol=1e-12 * (l1 - l2)) / l1
    return LossEstimate(value, "bound")


def dsk_factor(channel: ChannelRealization, skew: SkewMatrix) -> float:
    """Decay base of the skewed-codebook bound (three or more antennas).

    Unlike its unskewed counterpart this quantity is routinely negative; it
    only enters bounds through 1/(1 - d_sk).
    """
    n_t = channel.gram.shape[0]
    if n_t < 3:
        raise UnsupportedModelError("defined for three or more antennas")
    m_mat, _ = _pair(channel, skew)
    mu = hermitian_eig(m_mat, vectors=False).values
    num = mu[0] - channel.spectrum[-1] * skew.eig_ata[0]
    dens = mu[0] - mu[1:]
    if np.min(dens) < 1e-9 * mu[0]:
        raise DegenerateSpectrumError("effective spectrum has a degenerate top gap")
    return float(1.0 - np.prod(num / dens))


def delta1_sk_asympt(channel: ChannelRealization, skew: SkewMatrix, bits: int) -> LossEstimate:
    """Large-codebook upper-bound trend of the skewed loss, four+ antennas."""
    n_t = channel.gram.shape[0]
    if n_t == 3:
        raise UnsupportedModelError(
            "three-antenna trend needs an unspecified additive term; "
            "see delta1_sk_partial3")
    if n_t < 3:
        raise UnsupportedModelError("use delta1_sk_exact2 for two antennas")
    if bits < 0:
        raise ValueError("bits must be non-negative")
    d_sk = dsk_factor(channel, skew)
    if 1.0 - d_sk < 1e-12:
        raise DegenerateSpectrumError("decay base reached 1")
    lam = channel.spectrum
    m_mat, _ = _pair(channel, skew)
    mu1 = float(hermitian_eig(m_mat, vectors=False).values[0])
    kappa = math.gamma(1.0 / (n_t - 1))
    bracket = mu1 / (skew.eig_ata[0] * lam[0]) - lam[-1] / lam[0]
    value = (kappa * 2.0 ** (-bits / (n_t - 1.0)) / (n_t - 1.0)
             * (1.0 + d_sk / ((1.0 - d_sk) * (n_t - 1.0))) * bracket)
    return LossEstimate(value, "asymptotic")


def delta1_sk_partial3(channel: ChannelRealization, skew: SkewMatrix, bits: int) -> LossEstimate:
    """Computable part of the three-antenna bound trend.

    The published trend carries an additive term whose constant is never
    pinned down; only the explicit part is evaluated here, so this is a
    partial bound, not a certified one.
    """
    n_t = channel.gram.shape[0]
    if n_t != 3:
        raise UnsupportedModelError("three-antenna form only")
    if bits < 0:
        raise ValueError("bits must be non-negative")
    d_sk = dsk_factor(channel, skew)
    if 1.0 - d_sk < 1e-12:
        raise DegenerateSpectrumError("decay base reached 1")
    lam = channel.spectrum
    m_mat, _ = _pair(channel, skew)
    mu1 = float(hermitian_eig(m_mat, vectors=False).values[0])
    core = (1.0 + math.sqrt(math.pi) / 2.0
            * (mu1 / skew.eig_ata[0] - lam[2])
            * (1.0 + d_sk / (2.0 * (1.0 - d_sk))))
    value = 2.0 ** (-bits / 2.0) * core / lam[0]
    return LossEstimate(value, "asymptotic",
                        warning="partial bound - not a certified upper bound")


def _safe_ratio(num: float, den: float, scale: float) -> float:
    if abs(den) < 1e-14 * max(scale, 1e-300):
        return _NAN
    return num / den


def skew_diagnostics(channel: ChannelRealization, skew: SkewMatrix,
                     alpha: float) -> SkewDiagnostics:
    """Conditioning metrics guiding the choice of a skewing matrix.

    m1 in [0,1] vanishes when the skew's left singular directions match the
    channel's; m2 >= 1 is the effective-channel eigenvalue spread and is 1
    for the channel-inverting skew.  Degenerate spectra yield NaN in the
    affected fields rather than a failure.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    lam = channel.spectrum
    m_mat, _ = _pair(channel, skew)
    mu = hermitian_eig(m_mat, vectors=False).values
    ata = skew.eig_ata
    aat = skew.eig_aat
    s = float(mu[0])
    m1 = 1.0 - _safe_ratio(float(mu[0]), float(ata[0] * lam[0]), float(ata[0] * lam[0]))
    m2 = _safe_ratio(float(mu[0]), float(mu[-1]), s)
    chi_ha = _safe_ratio(float(mu[0]), float(mu[1]), s)
    chi_a = _safe_ratio(float(aat[0]), float(aat[1]), float(aat[0]))
    l1 = _safe_ratio(float(aat[0]), float(mu[1]), s)
    l2 = _safe_ratio(float(mu[0]), float(mu[2]), s) if mu.size >= 3 else _NAN
    l3 = _safe_ratio(float(aat[0]), float(mu[0]), s)
    num = float(mu[0] - lam[-1] * ata[0])
    dens = mu[0] - mu[1:]
    if np.min(dens) < 1e-14 * s:
        d_sk = _NAN
        l4 = _NAN
    else:
        l4 = float(np.prod(dens / num)) if abs(num) > 1e-14 * s else _NAN
        d_sk = float(1.0 - np.prod(num / dens))
    l5 = _safe_ratio(num, float(ata[0]), float(ata[0]))
    l6 = alpha * m1 + (1.0 - alpha) * m2
    return SkewDiagnostics(m1=m1, m2=m2, d_sk=d_sk, l1=l1, l2=l2, l3=l3,
                           l4=l4, l5=l5, l6=l6, chi_ha=chi_ha, chi_a=chi_a)


def build_skew_a2(sigma_t: np.ndarray, alpha: float, beta: float) -> SkewMatrix:
    """Statistics-based skew: U (alpha L^beta + (1-alpha) L^(-1/2)) U'.

    Interpolates between a covariance power (alpha=1) and the inverse-root
    whitener (alpha=0); alpha=1, beta=0 gives the identity.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    if beta < 0.0:
        raise ValueError("beta must be non-negative")
    eig = hermitian_eig(np.asarray(sigma_t, dtype=complex))
    vals = eig.values
    if vals[-1] < RANK_RTOL * vals[0] or vals[0] <= 0:
        raise SingularCovarianceError("covariance must be positive definite")
    mix = alpha * vals ** beta + (1.0 - alpha) * vals ** (-0.5)
    u = eig.vectors
    return SkewMatrix((u * mix) @ u.conj().T)


# ---------------------------------------------------------------------------
# direct search over skewing matrices


def _n_params(dim: int) -> int:
    return 2 * dim * (dim - 1) + dim


def _unitary_from_angles(dim: int, angles: np.ndarray) -> np.ndarray:
    u = np.eye(dim, dtype=complex)
    idx = 0
    for i in range(dim - 1):
        for j in range(i + 1, dim):
            th, ph = angles[idx], angles[idx + 1]
            idx += 2
            c, s = math.cos(th), math.sin(th)
            rot = np.eye(dim, dtype=complex)
            rot[i, i] = c
            rot[j, j] = c
            rot[i, j] = -s * np.exp(1j * ph)
            rot[j, i] = s * np.exp(-1j * ph)
            u = rot @ u
    return u


def _candidate(dim: int, base: np.ndarray, params: np.ndarray) -> np.ndarray:
    npair = dim * (dim - 1)
    q = _unitary_from_angles(dim, params[:npair])
    r = _unitary_from_angles(dim, params[npair:2 * npair])
    d = np.exp(np.clip(params[2 * npair:], -20.0, 20.0))
    return base @ (q * d) @ r.conj().T


def _skew_objective(grams, tops, alpha: float):
    """Search objective a -> alpha E[m1] + (1-alpha) E[m2] over the design
    channels (Gram matrices, top eigenvalues), from one stacked eigen-solve.
    Terms add in channel order; a non-positive spectrum or a non-finite value
    scores 1e9."""
    stack = np.stack(grams)
    tops = np.asarray(tops)

    def objective_of(a):
        ah = a.conj().T
        try:
            top_a = float(hermitian_eig(ah @ a, vectors=False).values[0])
        except (ValueError, np.linalg.LinAlgError):
            return 1e9
        mu = hermitian_eig(ah @ stack @ a, vectors=False).values
        if (mu[:, -1] <= 0).any() or top_a <= 0 or (tops <= 0).any():
            return 1e9
        m1 = 1.0 - mu[:, 0] / (top_a * tops)
        m2 = mu[:, 0] / mu[:, -1]
        val = np.add.accumulate(alpha * m1 + (1.0 - alpha) * m2)[-1] / len(tops)
        return val if math.isfinite(val) else 1e9

    return objective_of


def optimize_skew_a1(model: ChannelModel, alpha: float, n_channels: int,
                     stream: RngStream, budget: int) -> SkewSearchResult:
    """Direct search for a skew minimizing alpha E[m1] + (1-alpha) E[m2].

    Candidates are base Q diag(d) R' with Givens-parameterized unitary
    factors; simplex descent from 8 restarts (identity, covariance-aligned,
    inverse-root, and random bases) shares one set of channel draws so
    comparisons are noise-free.  Budget counts objective evaluations; the
    best candidate found is returned once it runs out.
    """
    from scipy.optimize import minimize

    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    if budget < 1:
        raise ValueError("budget must be at least 1")
    if n_channels < 1:
        raise ValueError("need at least one channel draw")
    gen = stream.derive("channels").generator()
    grams = []
    tops = []
    for _ in range(n_channels):
        ch = sample_channel(model, gen)
        grams.append(ch.gram)
        tops.append(ch.spectrum[0])
    dim = grams[0].shape[0]
    mean_gram = sum(grams) / len(grams)
    objective_of = _skew_objective(grams, tops, alpha)
    eig_mean = hermitian_eig(mean_gram)
    es = hermitian_eig(transmit_covariance(model).sigma_t)
    sv = np.clip(es.values, 1e-12 * max(es.values[0], 1e-300), None)
    vals = np.clip(eig_mean.values, 1e-12 * eig_mean.values[0], None)
    bases = [np.eye(dim, dtype=complex), (es.vectors * np.sqrt(sv)) @ es.vectors.conj().T,
             (eig_mean.vectors * vals ** -0.5) @ eig_mean.vectors.conj().T]
    rgen = stream.derive("restarts").generator()
    while len(bases) < 8:
        z = rgen.standard_normal((dim, dim, 2))
        bases.append((z[..., 0] + 1j * z[..., 1]) / math.sqrt(2.0))

    k = _n_params(dim)
    per_restart = max(1, budget // len(bases))
    best = None
    evals = 0
    for ridx, base in enumerate(bases):
        used = [0]

        def fun(p, base=base, used=used):
            used[0] += 1
            return objective_of(_candidate(dim, base, p))

        res = minimize(fun, np.zeros(k), method="Nelder-Mead",
                       options={"maxfev": per_restart, "xatol": 1e-6,
                                "fatol": 1e-10, "disp": False})
        start = (objective_of(_candidate(dim, base, np.zeros(k))), ridx,
                 np.zeros(k))
        evals += used[0] + 1
        cand = (float(res.fun), ridx, np.array(res.x))
        for c in (start, cand):
            if best is None or c[0] < best[0] or (c[0] == best[0] and c[1] < best[1]):
                best = (c[0], c[1], c[2], base)
    a = _candidate(dim, best[3], best[2])
    return SkewSearchResult(skew=SkewMatrix(a), objective=best[0], n_evals=evals)
