"""Skewed random codebooks: a fixed full-rank matrix biases the isotropic
codewords toward its dominant singular directions before normalization.

Selection maximizes the generalized quotient (f' M f)/(f' N f) with
M = A'GA, N = A'A and G the channel Gram matrix; the loss is measured
against the perfect-feedback gain of G.  The loss at any n is one
integral of the quotient law, read from the pencil xN - M, on the package's
one quadrature rule.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .channel import ChannelModel, ChannelRealization, sample_grams, transmit_covariance
from .errors import (DegenerateSpectrumError, SingularCovarianceError,
                     SingularSkewError, UnsupportedModelError)
from .linalg import hermitian_eig
from .loss import (LossEstimate, _check_bits, _deficit_integrand, _normalized,
                   _require_gap12, sampled_losses)
from .quadrature import integrate_piecewise
from .rng import RngStream
from .wnorm import WeightedNormLaw, cdf

RANK_RTOL = 1e-12
_NAN = float("nan")


@dataclass(frozen=True)
class SkewMatrix:
    a: np.ndarray
    eig_ata: np.ndarray = field(init=False, repr=False)
    eig_aat: np.ndarray = field(init=False, repr=False)

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


def delta1_sk_quadrature(channel: ChannelRealization, skew: SkewMatrix, bits: int,
                         tol: float = 1e-12) -> LossEstimate:
    """Skewed-codebook gain loss by quadrature, at any number of antennas.

    The quotient f'Mf / f'Nf of an isotropic f exceeds x = l1 (1 - u) with
    probability G(u), the weighted-norm CDF at 0 of the knots eig(D - uN),
    D = N - M/l1, and the pencil's generalized eigenvalues are eig(G): the
    loss integrates F**m = (1 - G)**m as the plain oracle does, on its
    panels.  The knot nearest 0, which G's low tail reads, is det(D - uN) =
    det(N) prod_i(e_i - u), e = 1 - lam/l1, over the other knots: the
    eigen-solve's absolute error would swamp it as u -> 0.  Where another
    knot is 0 too (a tied breakpoint), the quotient is 0/0 and the solved
    knot stays.
    """
    lam = _normalized(channel.spectrum)
    m_mat, n_mat = _pair(channel, skew)
    d_mat = n_mat - m_mat / channel.spectrum[0]

    def deficit_cdf(u):
        knots = np.linalg.eigvalsh(d_mat - u[:, None, None] * n_mat)
        near = np.abs(knots).argmin(axis=1)[:, None] == np.arange(lam.size)
        others = np.where(near, 1.0, knots).prod(axis=1)
        det = np.prod(skew.eig_ata) * np.prod(lam[0] - lam - u[:, None], axis=1)
        knots[near] = np.divide(det, others, out=knots[near], where=others != 0)
        law = WeightedNormLaw(np.sort(knots)[:, ::-1])
        return cdf(law, np.zeros((u.size, 1)), np.arange(u.size)).ravel()

    f, pts = _deficit_integrand(lam, bits, deficit_cdf)
    return LossEstimate(integrate_piecewise(f, pts, tol=tol), "quadrature")


def delta1_sk_upper2(channel: ChannelRealization, skew: SkewMatrix, bits: int) -> LossEstimate:
    """Two-antenna upper bound on the skewed-codebook loss.

    Bounds the pencil-CDF integrand pointwise: the negative eigenvalue from
    above by x lam1(A'A) - lam2(A'GA), the positive one from below by
    (lam1 - x) lam_min(A'A).  Over the deficit u = 1 - x/lam1 the bounding
    F is num / (u lam_min(A'A) + num), num = (1 - u) lam1(A'A) -
    lam2(A'GA)/lam1, integrated as the quadrature's.  Equals the exact loss
    at A = I.
    """
    if channel.gram.shape[0] != 2:
        raise UnsupportedModelError("bound is two-antenna only")
    m_mat, _ = _pair(channel, skew)
    b = float(hermitian_eig(m_mat, vectors=False).values[1]) / channel.spectrum[0]
    a_top, a_bot = skew.eig_ata[[0, -1]]
    if a_top - b <= 0:
        raise DegenerateSpectrumError("bound denominator vanished")

    def deficit_cdf(u):
        slack = u * a_bot
        return slack / (slack + (1.0 - u) * a_top - b)

    f, pts = _deficit_integrand(_normalized(channel.spectrum), bits, deficit_cdf)
    span = 1.0 - channel.spectrum[-1] / channel.spectrum[0]
    return LossEstimate(integrate_piecewise(f, pts, tol=1e-12 * span), "bound")


def delta1_sk_asympt(channel: ChannelRealization, skew: SkewMatrix, bits: int) -> LossEstimate:
    """High-resolution law of the skewed loss, at any n >= 2.

    A codeword Ag/|Ag| has the angular central Gaussian law with scatter
    W = AA' (D. E. Tyler, Biometrika 74, 1987): its density relative to
    RVQ's at the channel's top eigenvector u1 is 1/(det W (u1'W^-1u1)^n).
    The deficit t near u1 then has P(<= t) ~ kappa t^(n-1), kappa =
    1/(prod_{j>=2}(1 - l_j/l1) det W |A^-1 u1|^(2n)), and the best of m
    codewords loses Gamma(1+q) (m kappa)^(-q), q = 1/(n-1); at A = I this is
    ``delta1_asympt``.  It is a first-order limit, whose relative error
    decays as m^(-q), slowly where W puts little mass near u1: a random
    skew at n = 5 or 6 can still read 3.4 times the loss at bits 24.
    """
    lam = _normalized(channel.spectrum)
    _check_bits(bits)
    _require_gap12(lam)
    n = lam.size
    if skew.n_t != n:
        raise ValueError("skew and channel dimensions disagree")
    q = 1.0 / (n - 1)
    back = np.linalg.solve(skew.a, channel.u_dominant)
    log_kappa = -(np.log1p(-lam[1:]).sum() + np.log(skew.eig_aat).sum()
                  + n * math.log(np.vdot(back, back).real))
    value = math.gamma(1.0 + q) * math.exp(-q * (bits * math.log(2.0) + log_kappa))
    return LossEstimate(value, "asymptotic")


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


def closed_form_skew_a1(channel: ChannelRealization, alpha: float) -> SkewSearchResult:
    """The skew minimizing alpha m1 + (1-alpha) m2 on one full-rank channel G.

    With x = mu1/(a1 l1) in [ln/l1, 1], m1 = 1 - x and m2 >= x l1/ln, and the
    whitener G^(-1/2) (x = ln/l1, m2 = 1) and the identity (x = 1) attain the
    ends of that linear bound; a tie goes to the whitener.  At alpha = 1 the
    identity, the limit of the minimizers as alpha -> 1, has the least m2 of
    all skews with m1 = 0.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    top, low = float(channel.spectrum[0]), float(channel.spectrum[-1])
    if not low >= RANK_RTOL * top > 0.0:
        raise SingularCovarianceError("closed form needs a full-rank channel")
    whitened, plain = alpha * (1.0 - low / top) + 1.0 - alpha, (1.0 - alpha) * (top / low)
    if whitened <= plain:
        return SkewSearchResult(build_skew_a2(channel.gram, 0.0, 0.0), whitened, 0)
    return SkewSearchResult(SkewMatrix(np.eye(channel.n_t)), plain, 0)


# ---------------------------------------------------------------------------
# direct search over skewing matrices


def _n_params(dim: int) -> int:
    return 2 * dim * (dim - 1) + dim


def _unitary_from_angles(dim: int, angles: np.ndarray) -> np.ndarray:
    """Product of one Givens rotation per index pair i < j, in order, each
    applied on the left: rows i and j are rotated by angle th with phase ph,
    from the flat (th, ph) pairs of angles."""
    u = np.eye(dim, dtype=complex).tolist()
    pairs = itertools.combinations(range(dim), 2)
    for (i, j), th, ph in zip(pairs, angles[0::2], angles[1::2]):
        c, s = math.cos(th), math.sin(th)
        e = cmath.exp(1j * ph)
        a, b = -s * e, s * e.conjugate()
        ui, uj = u[i], u[j]
        u[i] = [c * x + a * y for x, y in zip(ui, uj)]
        u[j] = [b * x + c * y for x, y in zip(ui, uj)]
    return np.array(u)


def _left_factor(dim: int, params: np.ndarray) -> np.ndarray:
    """P = Q diag(d) of a candidate base P R'."""
    npair = dim * (dim - 1)
    return _unitary_from_angles(dim, params[:npair]) * np.exp(
        np.clip(params[2 * npair:], -20.0, 20.0))


def _candidate(dim: int, base: np.ndarray, params: np.ndarray) -> np.ndarray:
    npair = dim * (dim - 1)
    r = _unitary_from_angles(dim, params[npair:2 * npair])
    return base @ _left_factor(dim, params) @ r.conj().T


def _skew_objective(base, grams, tops, alpha: float):
    """Search objective params -> alpha E[m1] + (1-alpha) E[m2] of the
    candidates A = base P R' over the design channels (Gram matrices, top
    eigenvalues).

    R is unitary, so A'A and A'GA are unitarily similar to P'(B'B)P and
    P'(B'GB)P with B = base: m1 and m2 read only eigenvalues, and R drops
    out.  The stack S = [B'B; B'G_1B; ...] is formed once, laid out so that
    P'SP is two GEMMs, and every evaluation is one stacked eigen-solve whose
    row 0 is the spectrum of A'A.  Terms add in channel order; a
    non-positive spectrum or a non-finite value scores 1e9.
    """
    dim = base.shape[0]
    bh = base.conj().T
    stack = np.concatenate([(bh @ base)[None], bh @ np.asarray(grams) @ base])
    # rows (i, k): row i of S_k, so S P is one GEMM and lays out [S_k P]_k
    # side by side for P' to multiply in one more
    rows = stack.transpose(1, 0, 2).reshape(-1, dim)
    tops = np.asarray(tops)

    def objective_of(params):
        p = _left_factor(dim, params)
        sp = (rows @ p).reshape(dim, -1)
        psp = (p.conj().T @ sp).reshape(dim, -1, dim).swapaxes(0, 1)
        try:
            vals = hermitian_eig(psp, vectors=False).values
        except (ValueError, np.linalg.LinAlgError):
            return 1e9
        top_a, mu = vals[0, 0], vals[1:]
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
    comparisons are noise-free.  The objective reads only spectra, which R
    leaves alone, so it skips R; the returned skew carries it.  Budget
    counts objective evaluations and is never exceeded: a budget below 8
    runs that many restarts.  The best candidate found is returned once it
    runs out.
    """
    from scipy.optimize import minimize

    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    if budget < 1:
        raise ValueError("budget must be at least 1")
    if n_channels < 1:
        raise ValueError("need at least one channel draw")
    # the design channels are drawn in turn from one generator
    grams, spectra = sample_grams(model, stream.derive("channels").generator(), n_channels)
    dim = grams.shape[1]
    mean_gram = sum(grams) / len(grams)
    eig_mean = hermitian_eig(mean_gram)
    es = hermitian_eig(transmit_covariance(model))
    sv = np.clip(es.values, 1e-12 * max(es.values[0], 1e-300), None)
    vals = np.clip(eig_mean.values, 1e-12 * eig_mean.values[0], None)
    bases = [np.eye(dim, dtype=complex), (es.vectors * np.sqrt(sv)) @ es.vectors.conj().T,
             (eig_mean.vectors * vals ** -0.5) @ eig_mean.vectors.conj().T]
    rgen = stream.derive("restarts").generator()
    while len(bases) < 8:
        z = rgen.standard_normal((dim, dim, 2))
        bases.append((z[..., 0] + 1j * z[..., 1]) / math.sqrt(2.0))

    k = _n_params(dim)
    bases = bases[:budget]
    per_restart = budget // len(bases)
    best = None
    evals = 0
    for ridx, base in enumerate(bases):
        objective_of = _skew_objective(base, grams, spectra[:, 0], alpha)
        values = []

        def fun(p, objective_of=objective_of, values=values):
            values.append(objective_of(p))
            return values[-1]

        res = minimize(fun, np.zeros(k), method="Nelder-Mead",
                       options={"maxfev": per_restart, "xatol": 1e-6,
                                "fatol": 1e-10, "disp": False})
        # Nelder-Mead evaluates its start x0 = zeros first
        start = (values[0], ridx, np.zeros(k))
        evals += len(values)
        cand = (float(res.fun), ridx, np.array(res.x))
        for c in (start, cand):
            if best is None or c[0] < best[0] or (c[0] == best[0] and c[1] < best[1]):
                best = (c[0], c[1], c[2], base)
    a = _candidate(dim, best[3], best[2])
    return SkewSearchResult(skew=SkewMatrix(a), objective=best[0], n_evals=evals)
