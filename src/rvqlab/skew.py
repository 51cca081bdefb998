"""Skewed random codebooks: a fixed full-rank matrix biases the isotropic
codewords toward its dominant singular directions before normalization.

Selection maximizes the generalized quotient (f' M f)/(f' N f) with
M = A'GA, N = A'A and G the channel Gram matrix; the loss is measured
against the perfect-feedback gain of G.  The loss at any n is one
integral of the quotient law, read from the pencil xN - M, on the package's
one quadrature rule.
"""

from __future__ import annotations

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
SEARCH_EVALS = 64  # evaluations per skew search: a fixed cost, whatever the draws
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
# quasi-Newton search over Cholesky factors


def _params(l: np.ndarray) -> np.ndarray:
    """Search parameters of a lower-triangular L, the n x n real matrix
    holding Re L on and below its diagonal and Im L' above, row-major."""
    return (np.tril(l.real) + np.triu(l.imag.T, 1)).ravel()


def _factor(dim: int, x: np.ndarray) -> np.ndarray:
    """The lower-triangular L of search parameters x, ``_params``' inverse."""
    x = x.reshape(dim, dim)
    return np.tril(x) + 1j * np.triu(x, 1).T


def _skew_objective(grams, tops, alpha: float):
    """x -> (alpha E[m1] + (1-alpha) E[m2], gradient) of A = L = ``_factor(n,
    x)`` over the design channels (Gram matrices, top eigenvalues).

    m1 and m2 read the spectra of A'A and A'GA, so A enters only through
    AA' = LL'.  L'SL, S = [I; G_1; ...], is two GEMMs and one stacked eigh;
    a simple eigenpair (mu, v) has dmu = 2 Re(v'L'S_k dL v), one more GEMM
    of [S_k L]_k with the eigenvectors' outer products.  Terms add in
    channel order; a non-positive spectrum or a non-finite value scores 1e9,
    with no gradient.
    """
    count, dim = len(grams), grams[0].shape[0]
    # rows (i, k): row i of S_k, so S L is one GEMM and lays out [S_k L]_k
    # side by side for L' to multiply in one more
    rows = np.concatenate([np.eye(dim)[None], grams]).transpose(1, 0, 2).reshape(-1, dim)
    tops = np.asarray(tops)

    def objective_of(x):
        l = _factor(dim, x)
        sl = (rows @ l).reshape(dim, -1)
        try:
            vals, vecs = np.linalg.eigh((l.conj().T @ sl).reshape(dim, -1, dim).swapaxes(0, 1))
        except np.linalg.LinAlgError:
            return 1e9, None
        top_a, mu1, mun = vals[0, -1], vals[1:, -1], vals[1:, 0]
        if (mun <= 0).any() or top_a <= 0 or (tops <= 0).any():
            return 1e9, None
        m1 = 1.0 - mu1 / (top_a * tops)
        m2 = mu1 / mun
        val = np.add.accumulate(alpha * m1 + (1.0 - alpha) * m2)[-1] / count
        if not math.isfinite(val):
            return 1e9, None
        # d val / d (bottom, top) eigenvalue of each matrix, L'L first
        coef = np.zeros((count + 1, 2))
        coef[0, 1] = alpha * (mu1 / tops).sum() / top_a ** 2
        coef[1:, 0] = (alpha - 1.0) * m2 / mun
        coef[1:, 1] = (1.0 - alpha) / mun - alpha / (top_a * tops)
        ends = vecs[..., [0, -1]]
        outer = (ends * coef[:, None, :]) @ ends.conj().swapaxes(1, 2)
        return val, _params(sl @ outer.reshape(-1, dim) * (2.0 / count))

    return objective_of


def _descend(objective_of, x, value, grad, evals: int):
    """BFGS with Armijo backtracking (Nocedal and Wright, Numerical
    Optimization, 2nd ed., 2006, ch. 3 and 6) from x, of the given value and
    gradient; returns (x, value, evals).  It takes evals evaluations, or none
    without a gradient: with no convergence test, its cost does not depend on
    the draws.  Each tries one step, half the last one's if that failed.

    A fresh inverse Hessian H is a scaled identity: the first step moves x
    by |x|/10, and the last update's y's/y'y scales it after that; an update
    without curvature is skipped.  A step gaining under 1e-12 of the value
    (or 4 eps, where the optimum is 0), or halved below 1e-10, resets H.
    """
    evals, h, scale, t = evals if grad is not None else 0, None, None, 1.0
    for _ in range(evals):
        if scale is None:
            scale = 0.1 * np.linalg.norm(x) / max(np.linalg.norm(grad), 1e-300)
        step = -scale * grad if h is None else -(h @ grad)
        new_value, new_grad = objective_of(x + t * step)
        if new_grad is not None and new_value <= value + 1e-4 * t * (grad @ step):
            s, y = t * step, new_grad - grad
            if s @ y > 0.0:
                rho, scale = 1.0 / (s @ y), (s @ y) / (y @ y)
                h = np.eye(x.size) * scale if h is None else h
                hy = h @ y
                h += (rho * rho * (y @ hy) + rho) * np.outer(s, s) - rho * (
                    np.outer(hy, s) + np.outer(s, hy))
            if value - new_value < 1e-12 * abs(new_value) + 4.0 * np.finfo(float).eps:
                h = None
            x, value, grad, t = x + s, new_value, new_grad, 1.0
        else:
            t /= 2.0
            if t < 1e-10:
                h, t = None, 1.0
    return x, value, evals


def optimize_skew_a1(model: ChannelModel, alpha: float, n_channels: int,
                     stream: RngStream, budget: int) -> SkewSearchResult:
    """Quasi-Newton search for a skew minimizing alpha E[m1] + (1-alpha) E[m2].

    On one set of channel draws, so comparisons are noise-free, it scores
    the Cholesky factors of the identity, the transmit covariance and the
    mean Gram's inverse (skipping one that fails), and ``_descend``s from
    the first of the lowest.  It takes min(budget, SEARCH_EVALS) objective
    evaluations whatever the draws, fewer only when every start scores 1e9;
    a budget below 3 scores that many starts.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    if budget < 1:
        raise ValueError("budget must be at least 1")
    if n_channels < 1:
        raise ValueError("need at least one channel draw")
    # the design channels are drawn in turn from one generator
    grams, spectra = sample_grams(model, stream.derive("channels").generator(), n_channels)
    objective_of = _skew_objective(grams, spectra[:, 0], alpha)
    scored = []
    for cov in (lambda: np.eye(model.n_t), lambda: transmit_covariance(model),
                lambda: np.linalg.inv(grams.mean(axis=0)))[:budget]:
        try:
            x = _params(np.linalg.cholesky(cov()))
        except np.linalg.LinAlgError:
            continue
        scored.append((x, *objective_of(x)))
    x, value, evals = _descend(objective_of, *min(scored, key=lambda start: start[1]),
                               min(budget, SEARCH_EVALS) - len(scored))
    return SkewSearchResult(skew=SkewMatrix(_factor(model.n_t, x)), objective=value,
                            n_evals=len(scored) + evals)
