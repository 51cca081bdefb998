"""Shared constructors for the test suite."""

import math

import mpmath as mp
import numpy as np

from rvqlab.channel import ChannelRealization
from rvqlab.codebook import _SORT_MAX, best_quotients, codeword_generators
from rvqlab.errors import ResourceLimitError


def complex_gaussian(rng, shape):
    g = rng.standard_normal(tuple(shape) + (2,))
    return g[..., 0] + 1j * g[..., 1]


def random_channel(rng, n_r, n_t):
    return ChannelRealization(complex_gaussian(rng, (n_r, n_t)))


def random_full_rank(rng, n, cond_floor=1e-3):
    # redraw until comfortably away from the singular guard
    while True:
        a = complex_gaussian(rng, (n, n))
        sv = np.linalg.svd(a, compute_uv=False)
        if sv[-1] > cond_floor * sv[0]:
            return a


def diag_channel(lam):
    """Channel realization whose gram is diag(lam)."""
    root = np.sqrt(np.asarray(lam, dtype=float))
    return ChannelRealization(np.diag(root).astype(complex))


def codeword_basis(pairs):
    """The eigenvalues and eigenvectors, descending, of the Gram G on whose
    eigenbasis the codewords of pairs written on the standard basis are
    drawn: every plain pair (G, None) carries the one G, or there is none and
    G = I."""
    grams = [mm for mm, nn in pairs if nn is None]
    assert all(np.array_equal(g, grams[0]) for g in grams)
    w, v = np.linalg.eigh(grams[0] if grams else np.eye(pairs[0][0].shape[0]))
    return w[::-1], v[:, ::-1]


def standard_basis_stack(channels, bits, n_codebooks, stream):
    """``codebook.best_quotients`` of a stack of channels, each a list of
    pairs written on the standard basis with the same plain and skewed
    positions, called as ``loss`` calls it: on the spectra of
    ``codeword_basis``, with plain pairs as None, every skewed pair (M, N) as
    the stacks of (U'MU, U'NU), and the generators of
    ``codebook.codeword_generators(stream)``."""
    eigs = [codeword_basis(pairs) for pairs in channels]
    rows = []
    for k, (_, nn) in enumerate(channels[0]):
        if nn is None:
            rows.append(None)
            continue
        rows.append(tuple(np.array([u.conj().T @ pairs[k][i] @ u
                                    for (_, u), pairs in zip(eigs, channels)])
                          for i in (0, 1)))
    gens = codeword_generators(stream, any(row is not None for row in rows))
    return best_quotients(np.array([w for w, _ in eigs]), rows, bits,
                          n_codebooks, gens)


def standard_basis_quotients(pairs, bits, n_codebooks, stream):
    """``standard_basis_stack`` of the one channel of pairs: every plain pair
    (G, None) carries the one Gram G."""
    return standard_basis_stack([pairs], bits, n_codebooks, stream)[0]


def stream_generators(stream):
    """The kernel's two generators of one stream, spelled out: the weights'
    draws from the stream itself, phases from its "phase" child."""
    return stream.generator(), stream.derive("phase").generator()


def slice_codewords(gens, u, cols):
    """The kernel's next cols codewords f = U g of one channel, as a (cols, n)
    complex array: |g_i|^2 are the spacings, from 0 to 1, of (n - 1, cols)
    uniforms, each column put in order by np.sort, or past ``_SORT_MAX``
    antennas (n, cols) Exp(1) draws; g_i / |g_i| = z_i / |z_i| are the phases
    of (2, n, cols) normals z."""
    weights, phases = gens
    n = u.shape[0]
    if n <= _SORT_MAX:
        s = np.sort(weights.random((n - 1, cols)), axis=0)
        e = np.diff(s, axis=0, prepend=0.0, append=1.0)
    else:
        e = weights.standard_exponential((n, cols))
    z = phases.standard_normal((2, n, cols))
    z = z[0] + 1j * z[1]
    return np.einsum("ij,jc->ci", u, np.sqrt(e) * z / np.abs(z))


def rvq_codebooks(stream, bits, u, n_codebooks, skew=None):
    """Explicit RVQ codebooks, the Monte Carlo kernel's reference.

    The (n_codebooks, 2**bits, n) unit-norm codewords are normalized from the
    kernel's own draws for one channel's first slice, on the basis u; a skew
    A maps each codeword w to A w, renormalized.  They match the kernel's
    draws while all codebooks fit in its first slice.
    """
    f = slice_codewords(stream_generators(stream), u, n_codebooks << bits)
    w = f.reshape(1 << bits, n_codebooks, -1).swapaxes(0, 1)  # codeword-major
    w /= np.linalg.norm(w, axis=-1, keepdims=True)
    if skew is not None:
        w = w @ skew.T
        w /= np.linalg.norm(w, axis=-1, keepdims=True)
    return w


def selected_gains(books, gram):
    """Gain w'Gw of each codebook's selected (gain-maximizing) codeword."""
    return np.einsum("cki,ij,ckj->ck", books.conj(), gram, books).real.max(axis=1)


def _einsum_channel(pairs, bits, n_codebooks, gens):
    """One channel of ``einsum_best_quotients``, drawn from gens."""
    m, n, block = 1 << bits, pairs[0][0].shape[0], 1 << 16
    per_chunk = max(1, block // (m * n))
    step = max(1, block // n)
    _, u = codeword_basis(pairs)
    best = np.full((len(pairs), n_codebooks), -np.inf)
    for pos in range(0, n_codebooks, per_chunk):
        take = min(per_chunk, n_codebooks - pos)
        out = best[:, pos:pos + take]
        for lo in range(0, m, step):
            f = slice_codewords(gens, u, take * min(step, m - lo))
            f = f.reshape(-1, take, n).swapaxes(0, 1)  # codeword-major
            fc = f.conj()
            norm2 = np.einsum("cki,cki->ck", fc, f).real
            for k, (mm, nn) in enumerate(pairs):
                num = np.einsum("cki,ij,ckj->ck", fc, mm, f).real
                den = norm2 if nn is None else np.einsum(
                    "cki,ij,ckj->ck", fc, nn, f).real
                np.maximum(out[k], (num / den).max(axis=1), out=out[k])
    return best


def einsum_best_quotients(pairs, bits, n_codebooks, stream):
    """The Monte Carlo kernel as complex einsums, an independent reference.

    Same generators, codebook chunks, codeword slices and basis as
    ``standard_basis_quotients``, with explicit codewords f = U g; each
    quadratic form is
    ``einsum("cki,ij,ckj->ck", conj(f), M, f).real`` and the plain norm
    ``einsum("cki,cki->ck", conj(f), f).real``.
    """
    return _einsum_channel(pairs, bits, n_codebooks, stream_generators(stream))


def einsum_stack_quotients(channels, bits, n_codebooks, stream):
    """``einsum_best_quotients`` of a stack of channels, looped channel by
    channel over one pair of generators: the reference for
    ``standard_basis_stack``."""
    gens = stream_generators(stream)
    return np.array([_einsum_channel(pairs, bits, n_codebooks, gens)
                     for pairs in channels])


def loop_skew_objective(grams, tops, alpha):
    """alpha E[m1] + (1-alpha) E[m2] of a whole candidate A, from the
    eigenvalues of A'A and of each A'GA in turn, summed in a Python loop: the
    reference for the search objective, which reads the same spectra from one
    stacked eigen-solve."""
    def objective_of(a):
        try:
            top_a = float(np.linalg.eigvalsh(a.conj().T @ a)[-1])
        except np.linalg.LinAlgError:
            return 1e9
        acc = 0.0
        for g, top_g in zip(grams, tops):
            mu = np.linalg.eigvalsh(a.conj().T @ g @ a)
            if mu[0] <= 0 or top_a <= 0 or top_g <= 0:
                return 1e9
            m1 = 1.0 - mu[-1] / (top_a * top_g)
            m2 = mu[-1] / mu[0]
            acc += alpha * m1 + (1.0 - alpha) * m2
        val = acc / len(grams)
        return val if math.isfinite(val) else 1e9
    return objective_of


def adaptive_simpson(f, a: float, b: float, tol: float = 1e-10,
                     max_intervals: int = 10 ** 6) -> float:
    """Integrate f over [a, b] to absolute tolerance tol: the independent
    reference for ``rvqlab.quadrature.integrate_piecewise``.

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


def worst_relative_error(name, pairs):
    """Largest relative error over (got, want) pairs, printed under name."""
    worst = max(float(abs(got - want) / want) for got, want in pairs)
    print(f"{name}: worst relative error {worst:.1e}")
    return worst


def mpmath_law(lam):
    """(cdf, pdf) of the weighted-norm law as mpmath functions of x, written
    independently of ``wnorm``, at the caller's working precision.

    For distinct eigenvalues this is the divided-difference form
    F(x) = 1 - sum_{l_i > x} (l_i - x)^(n-1) / prod_{j != i} (l_i - l_j)
         = sum_{l_i < x} (x - l_i)^(n-1) / prod_{j != i} (l_j - l_i),
    the second sum taken in the lower half of the support, where the first
    cancels; when every trailing eigenvalue is tied, it is the Beta law of
    |f_1|^2.
    """
    lam = [mp.mpf(v) for v in lam]
    n = len(lam)
    if all(v == lam[1] for v in lam[1:]):
        def cdf(x):
            return 1 - ((lam[0] - x) / (lam[0] - lam[1])) ** (n - 1)

        def pdf(x):
            return (n - 1) * (lam[0] - x) ** (n - 2) / (lam[0] - lam[1]) ** (n - 1)
        return cdf, pdf
    dens = [mp.fprod(lam[i] - lam[j] for j in range(n) if j != i)
            for i in range(n)]
    mid = (lam[0] + lam[-1]) / 2

    def terms(x, power):
        if x < mid:
            return [(x - lam[i]) ** power / ((-1) ** (n - 1) * dens[i])
                    for i in range(n) if lam[i] < x]
        return [(lam[i] - x) ** power / dens[i] for i in range(n) if lam[i] > x]

    def cdf(x):
        total = mp.fsum(terms(x, n - 1))
        return total if x < mid else 1 - total

    def pdf(x):
        return (n - 1) * mp.fsum(terms(x, n - 2))
    return cdf, pdf


def mpmath_loss(lam, bits, rho=None):
    """40-digit mean gain loss (rho None) or rate loss in bits.

    Integrates F(x)**m with ``mpmath.quad``, F the CDF of ``mpmath_law``.
    """
    with mp.workdps(40):
        cdf, _ = mpmath_law(lam)
        lam = [mp.mpf(v) for v in lam]
        m = 2 ** bits
        if rho is None:
            weight = 1 / lam[0]
            integrand = lambda x: cdf(x) ** m * weight
        else:
            rho = mp.mpf(rho)
            integrand = lambda x: rho * cdf(x) ** m / ((1 + rho * x) * mp.log(2))
        return mp.quad(integrand, sorted(set(lam)))


def mpmath_skew_loss(gram, a, bits, dps=40):
    """Gain loss of the codebook skewed by a on the channel Gram gram, at
    dps digits: ``mpmath.quad`` of F(x)**m / l1 over the channel spectrum,
    F(x) = P(f'(M - xN)f <= 0) for isotropic f, M = A'GA and N = A'A.  At
    each node the knots eig(M - xN) come from ``mp.eighe``, and F is the CDF
    of ``mpmath_law`` on the knots shifted up by the least one, read at that
    shift.  Gram and skew enter as the exact values of their floats, each
    matrix made Hermitian by averaging with its conjugate transpose."""
    with mp.workdps(dps):
        g = mp.matrix(np.asarray(gram).tolist())
        g = (g + g.H) / 2
        am = mp.matrix(np.asarray(a).tolist())
        m_mat = am.H * g * am
        m_mat = (m_mat + m_mat.H) / 2
        n_mat = am.H * am
        n_mat = (n_mat + n_mat.H) / 2
        lam = sorted(mp.eighe(g, eigvals_only=True), reverse=True)
        m = 2 ** bits

        def integrand(x):
            knots = mp.eighe(m_mat - x * n_mat, eigvals_only=True)
            low = knots[0]
            cdf, _ = mpmath_law([knots[i] - low for i in range(len(knots) - 1, -1, -1)])
            return cdf(-low) ** m

        return mp.quad(integrand, sorted(set(lam))) / lam[0]


def paper_sk_estimate(channel, skew, bits):
    """The paper's large-codebook estimate of the skewed loss, n >= 4: the
    rate 2**(-B/(n-1)) with the constant Gamma(q) q (1 + d/((1-d)(n-1)))
    (mu1/(a1 l1) - ln/l1), q = 1/(n-1), mu = eig(A'GA) and a1 the top
    eigenvalue of A'A, through the decay base d = 1 - prod_{j>=2}
    (mu1 - ln a1)/(mu1 - mu_j).  It settles at a constant that is not the
    loss's, so it is kept here only as the reference the README compares
    ``skew.delta1_sk_asympt`` with."""
    n = channel.n_t
    assert n >= 4
    lam = channel.spectrum
    a = skew.a
    mu = np.linalg.eigvalsh(a.conj().T @ channel.gram @ a)[::-1]
    a1 = skew.eig_ata[0]
    d_sk = 1.0 - np.prod((mu[0] - lam[-1] * a1) / (mu[0] - mu[1:]))
    bracket = mu[0] / (a1 * lam[0]) - lam[-1] / lam[0]
    return float(math.gamma(1.0 / (n - 1)) * 2.0 ** (-bits / (n - 1.0)) / (n - 1.0)
                 * (1.0 + d_sk / ((1.0 - d_sk) * (n - 1.0))) * bracket)
