"""Shared constructors for the test suite."""

import mpmath as mp
import numpy as np

from rvqlab.channel import ChannelRealization


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


def rvq_codebooks(stream, bits, n, n_codebooks, skew=None):
    """Explicit RVQ codebooks, the Monte Carlo kernel's reference.

    The (n_codebooks, 2**bits, n) unit-norm codewords are normalized from the
    kernel's own Gaussians for one chunk; a skew A maps each codeword w to
    A w, renormalized.  They match the kernel's draws while all codebooks fit
    in its first chunk.
    """
    g = stream.derive(0).generator().standard_normal(
        (n_codebooks, 1 << bits, n, 2))
    w = g[..., 0] + 1j * g[..., 1]
    w /= np.linalg.norm(w, axis=-1, keepdims=True)
    if skew is not None:
        w = w @ skew.T
        w /= np.linalg.norm(w, axis=-1, keepdims=True)
    return w


def selected_gains(books, gram):
    """Gain w'Gw of each codebook's selected (gain-maximizing) codeword."""
    return np.einsum("cki,ij,ckj->ck", books.conj(), gram, books).real.max(axis=1)


def einsum_best_quotients(pairs, bits, n_codebooks, stream):
    """The Monte Carlo kernel as complex einsums, an independent reference.

    Same chunks, streams and codeword slices as ``codebook.best_quotients``;
    each quadratic form is ``einsum("cki,ij,ckj->ck", conj(f), M, f).real``
    and the plain norm ``einsum("cki,cki->ck", conj(f), f).real``.
    """
    m, n, block = 1 << bits, pairs[0][0].shape[0], 1 << 16
    per_chunk = max(1, block // (m * n))
    step = max(1, block // n)
    plain = any(nn is None for _, nn in pairs)
    best = np.full((len(pairs), n_codebooks), -np.inf)
    for chunk, pos in enumerate(range(0, n_codebooks, per_chunk)):
        take = min(per_chunk, n_codebooks - pos)
        gen = stream.derive(chunk).generator()
        out = best[:, pos:pos + take]
        for lo in range(0, m, step):
            g = gen.standard_normal((take, min(step, m - lo), n, 2))
            f = g[..., 0] + 1j * g[..., 1]
            fc = f.conj()
            norm2 = np.einsum("cki,cki->ck", fc, f).real if plain else None
            for k, (mm, nn) in enumerate(pairs):
                num = np.einsum("cki,ij,ckj->ck", fc, mm, f).real
                den = norm2 if nn is None else np.einsum(
                    "cki,ij,ckj->ck", fc, nn, f).real
                np.maximum(out[k], (num / den).max(axis=1), out=out[k])
    return best


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
