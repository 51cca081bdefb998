"""The Monte Carlo kernel behind every sampled loss.

An RVQ codebook of B bits holds 2^B isotropic unit vectors, and the best
entry for a channel Gram G maximizes f'Gf; a skewed codebook maps every
entry through a fixed matrix A and renormalizes.  A normalized complex
Gaussian is isotropic and the quotient is scale-free, so the kernel never
builds unit vectors: it keeps the best (f'Mf)/(f'Nf) of Gaussian codewords
f, with (M, N) = (G, I) for plain RVQ and (A'GA, A'A) for a skew.

Each channel's codewords are drawn on its Gram's eigenbasis,
G = U diag(lam) U' and f = U g, from two generators read channel after
channel: n Exp(1) weights |g_i|^2 = e_i, which alone give a plain row,
f'Gf / f'f = lam'e / sum(e), a draw of the weighted-norm law; and, only
when a skew shares the call, the phases g_i / |g_i| of complex normals, so
a plain row does not depend on them and every row shares the codewords.

A skewed row is (g'B'GBg)/(g'B'Bg) with B = AU.  For Hermitian M,
g'Mg = x'Ex with x = [Re g; Im g] and E = [[Re M, -Im M], [Im M, Re M]],
so batched real matrix products give the skewed forms of a codeword slice;
their last bits depend on the BLAS GEMM kernel.
"""

from __future__ import annotations

import math

import numpy as np

from .rng import RngStream

_MC_BLOCK = 1 << 16


def group_width(n: int, bits: int, n_codebooks: int) -> int:
    """Channels whose codewords fit in one kernel block: a channel group."""
    return max(1, _MC_BLOCK // (n * n_codebooks << bits))


def codeword_generators(stream: RngStream, skewed: bool):
    """The kernel's (weights, phases) generators: Exp(1) weights from the
    stream and, only when a skew reads them, phases from its "phase" child."""
    return stream.generator(), stream.derive("phase").generator() if skewed else None


def _view(buf, shape):
    """A C-contiguous array of the shape over the front of a flat buffer."""
    return buf[:math.prod(shape)].reshape(shape)


def _fold_max(out, v, take):
    """out = max(out, each codebook's best of v (w, k, cols)), the columns
    codeword-major (codebook t holds t, t + take, ...), by folding halves of
    the codeword range onto each other in place."""
    v = v.reshape(v.shape[0], v.shape[1], -1, take)
    width = v.shape[2]
    while width > 1:
        half = width // 2
        np.maximum(v[:, :, :half], v[:, :, width - half:width], out=v[:, :, :half])
        width -= half
    np.maximum(out, v[:, :, 0], out=out)


def best_quotients(spectra, pairs, bits: int, n_codebooks: int, gens) -> np.ndarray:
    """Monte Carlo kernel: the (c, len(pairs), n_codebooks) best quotients
    of a stack of c channels with descending spectra (c, n).

    pairs[k] None is plain RVQ, each codebook's max of f'Gf / f'f; a pair
    (M, N) of (c, n, n) stacks on the eigenbases gives the max of
    (f'Mf)/(f'Nf).  gens are ``codeword_generators``.  ``group_width``
    channels share a slice; a larger channel takes chunks of codebooks and
    slices of codewords, so memory stays bounded.  Values depend on the fixed
    slice width, never on c: a stacked draw fills as the same draws in turn.
    """
    spectra = np.asarray(spectra, dtype=float)
    c, n = spectra.shape
    m = 1 << bits
    width = min(c, group_width(n, bits, n_codebooks))  # channels per slice
    per_chunk = min(n_codebooks, max(1, _MC_BLOCK // (m * n)))  # codebooks per slice
    step = min(m, max(1, _MC_BLOCK // n))  # codewords of a codebook per slice
    size = width * per_chunk * step  # codewords of the largest slice
    skews = [pair for pair in pairs if pair is not None]
    s = len(skews)
    weights, phases = gens
    # buffers for every slice: touching fresh memory costs more than filling it
    e_buf, plain_buf = np.empty(n * size), np.empty(2 * size)  # plain_buf: forms too
    if s:  # per channel and skew, the numerator's embedding over the denominator's
        mm = np.array(skews, dtype=complex).transpose(2, 0, 1, 3, 4)
        emb = np.block([[mm.real, -mm.imag], [mm.imag, mm.real]]).reshape(c, s, 4 * n, -1)
        x_buf, prod_buf = np.empty(2 * n * size), np.empty(4 * n * size)
    # rows of best: the skews in order, then the one plain row
    best = np.full((c, s + 1, n_codebooks), -np.inf)
    for lo in range(0, c, width):
        w = min(width, c - lo)
        for pos in range(0, n_codebooks, per_chunk):
            take = min(per_chunk, n_codebooks - pos)
            out = best[lo:lo + w, :, pos:pos + take]
            for start in range(0, m, step):
                cols = take * min(step, m - start)
                e = weights.standard_exponential(out=_view(e_buf, (w, n, cols)))
                plain, sums = _view(plain_buf, (2, w, 1, cols))
                np.matmul(spectra[lo:lo + w, None], e, out=plain)
                plain /= e.sum(axis=1, keepdims=True, out=sums)
                _fold_max(out[:, s:], plain, take)
                if not s:
                    continue
                x = phases.standard_normal(out=_view(x_buf, (w, 2, n, cols)))  # Re z, Im z
                r, sq = _view(prod_buf, (2, w, n, cols))  # |z|^2, before the products
                np.add(np.multiply(x[:, 0], x[:, 0], out=r),
                       np.multiply(x[:, 1], x[:, 1], out=sq), out=r)
                np.sqrt(np.divide(e, r, out=e), out=e)
                x = np.multiply(x, e[:, None], out=x).reshape(w, 2 * n, cols)  # [Re g; Im g]
                for k in range(s):  # the forms of both matrices, then the quotient
                    y = np.matmul(emb[lo:lo + w, k], x, out=_view(prod_buf, (w, 4 * n, cols)))
                    y = y.reshape(w, 2, 2 * n, cols)
                    forms = np.multiply(y, x[:, None], out=y).sum(
                        axis=2, out=_view(plain_buf, (w, 2, cols)))
                    np.divide(forms[:, :1], forms[:, 1:], out=forms[:, :1])
                    _fold_max(out[:, k:k + 1], forms[:, :1], take)
    skewed = np.array([pair is not None for pair in pairs])
    return best[:, np.where(skewed, skewed.cumsum() - 1, s)]
