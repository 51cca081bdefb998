"""The Monte Carlo kernel behind every sampled loss.

An RVQ codebook of B bits holds 2^B isotropic unit vectors, and the best
entry for a channel Gram G maximizes f'Gf; a skewed codebook maps every
entry through a fixed matrix A and renormalizes.  A normalized complex
Gaussian is isotropic and the quotient is scale-free, so the kernel never
builds unit vectors: it keeps the best (f'Mf)/(f'Nf) of Gaussian codewords
f, with (M, N) = (G, I) for plain RVQ and (A'GA, A'A) for a skew.

Each channel's codewords are drawn on its Gram's eigenbasis,
G = U diag(lam) U' and f = U g, from two generators read channel after
channel.  The weights |g_i|^2, up to scale, are a uniform point w of the
simplex, which alone gives a plain row, f'Gf / f'f = lam'w, a draw of the
weighted-norm law.  Up to ``_SORT_MAX`` antennas w is the spacings, from 0
to 1, of n - 1 uniforms sorted by an odd-even transposition network
(Devroye 1986, ch. V), and lam'w = lam_n + sum_i (lam_i - lam_{i+1}) s_i;
above, w = e / sum(e) of n Exp(1) draws, whose cost grows as n where the
network's grows as n^2.  Only when a skew shares the call are the phases
g_i / |g_i| drawn, those of complex normals, so a plain row does not depend
on them and every row shares the codewords.

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
# the most antennas whose codewords sort n - 1 uniforms: per codeword, a
# plain row through the network took 0.62 to 0.83 of the time of one from
# n Exp(1) draws at n = 5 to 8, 1.0 at n = 9 and 1.17 at n = 12 (x86-64 with
# AVX-512, numpy 2.4); np.sort along the draw's columns was slower than
# Exp(1) at every n from 8 to 64
_SORT_MAX = 8


def group_width(n: int, bits: int, n_codebooks: int) -> int:
    """Channels whose codewords fit in one kernel block: a channel group."""
    return max(1, _MC_BLOCK // (n * n_codebooks << bits))


def codeword_generators(stream: RngStream, skewed: bool):
    """The kernel's (weights, phases) generators: the simplex weights' uniform
    or Exp(1) draws from the stream and, only when a skew reads them, phases
    from its "phase" child."""
    return stream.generator(), stream.derive("phase").generator() if skewed else None


def _view(buf, shape):
    """A C-contiguous array of the shape over the front of a flat buffer."""
    return buf[:math.prod(shape)].reshape(shape)


def _transposition_sort(s, buf):
    """Sort each column of s (c, k, cols) ascending in place: k rounds of
    compare-exchanges on alternate pairs of rows, with np.minimum and
    np.maximum, the smaller values kept over the front of the flat buffer buf
    (k // 2 rows).  It moves values and never rounds one."""
    k = s.shape[1]
    for p in range(k):
        lo, hi = s[:, p % 2:k - 1:2], s[:, p % 2 + 1:k:2]
        if lo.shape[1]:
            t = np.minimum(lo, hi, out=_view(buf, lo.shape))
            np.maximum(lo, hi, out=hi)
            np.copyto(lo, t)


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
    sort = n <= _SORT_MAX
    v = n - sort  # variates per codeword: n - 1 uniforms, or n Exp(1)
    gaps = (spectra[:, :-1] - spectra[:, 1:])[:, None]  # lam_i - lam_{i+1}
    # buffers for every slice: touching fresh memory costs more than filling
    # it; plain_buf holds the plain row and its sums, the sort's smaller
    # values before it, and the skewed forms after it
    draw_buf, plain_buf = np.empty(v * size), np.empty(max(2, v // 2 * sort) * size)
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
                draw = _view(draw_buf, (w, v, cols))
                plain = _view(plain_buf, (w, 1, cols))
                if sort:
                    _transposition_sort(weights.random(out=draw), plain_buf)
                    np.matmul(gaps[lo:lo + w], draw, out=plain)
                    plain += spectra[lo:lo + w, -1:, None]
                else:
                    np.matmul(spectra[lo:lo + w, None],
                              weights.standard_exponential(out=draw), out=plain)
                    plain /= draw.sum(axis=1, keepdims=True,
                                      out=_view(plain_buf[plain.size:], plain.shape))
                _fold_max(out[:, s:], plain, take)
                if not s:
                    continue
                x = phases.standard_normal(out=_view(x_buf, (w, 2, n, cols)))  # Re z, Im z
                r, sq, e = _view(prod_buf, (3, w, n, cols))  # |z|^2 and w, before the products
                if sort:  # the spacings s_i - s_{i-1}, s_0 = 0 and s_n = 1
                    e[:, :v], e[:, v] = draw, 1.0
                    e[:, 1:] -= draw
                else:
                    e = draw
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
