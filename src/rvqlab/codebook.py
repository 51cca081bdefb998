"""The Monte Carlo kernel behind every sampled loss.

An RVQ codebook of B bits holds 2^B isotropic unit vectors, and the best
entry for a channel Gram G maximizes f'Gf; a skewed codebook maps every
entry through a fixed matrix A and renormalizes.  A normalized complex
Gaussian is isotropic and the quotient is scale-free, so the kernel never
builds unit vectors: it keeps the best (f'Mf)/(f'Nf) of Gaussian codewords
f, with (M, N) = (G, I) for plain RVQ and (A'GA, A'A) for a skew.

The codewords are drawn on the Gram's eigenbasis, G = U diag(lam) U' and
f = U g, in two parts:

* the weights |g_i|^2 = e_i, n Exp(1) variables from the chunk's stream.
  A plain row reads only these: f'Gf / f'f = lam'e / sum(e), a draw of the
  weighted-norm law (``wnorm.draw_weighted_norms``), with no matrix product.
* the phases g_i / |g_i| = z_i / |z_i| of complex normals z from the
  chunk's "phase" child stream.  Only a skewed row reads them, so they are
  drawn only when a skew shares the call; a plain row's value does not
  depend on whether they were drawn, and plain and skewed rows of one call
  still share their codewords.

A skewed row is (g'B'GBg)/(g'B'Bg) with B = AU.  For Hermitian M,
g'Mg = x'Ex with x = [Re g; Im g] and the real embedding
E = [[Re M, -Im M], [Im M, Re M]], so one real matrix product per group of
stacked embeddings gives every skewed form of a codeword slice; the last
bits of those values depend on the BLAS GEMM kernel.
"""

from __future__ import annotations

import numpy as np

from .rng import RngStream
from .wnorm import draw_weighted_norms

_MC_BLOCK = 1 << 16


def best_quotients(lam, pairs, bits: int, n_codebooks: int,
                   stream: RngStream) -> np.ndarray:
    """Monte Carlo kernel: the (len(pairs), n_codebooks) array of best quotients.

    Every codebook holds 2^bits complex Gaussian codewords f, drawn on the
    eigenbasis of a Gram G = U diag(lam) U' (lam descending) and shared by
    every row.  pairs[k] None is plain RVQ on G: row k holds each codebook's
    max of f'Gf / f'f.  A pair (M, N), written on the eigenbasis as
    (U'MU, U'NU), gives the max of (f'Mf)/(f'Nf) instead.  Chunk c draws from
    stream.derive(c), so values do not depend on the worker layout.  A
    codebook larger than the block is drawn in codeword slices from the same
    generators, coordinate by coordinate, so memory stays bounded at any
    bits, and the values depend on the fixed slice width.
    """
    lam = np.asarray(lam, dtype=float)
    m = 1 << bits
    n = lam.size
    per_chunk = max(1, _MC_BLOCK // (m * n))
    step = max(1, _MC_BLOCK // n)
    skews = [pair for pair in pairs if pair is not None]
    s = len(skews)
    if s:  # skewed numerators, then their denominators
        mats = np.array([mm for mm, _ in skews] + [nn for _, nn in skews],
                        dtype=complex)
        re, im = mats.real, mats.imag  # the embeddings E, stacked as rows of emb
        emb = np.concatenate([np.concatenate([re, -im], 2),
                              np.concatenate([im, re], 2)], 1).reshape(-1, 2 * n)
    # rows of best: the skews in order, then the one plain row
    best = np.full((s + 1, n_codebooks), -np.inf)
    for chunk, pos in enumerate(range(0, n_codebooks, per_chunk)):
        take = min(per_chunk, n_codebooks - pos)
        sub = stream.derive(chunk)
        gen = sub.generator()
        phases = sub.derive("phase").generator() if s else None
        out = best[:, pos:pos + take]
        for lo in range(0, m, step):
            cols = take * min(step, m - lo)
            plain, e = draw_weighted_norms(lam, gen, cols)
            np.maximum(out[s], plain.reshape(take, -1).max(axis=1), out=out[s])
            if not s:
                continue
            x = phases.standard_normal((2, n, cols))  # Re z, then Im z
            group = max(1, _MC_BLOCK // x.size)  # matrices per product block
            # one buffer takes |z|^2, then every product of the slice:
            # touching fresh memory costs more than the arithmetic on it
            buf = np.empty((min(group, 2 * s) * 2 * n, cols))
            r, sq = buf[:n], buf[n:2 * n]
            np.add(np.multiply(x[0], x[0], out=r), np.multiply(x[1], x[1], out=sq), out=r)
            np.sqrt(np.divide(e, r, out=e), out=e)
            x = np.multiply(x, e, out=x).reshape(2 * n, cols)  # [Re g; Im g]
            forms = np.empty((2 * s, cols))
            for lo_k in range(0, 2 * s, group):
                hi = min(lo_k + group, 2 * s)
                y = np.matmul(emb[2 * n * lo_k:2 * n * hi], x,
                              out=buf[:2 * n * (hi - lo_k)]).reshape(hi - lo_k, 2 * n, -1)
                np.multiply(y, x, out=y).sum(axis=1, out=forms[lo_k:hi])
            np.divide(forms[:s], forms[s:], out=forms[:s])
            np.maximum(out[:s], forms[:s].reshape(s, take, -1).max(axis=2), out=out[:s])
    skewed = np.array([pair is not None for pair in pairs])
    return best[np.where(skewed, skewed.cumsum() - 1, s)]
