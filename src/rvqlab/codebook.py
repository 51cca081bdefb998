"""The Monte Carlo kernel behind every sampled loss.

An RVQ codebook of B bits holds 2^B isotropic unit vectors, and the best
entry for a channel Gram G maximizes f'Gf; a skewed codebook maps every
entry through a fixed matrix A and renormalizes.  A normalized complex
Gaussian is isotropic and the quotient is scale-free, so the kernel never
builds unit vectors: it draws Gaussian codewords f and keeps the best
(f'Mf)/(f'Nf), with (M, N) = (G, I) for plain RVQ and (A'GA, A'A) for a
skew.

For Hermitian M, f'Mf = x'Ex with x = [Re f; Im f] and the real embedding
E = [[Re M, -Im M], [Im M, Re M]], so one real matrix product per group of
stacked embeddings gives every form of a codeword slice.  The last bits of
each value therefore depend on the BLAS GEMM kernel.
"""

from __future__ import annotations

import numpy as np

from .rng import RngStream

_MC_BLOCK = 1 << 16


def best_quotients(pairs, bits: int, n_codebooks: int,
                   stream: RngStream) -> np.ndarray:
    """Monte Carlo kernel: the (K, n_codebooks) array of best quotients.

    Every codebook holds 2^bits complex Gaussian codewords f shared by the K
    (M, N) pairs; row k holds each codebook's max of (f'Mf)/(f'Nf), where
    N = None means the plain norm f'f.  Chunk c draws from stream.derive(c),
    so values do not depend on the worker layout.  A codebook larger than
    the block is drawn in codeword slices from the same generator, so memory
    stays bounded at any bits.
    """
    m = 1 << bits
    n = pairs[0][0].shape[0]
    per_chunk = max(1, _MC_BLOCK // (m * n))
    step = max(1, _MC_BLOCK // n)
    skewed = np.array([nn is not None for _, nn in pairs])
    mats = np.array([mm for mm, _ in pairs] + [nn for _, nn in pairs
                                                 if nn is not None], dtype=complex)
    re, im = mats.real, mats.imag  # the embeddings E, stacked as rows of emb
    emb = np.concatenate([np.concatenate([re, -im], 2),
                          np.concatenate([im, re], 2)], 1).reshape(-1, 2 * n)
    n_pairs, n_mats = len(pairs), len(mats)
    # rows of forms: the forms of mats (numerators, skewed denominators), f'f
    den_rows = np.where(skewed, n_pairs - 1 + skewed.cumsum(), n_mats)
    best = np.full((n_pairs, n_codebooks), -np.inf)
    for chunk, pos in enumerate(range(0, n_codebooks, per_chunk)):
        take = min(per_chunk, n_codebooks - pos)
        gen = stream.derive(chunk).generator()
        out = best[:, pos:pos + take]
        for lo in range(0, m, step):
            x = gen.standard_normal((take, min(step, m - lo), n, 2))
            x = x.reshape(-1, n, 2).T.reshape(2 * n, -1)  # rows Re f, then Im f
            forms = np.empty((n_mats + 1, x.shape[1]))
            group = max(1, _MC_BLOCK // x.size)  # matrices per product block
            for lo_k in range(0, n_mats, group):
                hi = min(lo_k + group, n_mats)
                y = (emb[2 * n * lo_k:2 * n * hi] @ x).reshape(hi - lo_k, 2 * n, -1)
                np.multiply(y, x, out=y).sum(axis=1, out=forms[lo_k:hi])
            np.multiply(x, x, out=x).sum(axis=0, out=forms[-1])
            for k, d in enumerate(den_rows):  # in place: every d >= n_pairs
                forms[k] /= forms[d]
            np.maximum(out, forms[:n_pairs].reshape(n_pairs, take, -1).max(axis=2), out=out)
    return best
