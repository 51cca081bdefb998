"""The Monte Carlo kernel behind every sampled loss.

An RVQ codebook of B bits holds 2^B isotropic unit vectors, and the best
entry for a channel Gram G maximizes f'Gf; a skewed codebook maps every
entry through a fixed matrix A and renormalizes.  A normalized complex
Gaussian is isotropic and the quotient is scale-free, so the kernel never
builds unit vectors: it draws Gaussian codewords f and keeps the best
(f'Mf)/(f'Nf), with (M, N) = (G, I) for plain RVQ and (A'GA, A'A) for a
skew.
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
    the block is drawn in codeword slices from the same generator; the
    draws are sequential and max is exact, so slicing changes no value and
    memory stays bounded at any bits.
    """
    m = 1 << bits
    n = pairs[0][0].shape[0]
    per_chunk = max(1, _MC_BLOCK // (m * n))
    step = max(1, _MC_BLOCK // n)
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
