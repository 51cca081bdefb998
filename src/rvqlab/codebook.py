"""The Monte Carlo kernel behind every sampled loss.

An RVQ codebook of B bits holds 2^B isotropic unit vectors, and the best
entry for a channel Gram G maximizes f'Gf; a skewed codebook maps every
entry through a fixed matrix A and renormalizes.  A normalized complex
Gaussian is isotropic and the quotient is scale-free, so the kernel never
builds unit vectors: it draws Gaussian codewords f and keeps the best
(f'Mf)/(f'Nf), with (M, N) = (G, I) for plain RVQ and (A'GA, A'A) for a
skew.

Each f'Mf is computed in real arithmetic on the planes Re f and Im f, adding
the roundings of (f_i* M_ij) f_j (* the conjugate) in row-major (i, j) order,
as numpy's complex Einstein summation does: addition is exact only in its own
order, so every sampled loss keeps its bytes.
"""

from __future__ import annotations

import numpy as np

from .rng import RngStream

_MC_BLOCK = 1 << 16
_TERM_WIDTH = 1 << 12  # codewords per block of terms: shorter rows cost numpy more


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
    skewed = np.array([nn is not None for _, nn in pairs])
    mats = np.array([mm for mm, _ in pairs] + [nn for _, nn in pairs
                                                 if nn is not None], dtype=complex)
    n_pairs, n_mats = len(pairs), len(mats)
    # rows of acc: the forms of mats (numerators, skewed denominators), f'f
    den_rows = np.where(skewed, n_pairs - 1 + skewed.cumsum(), n_mats)
    # part p (Re, Im) of f_i* M_ij, matrix k: sum over s of coef[s, p, i, j, k] f_i[s]
    coef = np.array([[mats.real, mats.imag], [mats.imag, -mats.real]])
    coef = coef.transpose(0, 1, 3, 4, 2)[..., None]
    best = np.full((n_pairs, n_codebooks), -np.inf)
    for chunk, pos in enumerate(range(0, n_codebooks, per_chunk)):
        take = min(per_chunk, n_codebooks - pos)
        gen = stream.derive(chunk).generator()
        out = best[:, pos:pos + take]
        for lo in range(0, m, step):
            planes = gen.standard_normal((take, min(step, m - lo), n, 2))
            planes = planes.reshape(-1, n, 2).T.copy()  # Re f, Im f: (2, n, size)
            size = planes.shape[2]
            acc = np.zeros((n_mats + 1, size))
            for lo_w in range(0, size, _TERM_WIDTH):
                f = planes[:, :, lo_w:lo_w + _TERM_WIDTH]
                # matrices per block, so that a block stays within _MC_BLOCK doubles
                group = max(1, _MC_BLOCK // (4 * n * f.shape[2]))
                for lo_k in range(0, n_mats, group):
                    forms = acc[lo_k:min(lo_k + group, n_mats), lo_w:lo_w + _TERM_WIDTH]
                    prod = np.empty((2, 2, n) + forms.shape)
                    for i in range(n):
                        np.multiply(coef[:, :, i, :, lo_k:lo_k + group],
                                    f[:, i, None, None, None], out=prod)
                        w = np.add(prod[0], prod[1], out=prod[0])  # Re, Im of f_i* M_ij
                        np.multiply(w, f[:, :, None], out=w)
                        term = np.subtract(w[0], w[1], out=w[0])  # Re of w_ij f_j
                        # as numpy does, sum rows first on n = 2 slices of 1-2 codewords
                        for t in [term.sum(0)] if n == 2 and size <= 2 else term:
                            np.add(forms, t, out=forms)
            sq = np.multiply(planes, planes, out=planes)
            for s in np.add(sq[0], sq[1], out=sq[0]):
                np.add(acc[-1], s, out=acc[-1])
            quotients = acc[:n_pairs] / acc[den_rows]
            np.maximum(out, quotients.reshape(n_pairs, take, -1).max(axis=2), out=out)
    return best
