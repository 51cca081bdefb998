"""Shared constructors for the test suite."""

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
