"""Random vector-quantized beamforming codebooks and beam selection.

A codebook of B bits holds 2^B isotropically drawn unit vectors; the receiver
picks the entry maximizing the beamforming gain f* (H*H) f and feeds its index
back.  Skewed variants pass every entry through a fixed full-rank matrix and
renormalize, which biases the ensemble toward the matrix's dominant subspace.
``best_quotients`` is the Monte Carlo kernel behind every sampled loss.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelRealization
from .errors import ResourceLimitError, SingularSkewError
from .rng import RngStream, sample_isotropic

MAX_BITS = 24
SKEW_COND_TOL = 1e-12
_MC_BLOCK = 1 << 16


@dataclass(frozen=True)
class Codebook:
    """2^bits unit-norm rows of dimension n_t."""

    vectors: np.ndarray
    bits: int
    kind: str = "rvq"

    @property
    def size(self) -> int:
        return self.vectors.shape[0]

    @property
    def n_t(self) -> int:
        return self.vectors.shape[1]


@dataclass(frozen=True)
class BeamSelection:
    index: int
    metric: float
    snr_rx: float


def generate_rvq(n_t: int, bits: int, rng: np.random.Generator) -> Codebook:
    """Draw a fresh RVQ codebook: 2^bits i.i.d. isotropic unit vectors."""
    if bits < 0:
        raise ValueError("bits must be non-negative")
    if bits > MAX_BITS:
        raise ResourceLimitError(f"bits capped at {MAX_BITS}")
    if n_t < 1:
        raise ValueError("n_t must be positive")
    vec = sample_isotropic(n_t, rng, size=1 << bits)
    return Codebook(vectors=vec, bits=bits, kind="rvq")


def skew_codebook(base: Codebook, a: np.ndarray) -> Codebook:
    """Apply a full-rank skew to every entry and renormalize."""
    a = np.asarray(a, dtype=complex)
    if a.shape != (base.n_t, base.n_t):
        raise ValueError("skew matrix shape must match the codebook dimension")
    sv = np.linalg.svd(a, compute_uv=False)
    if sv[-1] <= SKEW_COND_TOL * sv[0]:
        raise SingularSkewError("skew matrix is numerically rank deficient")
    vec = base.vectors @ a.T
    vec = vec / np.linalg.norm(vec, axis=1, keepdims=True)
    return Codebook(vectors=vec, bits=base.bits, kind="skewed")


def selection_metrics(vectors: np.ndarray, gram: np.ndarray) -> np.ndarray:
    """Beamforming gains f* G f for each row f (real, one per row)."""
    return np.einsum("ki,ij,kj->k", vectors.conj(), gram, vectors).real


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


def select(book: Codebook, channel: ChannelRealization, rho: float) -> BeamSelection:
    """Best codebook entry for this channel; ties break to the lowest index."""
    if rho <= 0:
        raise ValueError("rho must be positive")
    if book.n_t != channel.n_t:
        raise ValueError("codebook and channel dimensions differ")
    metrics = selection_metrics(book.vectors, channel.gram)
    idx = int(np.argmax(metrics))  # argmax returns the first maximum
    metric = float(metrics[idx])
    return BeamSelection(index=idx, metric=metric, snr_rx=rho * metric)


def mutual_info_pair(channel: ChannelRealization, sel: BeamSelection,
                     rho: float) -> tuple[float, float]:
    """(perfect-feedback rate, quantized-feedback rate) in bits."""
    if rho <= 0:
        raise ValueError("rho must be positive")
    i_perf = float(np.log2(1.0 + rho * channel.spectrum[0]))
    i_lim = float(np.log2(1.0 + rho * sel.metric))
    return i_perf, i_lim
