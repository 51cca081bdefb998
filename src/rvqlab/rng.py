"""Deterministic stream-splittable random number generation.

All sampling in the package flows through ``RngStream`` so that results are
reproducible bit-for-bit for a given master seed and independent of how work
is chunked across workers.  Streams are keyed by ``(master_seed, stream_id)``;
child streams derive a new id through a splitmix64 hash, so any worker can
reconstruct the stream for its task without coordination.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MASK64 = (1 << 64) - 1


def splitmix64(x: int) -> int:
    """One splitmix64 mixing round; bijective on 64-bit integers."""
    x = (x + 0x9E3779B97F4A7C15) & MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return (z ^ (z >> 31)) & MASK64


def mix_label(label: str) -> int:
    """Stable 64-bit hash of a text label (for task-keyed streams)."""
    h = 0xCBF29CE484222325
    for byte in label.encode("utf-8"):
        h = ((h ^ byte) * 0x100000001B3) & MASK64
    return splitmix64(h)


@dataclass(frozen=True)
class RngStream:
    """A named, reproducible random stream.

    master_seed -- run-level seed (64-bit)
    stream_id   -- stream selector within the run (64-bit)
    """

    master_seed: int
    stream_id: int = 0

    def __post_init__(self):
        if not (0 <= self.master_seed <= MASK64):
            raise ValueError("master_seed must fit in 64 bits")
        if not (0 <= self.stream_id <= MASK64):
            raise ValueError("stream_id must fit in 64 bits")

    def derive(self, key: int | str) -> "RngStream":
        """Child stream; same (seed, id, key) always yields the same child."""
        k = mix_label(key) if isinstance(key, str) else int(key) & MASK64
        child = splitmix64(splitmix64(self.stream_id) ^ splitmix64(k))
        return RngStream(self.master_seed, child)

    def generator(self) -> np.random.Generator:
        """Fresh SFC64 generator keyed by SeedSequence spawn key stream_id."""
        seq = np.random.SeedSequence(self.master_seed, spawn_key=(self.stream_id,))
        return np.random.Generator(np.random.SFC64(seq))


def haar_unitary(normals: np.ndarray) -> np.ndarray:
    """Haar-distributed unitaries, one per trailing (dim, dim, 2) block of
    normals: QR of complex Gaussians, each phase convention fixed."""
    q, r = np.linalg.qr(normals[..., 0] + 1j * normals[..., 1])
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def sample_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary."""
    return haar_unitary(rng.standard_normal((dim, dim, 2)))
