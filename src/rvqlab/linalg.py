"""Hermitian eigen-decomposition with a fixed ordering convention.

Everything downstream assumes eigenvalues sorted in descending order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MAX_DIM = 64
HERMITICITY_RTOL = 1e-10
# entries up to this size square and sum over MAX_DIM^2 terms without overflow
_SQUARE_SAFE = 1e150


@dataclass(frozen=True)
class HermitianEigen:
    """Eigen-decomposition M = V diag(values) V*, values descending."""

    values: np.ndarray
    vectors: np.ndarray | None  # columns are eigenvectors, aligned with values


def hermitian_eig(m: np.ndarray, vectors: bool = True) -> HermitianEigen:
    """Eigen-decomposition of a Hermitian matrix, descending eigenvalues.

    The matrix must be square, at most 64x64, and Hermitian to within
    1e-10 relative Frobenius tolerance.  With vectors=False only the
    eigenvalues are computed, which is noticeably cheaper in hot loops, and
    m may be a stack (..., n, n): every matrix is checked alike, and values
    has shape (..., n), each row descending.
    """
    m = np.asarray(m)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError("hermitian_eig requires a square matrix")
    if m.shape[-1] > MAX_DIM:
        raise ValueError(f"hermitian_eig supports dimension <= {MAX_DIM}")
    if vectors and m.ndim != 2:
        raise ValueError("hermitian_eig computes eigenvectors of one matrix only")
    mh = m.conj().swapaxes(-1, -2)
    mag = np.abs(m)
    if not mag.max() <= _SQUARE_SAFE:  # the squares would overflow: scale first
        scale = mag.max(axis=(-2, -1), keepdims=True)
        if not np.isfinite(scale).all():
            raise ValueError("matrix entries must be finite")
        scale[scale == 0] = 1.0  # an all-zero matrix needs no scaling
        diff, mag = m / scale - mh / scale, mag / scale
    else:
        diff = m - mh
    # squared Frobenius norms, one per matrix
    asym = (np.abs(diff) ** 2).sum(axis=(-2, -1))
    if (asym > HERMITICITY_RTOL ** 2 * (mag ** 2).sum(axis=(-2, -1))).any():
        raise ValueError("matrix is not Hermitian within tolerance")
    h = (m + mh) / 2.0
    if not vectors:
        w = np.linalg.eigvalsh(h)
        return HermitianEigen(values=w[..., ::-1].copy(), vectors=None)
    w, v = np.linalg.eigh(h)
    order = np.argsort(-w, kind="stable")
    return HermitianEigen(values=w[order], vectors=v[:, order])


def check_spectrum(lam, n_min: int = 1) -> np.ndarray:
    """Validate a spectrum array: 1-D, length >= n_min, finite, descending,
    >= 0."""
    lam = np.asarray(lam, dtype=float)
    if lam.ndim != 1 or lam.size < n_min:
        raise ValueError(f"spectrum must be a 1-D array of length >= {n_min}")
    if not np.isfinite(lam).all():
        raise ValueError("spectrum entries must be finite")
    if np.any(lam < 0):
        raise ValueError("spectrum entries must be non-negative")
    if np.any(np.diff(lam) > 0):
        raise ValueError("spectrum must be sorted in descending order")
    if lam[0] <= 0:
        raise ValueError("leading eigenvalue must be positive")
    return lam
