"""The transmit-dimension cap and the spectrum check.

Everything downstream assumes eigenvalues sorted in descending order.
"""

from __future__ import annotations

import numpy as np

MAX_DIM = 64


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
