"""Majorization ordering of power profiles and its effect on the gain loss.

Comparisons are made at equal total power: profiles are normalized to unit
sum before prefix sums are compared, so only the shape matters.  The family
generator walks a one-parameter path from maximally spread toward the
balanced profile; the quantization loss is nonincreasing along it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import check_spectrum

PREFIX_TOL = 1e-12
SUM_RTOL = 1e-9


def majorize_compare(a, b) -> int:
    """Return +1 if a majorizes b, -1 if b majorizes a, 0 if incomparable.

    Both profiles are normalized to unit sum first; raw sums must already
    agree to 1e-9 relative (comparing different total powers is a bug).
    """
    a = check_spectrum(np.sort(np.asarray(a, dtype=float))[::-1])
    b = check_spectrum(np.sort(np.asarray(b, dtype=float))[::-1])
    if a.size != b.size:
        raise ValueError("profiles must have equal length")
    sa, sb = a.sum(), b.sum()
    if abs(sa - sb) > SUM_RTOL * max(sa, sb):
        raise ValueError("profiles carry different total power")
    pa = np.cumsum(a / sa)
    pb = np.cumsum(b / sb)
    geq = bool(np.all(pa >= pb - PREFIX_TOL))
    leq = bool(np.all(pb >= pa - PREFIX_TOL))
    if geq and leq:
        return 0
    if geq:
        return 1
    if leq:
        return -1
    return 0


def schur_family() -> np.ndarray:
    """The 149 profiles [1-x, x/3, x/3, x/3], x = 0.01, 0.015, ..., 0.75.

    Successive members are comparable, each majorizing the next, so the
    family is a chain.  It stops at the balanced profile, x = 0.75: beyond it
    the leading entry drops below the rest and the chain breaks.
    """
    xs = 0.01 + 0.005 * np.arange(149)
    fam = np.empty((xs.size, 4))
    fam[:, 0] = 1.0 - xs
    fam[:, 1:] = (xs / 3.0)[:, None]
    return fam


@dataclass(frozen=True)
class OrderingReport:
    n_profiles: int
    losses: np.ndarray
    monotone: bool
    max_violation: float


def verify_schur(profiles, evaluate, tol: float = 0.0) -> OrderingReport:
    """Check that the loss is nonincreasing along a majorization chain.

    ``evaluate`` maps a profile to a scalar loss.  Adjacent profiles must be
    comparable with earlier majorizing later; a noisy evaluator can pass a
    positive ``tol`` (e.g. a few standard errors).
    """
    profiles = np.asarray(profiles, dtype=float)
    for i in range(profiles.shape[0] - 1):
        c = majorize_compare(profiles[i], profiles[i + 1])
        if c < 1 and not np.allclose(profiles[i], profiles[i + 1]):
            raise ValueError(f"profile {i} does not majorize profile {i + 1}")
    losses = np.array([float(evaluate(p)) for p in profiles])
    diffs = np.diff(losses)
    worst = float(diffs.max()) if diffs.size else 0.0
    return OrderingReport(n_profiles=profiles.shape[0], losses=losses,
                          monotone=bool(worst <= tol), max_violation=max(worst, 0.0))
