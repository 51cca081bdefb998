"""Channel models and sampling.

Three model kinds:

* ``IIDModel``        -- i.i.d. unit-variance complex Gaussian entries.
* ``KroneckerModel``  -- separately correlated ends,
  ``H = U_r diag(sqrt(l_r)) H_iid diag(sqrt(l_t)) U_t*``.
  With identity spectra this reduces exactly to the i.i.d. model, and
  ``E[Tr H*H] = sum(l_t) * sum(l_r)``.
* ``FixedSpectrumModel`` -- deterministic squared singular values with Haar
  (or frozen identity) singular-vector frames.

``normalize_power`` rescales a model so the mean channel energy matches a
target; after normalizing the figure setups to n_t*n_r, the transmit/receive
covariance eigenvalues equal the quoted spectra exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .errors import UnsupportedModelError
from .linalg import check_spectrum, hermitian_eig
from .rng import haar_unitary

UNITARY_TOL = 1e-8
# cap on E[Tr H*H] that configs may ask for: sampled Grams and the codebook
# quadratic forms multiply it by Gaussian magnitudes, and must stay finite
MAX_ENERGY = 1e300


@dataclass(frozen=True)
class IIDModel:
    n_t: int
    n_r: int

    def __post_init__(self):
        if self.n_t < 1 or self.n_r < 1:
            raise ValueError("antenna counts must be positive")


@dataclass(frozen=True)
class KroneckerModel:
    lambda_t: np.ndarray
    lambda_r: np.ndarray
    u_t: np.ndarray | None = None
    u_r: np.ndarray | None = None

    def __post_init__(self):
        lt = check_spectrum(self.lambda_t)
        lr = check_spectrum(self.lambda_r)
        object.__setattr__(self, "lambda_t", lt)
        object.__setattr__(self, "lambda_r", lr)
        for name, u, dim in (("u_t", self.u_t, lt.size), ("u_r", self.u_r, lr.size)):
            if u is None:
                continue
            u = np.asarray(u, dtype=complex)
            if u.shape != (dim, dim):
                raise ValueError(f"{name} must be {dim}x{dim}")
            if np.linalg.norm(u.conj().T @ u - np.eye(dim)) > UNITARY_TOL:
                raise ValueError(f"{name} is not unitary within tolerance")
            object.__setattr__(self, name, u)
        if lt.sum() <= 0 or lr.sum() <= 0:
            raise ValueError("zero-power covariance spectrum")

    @property
    def n_t(self) -> int:
        return self.lambda_t.size

    @property
    def n_r(self) -> int:
        return self.lambda_r.size


@dataclass(frozen=True)
class FixedSpectrumModel:
    lam: np.ndarray
    n_r: int | None = None
    frozen: bool = False

    def __post_init__(self):
        lam = check_spectrum(self.lam)
        object.__setattr__(self, "lam", lam)
        nr = lam.size if self.n_r is None else int(self.n_r)
        if nr < lam.size:
            raise ValueError("n_r must be at least the spectrum length")
        object.__setattr__(self, "n_r", nr)

    @property
    def n_t(self) -> int:
        return self.lam.size


ChannelModel = Union[IIDModel, KroneckerModel, FixedSpectrumModel]


@dataclass(frozen=True)
class ChannelRealization:
    """One channel draw with its Gram decomposition cached."""

    h: np.ndarray
    gram: np.ndarray = field(init=False, repr=False)
    spectrum: np.ndarray = field(init=False)
    u_dominant: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        h = np.asarray(self.h, dtype=complex)
        if h.ndim != 2:
            raise ValueError("channel matrix must be 2-D")
        object.__setattr__(self, "h", h)
        gram = h.conj().T @ h
        eig = hermitian_eig(gram)
        spectrum = np.clip(eig.values, 0.0, None)
        object.__setattr__(self, "gram", gram)
        object.__setattr__(self, "spectrum", spectrum)
        object.__setattr__(self, "u_dominant", eig.vectors[:, 0])

    @property
    def n_t(self) -> int:
        return self.h.shape[1]


def _sample_matrices(model: ChannelModel, rng: np.random.Generator, count: int):
    """Draw a (count, n_r, n_t) stack of channel matrices H from the model;
    a stacked draw fills as the same draws made one after another."""
    if isinstance(model, (IIDModel, KroneckerModel)):
        g = rng.standard_normal((count, model.n_r, model.n_t, 2))
        h = (g[..., 0] + 1j * g[..., 1]) / np.sqrt(2.0)
        if isinstance(model, IIDModel):
            return h
        h = np.sqrt(model.lambda_r)[:, None] * h * np.sqrt(model.lambda_t)[None, :]
        if model.u_r is not None:
            h = model.u_r @ h
        if model.u_t is not None:
            h = h @ model.u_t.conj().T
        return h
    if isinstance(model, FixedSpectrumModel):
        n_t, n_r = model.n_t, model.n_r
        root = np.sqrt(model.lam)
        if model.frozen:
            h = np.zeros((count, n_r, n_t), dtype=complex)
            h[:, :n_t, :] = np.diag(root)
            return h
        # each channel draws the normals of its v, then those of its w
        g = rng.standard_normal((count, n_r * n_r + n_t * n_t, 2))
        v = haar_unitary(g[:, :n_r * n_r].reshape(count, n_r, n_r, 2))[..., :n_t]
        w = haar_unitary(g[:, n_r * n_r:].reshape(count, n_t, n_t, 2))
        return v @ np.diag(root) @ w.conj().swapaxes(1, 2)
    raise UnsupportedModelError(f"unknown channel model {type(model)!r}")


def sample_channel(model: ChannelModel, rng: np.random.Generator) -> ChannelRealization:
    """Draw one realization from the model."""
    return ChannelRealization(_sample_matrices(model, rng, 1)[0])


def sample_grams(model: ChannelModel, gen: np.random.Generator, count: int):
    """The Grams H'H of ``sample_channel``'s next count draws from gen, and
    their spectra (each descending) from one stacked eigenvalue solve."""
    h = _sample_matrices(model, gen, count)
    grams = h.conj().swapaxes(1, 2) @ h
    return grams, hermitian_eig(grams, vectors=False).values


def mean_energy(model: ChannelModel) -> float:
    """E[Tr H*H] under the model's sampling convention."""
    if isinstance(model, IIDModel):
        return float(model.n_t * model.n_r)
    if isinstance(model, KroneckerModel):
        return float(model.lambda_t.sum() * model.lambda_r.sum())
    if isinstance(model, FixedSpectrumModel):
        return float(model.lam.sum())
    raise UnsupportedModelError(f"unknown channel model {type(model)!r}")


def normalize_power(model: ChannelModel, rho_c: float) -> ChannelModel:
    """Rescale the model so the mean channel energy equals rho_c."""
    if not 0 < rho_c < np.inf:
        raise ValueError("rho_c must be positive and finite")
    with np.errstate(over="ignore"):  # an overflow leaves no scale, refused below
        cur = mean_energy(model)
    scale = rho_c / cur
    if not 0 < scale < np.inf:
        raise ValueError(f"mean channel energy {cur:g} leaves no finite rho_c scale")
    if abs(scale - 1.0) < 1e-12:
        return model
    if isinstance(model, IIDModel):
        # power lives in the entry variance; shift to an equivalent-law
        # Kronecker model with flat spectra carrying the scale
        lt = np.full(model.n_t, rho_c / (model.n_t * model.n_r))
        lr = np.ones(model.n_r)
        return KroneckerModel(lambda_t=lt, lambda_r=lr)
    if isinstance(model, KroneckerModel):
        return KroneckerModel(lambda_t=model.lambda_t * scale,
                              lambda_r=model.lambda_r,
                              u_t=model.u_t, u_r=model.u_r)
    return FixedSpectrumModel(lam=model.lam * scale, n_r=model.n_r, frozen=model.frozen)


def transmit_covariance(model: ChannelModel) -> np.ndarray:
    """Exact E[H*H] matrix implied by the sampling convention."""
    if isinstance(model, IIDModel):
        return model.n_r * np.eye(model.n_t, dtype=complex)
    if isinstance(model, KroneckerModel):
        ut = np.eye(model.n_t, dtype=complex) if model.u_t is None else model.u_t
        return model.lambda_r.sum() * (ut * model.lambda_t) @ ut.conj().T
    if isinstance(model, FixedSpectrumModel):
        if model.frozen:
            return np.diag(model.lam).astype(complex)
        return (model.lam.sum() / model.n_t) * np.eye(model.n_t, dtype=complex)
    raise UnsupportedModelError(f"unknown channel model {type(model)!r}")
