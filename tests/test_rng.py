"""Stream derivation, reproducibility, the isotropy of the kernel's draws,
and the unitary sampler."""

import math

import numpy as np
import pytest
from scipy.stats import kstest

from helpers import standard_basis_quotients
from rvqlab.rng import (MASK64, RngStream, haar_unitary, mix_label, sample_unitary,
                        splitmix64)


def test_splitmix_range_and_injective_prefix():
    outs = {splitmix64(i) for i in range(2000)}
    assert len(outs) == 2000
    assert all(0 <= o <= MASK64 for o in outs)


def test_mix_label_stable():
    assert mix_label("codebooks") == mix_label("codebooks")
    assert mix_label("codebooks") != mix_label("channel")


def test_derive_deterministic():
    s = RngStream(42)
    assert s.derive(3) == s.derive(3)
    assert s.derive(3) != s.derive(4)
    assert s.derive("a").derive("b") != s.derive("b").derive("a")
    # int and str keys live in the same space but must not be conflated
    assert s.derive(0) != s.derive("0")


def test_generator_reproducible():
    s = RngStream(7, 9)
    a = s.generator().standard_normal(16)
    b = s.generator().standard_normal(16)
    assert np.array_equal(a, b)
    c = RngStream(7, 10).generator().standard_normal(16)
    assert not np.array_equal(a, c)


def test_streams_are_sfc64():
    # every sampled column is drawn from these streams: another bit
    # generator re-draws them all
    assert isinstance(RngStream(7, 9).generator().bit_generator, np.random.SFC64)


def test_stream_validation():
    with pytest.raises(ValueError):
        RngStream(-1)
    with pytest.raises(ValueError):
        RngStream(0, 1 << 64)


def _first_coordinate_mass(dim, n_draws, stream, u=None):
    """|(u f)_1|^2 / |f|^2 of the Monte Carlo kernel's isotropic draws f,
    as one-codeword best quotients of the unitary skew u (the identity by
    default) on the projector e1 e1'.  A skewed row reads the codewords'
    phases as well as their weights; a plain row would read the weights on
    the projector's eigenbasis alone, whatever u is."""
    a = np.eye(dim) if u is None else u
    proj = np.zeros((dim, dim))
    proj[0, 0] = 1.0
    pair = (a.conj().T @ proj @ a, a.conj().T @ a)
    return standard_basis_quotients([pair], 0, n_draws, stream)[0]


def test_coordinate_mass_exchangeable():
    # every coordinate of an isotropic vector carries mean mass 1/dim
    mass = _first_coordinate_mass(4, 80000, RngStream(8).derive("iso4"))
    se = mass.std(ddof=1) / math.sqrt(mass.size)
    assert abs(mass.mean() - 0.25) <= 4 * se


def test_first_coordinate_uniform_dim2():
    mass = _first_coordinate_mass(2, 10 ** 5, RngStream(5).derive("iso2"))
    stat = kstest(mass, "uniform").statistic
    assert stat <= 1.63 / math.sqrt(10 ** 5)


def test_unitary_invariance_dim2():
    # rotating the sample must leave the first-coordinate law uniform
    u = sample_unitary(2, RngStream(6).derive("u").generator())
    mass = _first_coordinate_mass(2, 10 ** 5, RngStream(5).derive("iso2"), u)
    stat = kstest(mass, "uniform").statistic
    assert stat <= 1.63 / math.sqrt(10 ** 5)


def test_stacked_unitary_first_coordinate_uniform_dim2():
    # the phase fix applies per matrix: |u11|^2 of Haar unitaries is uniform
    gen = RngStream(5).derive("stacked u").generator()
    u = haar_unitary(gen.standard_normal((10 ** 5, 2, 2, 2)))
    assert u.shape == (10 ** 5, 2, 2)
    stat = kstest(np.abs(u[:, 0, 0]) ** 2, "uniform").statistic
    assert stat <= 1.63 / math.sqrt(10 ** 5)


def test_stacked_unitaries_equal_draws_in_turn():
    stack = haar_unitary(RngStream(6).derive("turn").generator().standard_normal((4, 3, 3, 2)))
    gen = RngStream(6).derive("turn").generator()
    for u in stack:
        np.testing.assert_array_equal(u, sample_unitary(3, gen))
        assert np.abs(u @ u.conj().T - np.eye(3)).max() < 1e-12


def test_sample_unitary_is_unitary():
    rng = RngStream(9).generator()
    for n in (2, 4):
        u = sample_unitary(n, rng)
        assert np.abs(u @ u.conj().T - np.eye(n)).max() < 1e-12
        assert abs(abs(np.linalg.det(u)) - 1.0) < 1e-12
