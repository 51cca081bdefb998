"""The package's Hermitian eigen-solves, each a numpy call where its matrix
is built: descending spectra, stacked solves that match one-at-a-time ones,
and the checks on matrices that enter from outside (a channel, a skew, a
covariance).  Also ``linalg.check_spectrum``."""

import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from helpers import complex_gaussian
from rvqlab.channel import (ChannelRealization, FixedSpectrumModel, IIDModel,
                            sample_channel, sample_grams)
from rvqlab.linalg import check_spectrum
from rvqlab.skew import SkewMatrix, build_skew_a2


def _covariance(rng, n):
    """A random Hermitian positive-definite n x n matrix."""
    c = complex_gaussian(rng, (n, n))
    return c @ c.conj().T + np.eye(n)


def test_diagonal_input_sorted():
    ch = ChannelRealization(np.diag(np.sqrt([3.0, 1.0, 2.0])).astype(complex))
    assert np.allclose(ch.spectrum, [3.0, 2.0, 1.0])
    # the dominant eigenvector of a diagonal Gram is a signed basis vector
    assert np.allclose(np.abs(ch.u_dominant), [1.0, 0.0, 0.0])
    assert np.allclose(SkewMatrix(np.diag([1.0, 3.0, 2.0])).eig_ata, [9.0, 4.0, 1.0])


def test_symmetric_2x2():
    # alpha = 1, beta = 1 gives the covariance itself, so A'A is its square
    sk = build_skew_a2(np.array([[2.0, 1.0], [1.0, 2.0]]), 1.0, 1.0)
    assert np.allclose(sk.eig_ata, [9.0, 1.0])


def test_reconstruction():
    m = _covariance(np.random.default_rng(1), 4)
    assert np.abs(build_skew_a2(m, 1.0, 1.0).a - m).max() < 1e-10
    whitener = build_skew_a2(m, 0.0, 0.0).a
    assert np.abs(whitener @ m @ whitener - np.eye(4)).max() < 1e-10


def test_values_only_path():
    # the stacked eigenvalue solve agrees with one channel's solve with
    # eigenvectors, on the same draws
    model = IIDModel(5, 4)
    grams, spectra = sample_grams(model, np.random.default_rng(2), 6)
    gen = np.random.default_rng(2)
    for gram, lam in zip(grams, spectra):
        ch = sample_channel(model, gen)
        assert np.allclose(ch.gram, gram, rtol=0.0, atol=1e-12)
        assert np.allclose(ch.spectrum, lam, rtol=0.0, atol=1e-12 * lam[0])


def test_trace_and_shift():
    rng = np.random.default_rng(3)
    ch = ChannelRealization(complex_gaussian(rng, (4, 4)))
    assert np.trace(ch.gram).real == pytest.approx(ch.spectrum.sum(), rel=1e-10)
    m = _covariance(rng, 4)
    w = np.sqrt(build_skew_a2(m, 1.0, 1.0).eig_ata)
    assert np.trace(m).real == pytest.approx(w.sum(), rel=1e-10)
    w_shift = np.sqrt(build_skew_a2(m + 2.5 * np.eye(4), 1.0, 1.0).eig_ata)
    assert np.allclose(w_shift, w + 2.5, atol=1e-10)


def test_input_validation():
    # a skew, a channel and a covariance enter from outside: each is
    # refused where it enters, before its eigen-solve (which, at n = 2,
    # returns NaN for a non-finite matrix without raising)
    for n, bad in ((2, np.nan), (2, np.inf), (3, np.nan)):
        a = np.eye(n, dtype=complex)
        a[0, 1] = bad
        with pytest.raises(ValueError), np.errstate(invalid="ignore"):
            SkewMatrix(a)
        with pytest.raises(ValueError), np.errstate(invalid="ignore"):
            ChannelRealization(a)
        with pytest.raises(ValueError):
            build_skew_a2(a, 1.0, 1.0)
    with pytest.raises(ValueError):
        SkewMatrix(np.eye(65))
    with pytest.raises(ValueError, match="Hermitian"):
        build_skew_a2(np.array([[2.0, 1.0], [0.0, 2.0]]), 1.0, 1.0)


def test_hermiticity_check_survives_huge_entries():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # squared, these entries overflow to inf on both sides of the check
        with pytest.raises(ValueError, match="Hermitian"):
            build_skew_a2(np.array([[1e300, 1e300], [0.0, 1e300]]), 1.0, 1.0)
        sk = build_skew_a2(np.array([[2e300, 1e300], [1e300, 1e300]]), 1.0, 0.0)
        assert np.allclose(sk.a, np.eye(2), rtol=0.0, atol=1e-12)
        # a custom fixed_spectrum model at [2e154, 1e154]: Gram entries near
        # 1e154 square past the float range
        model = FixedSpectrumModel(lam=np.array([2e154, 1e154]))
        ch = sample_channel(model, np.random.default_rng(4))
        assert np.allclose(ch.spectrum, [2e154, 1e154], rtol=1e-12)


def test_check_spectrum():
    lam = check_spectrum([3, 2, 1])
    assert lam.dtype == float
    with pytest.raises(ValueError):
        check_spectrum([1.0, 2.0])
    with pytest.raises(ValueError):
        check_spectrum([1.0, -0.1])
    with pytest.raises(ValueError):
        check_spectrum([0.0, 0.0])
    with pytest.raises(ValueError):
        check_spectrum([2.0, 1.0], n_min=3)
    for lam in ([np.nan, 1.0], [np.inf, 1.0], [2.0, np.nan], [1.0, -np.inf]):
        with pytest.raises(ValueError, match="finite"):
            check_spectrum(lam)


@given(st.integers(0, 10 ** 6), st.integers(2, 8))
def test_random_hermitian_descending(seed, n):
    rng = np.random.default_rng(seed)
    assert np.all(np.diff(ChannelRealization(complex_gaussian(rng, (n, n))).spectrum) <= 0)
    _, spectra = sample_grams(IIDModel(n, 3), rng, 4)
    assert np.all(np.diff(spectra, axis=1) <= 0)


# ---------------------------------------------------------------------------
# stacked eigenvalues


@pytest.mark.parametrize("n", [2, 3, 4])
def test_stack_matches_single_calls_bit_for_bit(n):
    # a stacked draw and its solve give each channel the bytes that the
    # same draws taken one at a time do
    model = IIDModel(n, n)
    grams, spectra = sample_grams(model, np.random.default_rng(10 + n), 64)
    assert spectra.shape == (64, n)
    gen = np.random.default_rng(10 + n)
    singles = [sample_grams(model, gen, 1) for _ in range(64)]
    np.testing.assert_array_equal(grams, np.concatenate([g for g, _ in singles]))
    np.testing.assert_array_equal(spectra, np.concatenate([s for _, s in singles]))


def test_stack_shape_validation():
    for h in (np.zeros(3), np.zeros((4, 2, 3))):
        with pytest.raises(ValueError, match="2-D"):
            ChannelRealization(h)
        with pytest.raises(ValueError, match="square"):
            SkewMatrix(h)
    with pytest.raises(ValueError, match="64"):
        ChannelRealization(np.ones((2, 65)))
