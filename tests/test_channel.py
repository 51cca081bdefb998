import math

import numpy as np
import pytest
from scipy.stats import kstest

from helpers import complex_gaussian
from rvqlab.channel import (ChannelRealization, FixedSpectrumModel, IIDModel,
                            KroneckerModel, mean_energy, normalize_power,
                            sample_channel, sample_grams, transmit_covariance)
from rvqlab.errors import UnsupportedModelError
from rvqlab.rng import RngStream, sample_unitary


def _gen(name):
    return RngStream(20240701).derive(name).generator()


def test_realization_invariants():
    h = complex_gaussian(_gen("real"), (3, 3))
    ch = ChannelRealization(h)
    assert np.abs(ch.gram - h.conj().T @ h).max() < 1e-12
    assert np.all(np.diff(ch.spectrum) <= 0)
    quotient = (ch.u_dominant.conj() @ ch.gram @ ch.u_dominant).real
    assert quotient == pytest.approx(ch.spectrum[0], rel=1e-9)
    assert np.linalg.norm(ch.u_dominant) == pytest.approx(1.0, abs=1e-12)


def test_stacked_grams_match_sample_channel():
    lt, lr = np.array([1.6, 1.2, 0.8, 0.4]), np.array([1.5, 1.0, 0.5])
    models = [IIDModel(4, 2), KroneckerModel(lt, lr),
              FixedSpectrumModel([4.0, 3.0, 2.0, 1.0], n_r=5),
              FixedSpectrumModel([4.0, 3.0, 2.0, 1.0], frozen=True)]
    for model in models:
        # six draws stacked, against six draws in turn: bit for bit as
        # stacks of one, and as sample_channel calls
        grams, spectra = sample_grams(model, _gen("stack"), 6)
        assert grams.shape == (6, 4, 4) and spectra.shape == (6, 4)
        gen, turn = _gen("stack"), _gen("stack")
        for gram, spectrum in zip(grams, spectra):
            one, top = sample_grams(model, turn, 1)
            np.testing.assert_array_equal(one[0], gram)
            np.testing.assert_array_equal(top[0], spectrum)
            ch = sample_channel(model, gen)
            assert np.abs(gram - ch.gram).max() <= 1e-13 * np.abs(ch.gram).max()
            assert spectrum[0] == pytest.approx(ch.spectrum[0], rel=1e-13)
            # the channel clips rounding below 0 where the rank is below 4
            assert np.abs(spectrum - ch.spectrum).max() <= 1e-13 * ch.spectrum[0]


def test_fixed_spectrum_recovery():
    model = FixedSpectrumModel([4.0, 3.0, 2.0, 1.0])
    ch = sample_channel(model, _gen("fixed"))
    assert np.abs(ch.spectrum - [4.0, 3.0, 2.0, 1.0]).max() < 1e-10


def test_fixed_spectrum_frozen_frames():
    model = FixedSpectrumModel([4.0, 1.0], frozen=True)
    a = sample_channel(model, _gen("fr1"))
    b = sample_channel(model, _gen("fr2"))
    # frozen frames are deterministic, so the realization ignores the stream
    assert np.abs(a.h - b.h).max() == 0.0
    assert np.abs(a.gram - np.diag([4.0, 1.0])).max() < 1e-12


def test_fixed_spectrum_random_frames_differ():
    model = FixedSpectrumModel([4.0, 1.0])
    a = sample_channel(model, _gen("fa"))
    b = sample_channel(model, _gen("fb"))
    assert np.abs(a.h - b.h).max() > 1e-3
    assert np.abs(a.spectrum - b.spectrum).max() < 1e-10


def test_iid_mean_energy():
    model = IIDModel(3, 2)
    draws = [sample_channel(model, _gen(f"iid{i}")) for i in range(2000)]
    energies = np.array([np.trace(ch.gram).real for ch in draws])
    se = energies.std(ddof=1) / math.sqrt(energies.size)
    assert abs(energies.mean() - 6.0) <= 4 * se
    assert mean_energy(model) == pytest.approx(6.0)


def test_kronecker_gram_structure():
    # E[H'H] must reproduce sum(lam_r) * U_t diag(lam_t) U_t'
    model = KroneckerModel(lambda_t=np.array([2.0, 1.0]),
                           lambda_r=np.array([1.5, 0.5]))
    acc = np.zeros((2, 2), dtype=complex)
    n = 4000
    for i in range(n):
        acc += sample_channel(model, _gen(f"kr{i}")).gram
    acc /= n
    want = np.diag([4.0, 2.0])
    assert np.abs(acc - want).max() < 4 * 4.0 / math.sqrt(n)


def test_kronecker_validation():
    with pytest.raises(ValueError):
        KroneckerModel(lambda_t=np.array([1.0, 2.0]),
                       lambda_r=np.array([1.0, 1.0]))


def test_normalize_power():
    assert np.allclose(
        normalize_power(FixedSpectrumModel([2.0, 2.0]), 1.0).lam, [0.5, 0.5])
    model = KroneckerModel(lambda_t=np.array([2.0, 1.0, 0.5, 0.5]),
                           lambda_r=np.array([2.0, 1.0, 0.5, 0.5]))
    assert mean_energy(model) == pytest.approx(16.0)
    same = normalize_power(model, 16.0)
    assert np.allclose(same.lambda_t, model.lambda_t)
    iid = normalize_power(IIDModel(4, 4), 16.0)
    assert mean_energy(iid) == pytest.approx(16.0)


def test_transmit_covariance():
    sigma_t = transmit_covariance(IIDModel(4, 4))
    assert np.abs(sigma_t - 4.0 * np.eye(4)).max() < 1e-12
    model = KroneckerModel(lambda_t=np.array([16.0, 0.0, 0.0, 0.0]),
                           lambda_r=np.array([1.0, 1.0, 1.0, 1.0]))
    assert np.linalg.matrix_rank(transmit_covariance(model), tol=1e-9) == 1
    # a frozen spectrum pins the covariance, an unfrozen one only its trace
    frozen = transmit_covariance(FixedSpectrumModel([2.0, 1.0], frozen=True))
    assert np.allclose(frozen, np.diag([2.0, 1.0]))
    spun = transmit_covariance(FixedSpectrumModel([2.0, 1.0]))
    assert np.allclose(spun, 1.5 * np.eye(2))
    with pytest.raises(UnsupportedModelError):
        transmit_covariance(object())


def test_scale_equivariance_same_seed():
    base = KroneckerModel(lambda_t=np.array([2.0, 1.0]),
                          lambda_r=np.array([1.0, 1.0]))
    scaled = KroneckerModel(lambda_t=np.array([6.0, 3.0]),
                            lambda_r=np.array([1.0, 1.0]))
    a = sample_channel(base, _gen("sc"))
    b = sample_channel(scaled, _gen("sc"))
    assert np.allclose(b.spectrum, 3.0 * a.spectrum, rtol=1e-10)


def test_dominant_vector_phase_free():
    model = FixedSpectrumModel([3.0, 1.0])
    ch = sample_channel(model, _gen("ph"))
    u = ch.u_dominant
    # compare through the quotient, not the raw vector, to stay phase-free
    w = sample_unitary(2, _gen("phu"))
    rotated = ChannelRealization(ch.h @ w)
    assert abs(np.abs(rotated.u_dominant.conj() @ (w.conj().T @ u)) - 1.0) < 1e-9


def test_dominant_vector_isotropic_for_iid():
    model = IIDModel(2, 2)
    mags = np.array([
        np.abs(sample_channel(model, _gen(f"ud{i}")).u_dominant[0]) ** 2
        for i in range(10 ** 4)])
    assert kstest(mags, "uniform").statistic <= 1.63 / math.sqrt(10 ** 4)
