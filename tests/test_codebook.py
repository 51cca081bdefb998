"""RVQ codebooks: the explicit reference codebook, and the ensemble
properties of the Monte Carlo kernel's best gains and quotients."""

import math

import numpy as np
import pytest
from scipy.stats import ks_2samp, kstest

from helpers import diag_channel, rvq_codebooks, standard_basis_quotients
from rvqlab.channel import ChannelRealization
from rvqlab.rng import RngStream, sample_unitary
from rvqlab.wnorm import WeightedNormLaw, cdf


def _stream(name):
    return RngStream(77).derive(name)


def _best_gains(gram, bits, n_codebooks, name):
    return standard_basis_quotients([(gram, None)], bits, n_codebooks, _stream(name))[0]


def test_generate_shapes():
    assert rvq_codebooks(_stream("b0"), 0, np.eye(3), 1).shape == (1, 1, 3)
    book = rvq_codebooks(_stream("b3"), 3, np.eye(4), 1)[0]
    assert book.shape == (8, 4)
    assert np.abs(np.linalg.norm(book, axis=1) - 1.0).max() < 1e-12
    # distinct with probability one
    overlaps = np.abs(book @ book.conj().T)
    assert np.all(overlaps[~np.eye(8, dtype=bool)] < 1.0 - 1e-9)


def test_entry_mass_exchangeable():
    # first-coordinate mass averages 1/n_t across entries and codebooks
    masses = np.abs(rvq_codebooks(_stream("x"), 3, np.eye(4), 2000)[..., 0]) ** 2
    se = masses.std(ddof=1) / math.sqrt(masses.size)
    assert abs(masses.mean() - 0.25) <= 4 * se


def test_skew_identity_and_scale():
    # a skew by a multiple of the identity selects as plain RVQ
    gram = diag_channel([3.0, 2.0, 1.0]).gram
    pairs = [(gram, None)] + [(c * c * gram, c * c * np.eye(3))
                              for c in (1.0, 7.0)]
    best = standard_basis_quotients(pairs, 2, 50, _stream("sk"))
    np.testing.assert_allclose(best[1:], best[[0, 0]], rtol=1e-14)


def test_metric_within_spectrum_range():
    gains = _best_gains(diag_channel([3.0, 2.0, 0.5]).gram, 2, 200, "r")
    assert 0.5 - 1e-12 <= gains.min() and gains.max() <= 3.0 + 1e-12


def test_metric_distribution_rotation_invariant():
    # conjugating the gram by a unitary leaves the selection law unchanged
    lam = [3.0, 1.0]
    u = sample_unitary(2, _stream("rotu").generator())
    rotated = ChannelRealization(np.diag(np.sqrt(lam)).astype(complex) @ u.conj().T)
    a = _best_gains(diag_channel(lam).gram, 2, 4000, "p")
    b = _best_gains(rotated.gram, 2, 4000, "q")
    assert ks_2samp(a, b).statistic <= 1.63 * math.sqrt(2.0 / 4000)


def test_metric_improves_with_bits():
    gram = diag_channel([3.0, 1.0, 0.5]).gram
    means = []
    ses = []
    for bits in (1, 3):
        vals = _best_gains(gram, bits, 400, f"b{bits}")
        means.append(vals.mean())
        ses.append(vals.std(ddof=1) / math.sqrt(vals.size))
    assert means[1] >= means[0] - 4 * math.hypot(*ses)


# the laws below come from wnorm's B-spline CDF, not from the kernel's
# arithmetic; a KS statistic above 1.63 / sqrt(N) has 1% probability.  Up
# to n = 8 the kernel sorts uniforms, at n = 16 it normalizes Exp(1) draws
_LAWS = {2: [2.0, 0.5], 3: [3.0, 1.2, 0.5], 4: [4.0, 2.5, 1.0, 0.2],
         8: [5.0, 4.0, 4.0, 2.5, 1.5, 1.0, 0.3, 0.0],
         16: list(np.linspace(3.0, 0.2, 16))}


def _rotated_gram(lam, name):
    v = sample_unitary(len(lam), _stream(name).generator())
    return (v * lam) @ v.conj().T


@pytest.mark.parametrize("n", sorted(_LAWS))
@pytest.mark.parametrize("bits", [0, 3])
def test_plain_best_quotient_law(n, bits):
    # the best of m plain quotients has CDF F(x)^m, F the weighted-norm law
    lam, size = _LAWS[n], 4000
    gains = _best_gains(_rotated_gram(lam, f"law{n}"), bits, size, f"law{n}/{bits}")
    law, m = WeightedNormLaw(lam), 1 << bits
    assert kstest(gains, lambda x: cdf(law, x) ** m).statistic <= 1.63 / math.sqrt(size)


@pytest.mark.parametrize("n", sorted(_LAWS))
def test_unitary_skew_quotient_law(n):
    # A f is isotropic for a unitary A, so a one-codeword quotient
    # (f'A'GAf)/(f'A'Af) follows the law of G's spectrum; with a plain pair
    # beside it, its codeword is drawn on G's eigenbasis and reads the phases
    lam, size = _LAWS[n], 4000
    gram = _rotated_gram(lam, f"skewlaw{n}")
    a = sample_unitary(n, _stream(f"skewlaw{n}/a").generator())
    pairs = [(gram, None), (a.conj().T @ gram @ a, a.conj().T @ a)]
    quotients = standard_basis_quotients(pairs, 0, size, _stream(f"skewlaw{n}/q"))[1]
    law = WeightedNormLaw(lam)
    assert kstest(quotients, lambda x: cdf(law, x)).statistic <= 1.63 / math.sqrt(size)
