"""RVQ codebooks: the explicit reference codebook, and the ensemble
properties of the Monte Carlo kernel's best gains."""

import math

import numpy as np
from scipy.stats import ks_2samp

from helpers import diag_channel, rvq_codebooks
from rvqlab.channel import ChannelRealization
from rvqlab.codebook import best_quotients
from rvqlab.rng import RngStream, sample_unitary


def _stream(name):
    return RngStream(77).derive(name)


def _best_gains(gram, bits, n_codebooks, name):
    return best_quotients([(gram, None)], bits, n_codebooks, _stream(name))[0]


def test_generate_shapes():
    assert rvq_codebooks(_stream("b0"), 0, 3, 1).shape == (1, 1, 3)
    book = rvq_codebooks(_stream("b3"), 3, 4, 1)[0]
    assert book.shape == (8, 4)
    assert np.abs(np.linalg.norm(book, axis=1) - 1.0).max() < 1e-12
    # distinct with probability one
    overlaps = np.abs(book @ book.conj().T)
    assert np.all(overlaps[~np.eye(8, dtype=bool)] < 1.0 - 1e-9)


def test_entry_mass_exchangeable():
    # first-coordinate mass averages 1/n_t across entries and codebooks
    masses = np.abs(rvq_codebooks(_stream("x"), 3, 4, 2000)[..., 0]) ** 2
    se = masses.std(ddof=1) / math.sqrt(masses.size)
    assert abs(masses.mean() - 0.25) <= 4 * se


def test_skew_identity_and_scale():
    # a skew by a multiple of the identity selects as plain RVQ
    gram = diag_channel([3.0, 2.0, 1.0]).gram
    pairs = [(gram, None)] + [(c * c * gram, c * c * np.eye(3))
                              for c in (1.0, 7.0)]
    best = best_quotients(pairs, 2, 50, _stream("sk"))
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
