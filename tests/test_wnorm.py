"""Closed-form law of the eigenweighted norm against sampling and geometry."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import mpmath_law, worst_relative_error
from rvqlab.linalg import MAX_DIM
from rvqlab.loss import GAP_RTOL
from rvqlab.quadrature import integrate_piecewise
from rvqlab.rng import RngStream
from rvqlab.wnorm import (WeightedNormLaw, cdf, empirical_cdf,
                          empirical_cdf_eval, pdf, sample_weighted_norms)


def test_support_and_endpoints():
    law = WeightedNormLaw([4.0, 3.0, 2.0, 1.0])
    assert law.support == (1.0, 4.0)
    assert cdf(law, 0.5) == 0.0
    assert cdf(law, 4.0) == 1.0
    assert cdf(law, 5.0) == 1.0


def test_cdf_landmarks():
    assert cdf(WeightedNormLaw([2.0, 1.0]), 1.5) == pytest.approx(0.5, abs=1e-14)
    assert cdf(WeightedNormLaw([3.0, 2.0, 1.0]), 2.0) == pytest.approx(0.5, abs=1e-14)


def test_cdf_branch_continuity():
    # piecewise segments must agree where they meet
    law3 = WeightedNormLaw([3.0, 2.0, 1.0])
    assert abs(cdf(law3, 2.0 - 1e-11) - cdf(law3, 2.0 + 1e-11)) < 1e-9
    law4 = WeightedNormLaw([4.0, 3.0, 2.0, 1.0])
    for knot in (2.0, 3.0):
        assert abs(cdf(law4, knot - 1e-11) - cdf(law4, knot + 1e-11)) < 1e-9
        assert abs(pdf(law4, knot - 1e-11) - pdf(law4, knot + 1e-11)) < 1e-9


def test_cdf_top_segment_any_dimension():
    lam = [6.0, 4.0, 3.0, 2.0, 1.0, 0.5]
    law = WeightedNormLaw(lam)
    x = 5.0
    want = 1.0 - (6.0 - x) ** 5 / np.prod(6.0 - np.array(lam[1:]))
    assert cdf(law, x) == pytest.approx(want, rel=1e-12)


def test_pdf_uniform_two_antennas():
    law = WeightedNormLaw([2.0, 1.0])
    for x in (1.0, 1.3, 1.9, 2.0):
        assert pdf(law, x) == pytest.approx(1.0, abs=1e-14)
    assert pdf(law, 0.9) == 0.0


def test_pdf_three_antennas_midpoint():
    law = WeightedNormLaw([3.0, 2.0, 1.0])
    assert pdf(law, 2.0) == pytest.approx(1.0, abs=1e-12)
    assert pdf(law, 2.0 + 1e-12) == pytest.approx(1.0, abs=1e-9)


def test_pdf_dimension_guard():
    # every n up to the cap evaluates; the knot tables grow as n^2 beyond it
    law = WeightedNormLaw(np.arange(MAX_DIM, 0.0, -1.0))
    assert 0.0 < pdf(law, MAX_DIM / 2.0) and 0.0 < cdf(law, 1.5) < 1e-80
    with pytest.raises(ValueError):
        WeightedNormLaw(np.arange(MAX_DIM + 1, 0.0, -1.0))


def test_pdf_normalization_and_cdf_derivative():
    for lam in ([3.0, 2.0, 1.0], [4.0, 3.0, 2.0, 1.0],
                [6.0, 4.0, 3.0, 2.5, 1.0, 0.5]):
        law = WeightedNormLaw(lam)
        total = integrate_piecewise(lambda x: pdf(law, x), list(law.lam[::-1]),
                                    tol=1e-10)
        assert total == pytest.approx(1.0, abs=1e-8)
        h = 1e-6
        for x in np.linspace(lam[-1] + 0.05, lam[0] - 0.05, 20):
            slope = (cdf(law, x + h) - cdf(law, x - h)) / (2 * h)
            assert slope == pytest.approx(pdf(law, x), abs=1e-6)


def test_near_tied_gap_matches_mpmath():
    # a zero-width knot span contributes 0, so a gap of 1e-12 needs no guard
    lam = [2.0, 2.0 - 1e-12, 1.0]
    law = WeightedNormLaw(lam)
    xs = [2.0 - 1e-13, 2.0 - 2e-12, 1.5, 1.0 + 1e-6]
    with mp.workdps(40):
        want_cdf, want_pdf = mpmath_law(lam)
        assert worst_relative_error("near-tied law", [
            (fn(law, x), want(mp.mpf(x))) for x in xs
            for fn, want in ((cdf, want_cdf), (pdf, want_pdf))]) <= 1e-13


# n <= 8 with distinct, tied, rank-deficient and near-tied (1.01e-9) knots
LAW_SPECTRA = [
    [2.0, 1.0],
    [3.0, 2.0, 1.0],
    [4.0, 3.0, 2.0, 1.0],
    [0.7, 0.1, 0.1, 0.1],
    [1.0, 0.0, 0.0],
    [5.0, 4.0, 3.0, 2.0, 1.0],
    [6.0, 4.0, 3.0, 2.5, 1.0, 0.5],
    [8.0, 7.0, 6.0, 5.0, 4.0, 3.0, 2.0, 1.0],
    [1.0, 0.2, 0.2, 0.2, 0.2],
    [1.0, 1.0 - 1.01 * GAP_RTOL, 0.5, 0.2],
    [1.0, 0.5, 0.5 - 1.01 * GAP_RTOL, 0.2, 0.1],
]


@pytest.mark.parametrize("lam", LAW_SPECTRA, ids=str)
def test_law_matches_divided_differences(lam):
    # interior points off the knots, and 1e-6 of the spread from each end,
    # where the density and the CDF's low tail are smallest
    law = WeightedNormLaw(lam)
    lo, hi = law.support
    xs = np.append(lo + (hi - lo) * (np.arange(40) + 0.5) / 40,
                   [lo + 1e-6 * (hi - lo), hi - 1e-6 * (hi - lo)])
    with mp.workdps(40):
        want_cdf, want_pdf = mpmath_law(lam)
        for fn, want in ((cdf, want_cdf), (pdf, want_pdf)):
            assert worst_relative_error(fn.__name__, [
                (got, want(mp.mpf(float(x)))) for got, x in zip(fn(law, xs), xs)
            ]) <= 1e-13


def test_scale_invariance():
    law = WeightedNormLaw([3.0, 2.0, 1.0])
    scaled = WeightedNormLaw([7.5, 5.0, 2.5])
    for x in (1.2, 2.0, 2.8):
        assert abs(cdf(scaled, 2.5 * x) - cdf(law, x)) < 1e-12


def test_flat_spectrum_samples_are_constant():
    law = WeightedNormLaw([1.0, 1.0, 1.0])
    out = sample_weighted_norms(law, 5000, RngStream(2).derive("flat"))
    assert np.all(out == 1.0)
    # and its CDF is a step at l1
    assert cdf(law, [0.5, 1.0 - 1e-12, 1.0, 2.0]).tolist() == [0.0, 0.0, 1.0, 1.0]


def test_sampling_chunk_layout_invariant():
    # the n-th sample must not depend on how many samples were requested
    law = WeightedNormLaw([2.0, 1.0])
    n_chunk = 1 << 16
    full = sample_weighted_norms(law, n_chunk + 100, RngStream(3).derive("c"))
    head = sample_weighted_norms(law, n_chunk, RngStream(3).derive("c"))
    assert np.array_equal(full[:n_chunk], head)


def test_empirical_cdf_matches_closed_form():
    from scipy.stats import kstest

    law = WeightedNormLaw([2.0, 1.0])
    n = 20000
    samples = empirical_cdf(law, n, RngStream(4).derive("ks"))
    assert np.all(np.diff(samples) >= 0.0)
    stat = kstest(samples, lambda x: np.clip(x - 1.0, 0.0, 1.0)).statistic
    assert stat <= 1.63 / math.sqrt(n)
    # step-function evaluation agrees with the rank convention
    assert empirical_cdf_eval(samples, samples[-1]) == 1.0
    assert empirical_cdf_eval(samples, law.support[0] - 0.1) == 0.0


def _cap_volume(lam, x, r2):
    """Volume of {w in C^2: |w|^2 <= r2, l1 |w_1|^2 + l2 |w_2|^2 >= x}.

    The slice of the ball where the weighted norm is at least x; its mixed
    derivative at r = 1 recovers the n=2 weighted-norm density.
    """
    l1, l2 = lam
    if x >= r2 * l1:
        return 0.0
    if x >= r2 * l2:
        return (math.pi ** 2 / 2.0) * (r2 * l1 - x) ** 2 / (l1 * (l1 - l2))
    return (math.pi ** 2 / 2.0) * (r2 * r2 - x * x / (l1 * l2))


def test_cap_volume_branches():
    lam = [2.0, 1.0]
    assert _cap_volume(lam, 2.0, 1.0) == 0.0
    assert _cap_volume(lam, 0.0, 1.0) == pytest.approx(math.pi ** 2 / 2.0,
                                                       rel=1e-14)
    # the branches meet where x crosses r2 * l2
    assert _cap_volume(lam, 1.0, 1.0) == pytest.approx(
        _cap_volume(lam, 1.0 - 1e-12, 1.0), rel=1e-10)


def test_cap_volume_mixed_derivative_recovers_density():
    lam = [2.0, 1.0]
    law = WeightedNormLaw(lam)
    h = 1e-4
    x0 = 1.5
    vol = lambda x, r2: _cap_volume(lam, x, r2)
    mixed = (vol(x0 + h, 1 + h) - vol(x0 - h, 1 + h)
             - vol(x0 + h, 1 - h) + vol(x0 - h, 1 - h)) / (4 * h * h)
    assert -mixed / math.pi ** 2 == pytest.approx(pdf(law, x0), rel=1e-6)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_cdf_monotone_random_spectra(seed):
    rng = np.random.default_rng(seed)
    lam = np.sort(rng.uniform(0.1, 4.0, size=rng.integers(2, 9)))[::-1]
    law = WeightedNormLaw(lam)
    vals = [cdf(law, x) for x in np.linspace(lam[-1], lam[0], 25)]
    assert np.all(np.diff(vals) >= -1e-12)
    assert min(vals) >= 0.0 and max(vals) <= 1.0 + 1e-12


@pytest.mark.parametrize("lam", [[2.0, 1.0], [3.0, 2.0, 1.0],
                                 [4.0, 3.0, 2.0, 1.0], [0.7, 0.1, 0.1, 0.1],
                                 [6.0, 4.0, 3.0, 2.5, 1.0, 0.5]],
                         ids=str)
def test_array_evaluation_matches_scalar_bit_for_bit(lam):
    # every branch, the breakpoints themselves, and points outside the support
    law = WeightedNormLaw(lam)
    xs = np.concatenate([np.linspace(lam[-1] - 0.5, lam[0] + 0.5, 151),
                         law.lam, np.nextafter(law.lam, np.inf),
                         np.nextafter(law.lam, -np.inf)])
    for fn in (cdf, pdf):
        scalar = [fn(law, float(x)) for x in xs]
        assert all(type(v) is float for v in scalar)
        assert fn(law, xs).tobytes() == np.array(scalar).tobytes()
        column = fn(law, xs[:, None])
        assert column.shape == (xs.size, 1)
        assert column.tobytes() == np.array(scalar).tobytes()
