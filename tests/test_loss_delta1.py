"""Mean gain-loss evaluators: closed forms, quadrature oracle, sampling."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import diag_channel, mpmath_loss, worst_relative_error
from rvqlab.channel import FixedSpectrumModel, sample_channel
from rvqlab.errors import DegenerateSpectrumError, ResourceLimitError
from rvqlab.loss import (GAP_RTOL, _theorem_sum, delta1_appx,
                         delta1_asympt, delta1_closed, delta1_exact, delta1_mc,
                         delta1_miso, delta1_quadrature, epsilon_b,
                         epsilon_b_log2, quantization_factors)
from rvqlab.rng import RngStream


def test_quantization_factors():
    qf = quantization_factors([4.0, 3.0, 2.0, 1.0], 2)
    assert qf.m == 4
    assert qf.a_n == pytest.approx(1.0 / 13.0, rel=1e-12)
    assert qf.d == pytest.approx(5.0 / 6.0, rel=1e-12)
    assert quantization_factors([4.0, 1.0, 1.0, 1.0], 2).d == 0.0


def test_exact_landmarks():
    assert delta1_exact([2.0, 1.0], 1).value == pytest.approx(1.0 / 6.0,
                                                              abs=1e-15)
    assert delta1_exact([3.0, 2.0, 1.0], 0).value == pytest.approx(1.0 / 3.0,
                                                                   abs=1e-15)


def test_exact_rank_one_two_antennas():
    for bits in range(0, 9):
        want = 1.0 / (2 ** bits + 1.0)
        assert delta1_exact([1.0, 0.0], bits).value == pytest.approx(want,
                                                                     rel=1e-14)


def test_exact_matches_quadrature():
    for lam in ([2.0, 1.0], [3.0, 2.0, 1.0]):
        for bits in (0, 2, 5, 9):
            ex = delta1_exact(lam, bits).value
            quad = delta1_quadrature(lam, bits).value
            assert abs(ex - quad) < 1e-10


def test_quadrature_landmarks():
    assert delta1_quadrature([2.0, 1.0], 3).value == pytest.approx(1.0 / 18.0,
                                                                   abs=1e-11)
    assert delta1_quadrature([3.0, 2.0, 1.0], 0).value == pytest.approx(
        1.0 / 3.0, abs=1e-11)


def test_quadrature_rank_one_matches_miso():
    quad = delta1_quadrature([1.0, 0.0, 0.0, 0.0], 3).value
    assert quad == pytest.approx(delta1_miso(4, 3).value, abs=1e-9)


def test_scale_invariance():
    for fn in (delta1_exact, delta1_quadrature):
        assert fn([6.0, 4.0, 2.0], 4).value == pytest.approx(
            fn([3.0, 2.0, 1.0], 4).value, abs=1e-12)
    assert delta1_appx([8.0, 6.0, 4.0, 2.0], 4).value == pytest.approx(
        delta1_appx([4.0, 3.0, 2.0, 1.0], 4).value, abs=1e-12)


def test_appx_two_antennas_collapses_to_exact():
    for bits in (0, 3, 7):
        assert delta1_appx([2.0, 1.0], bits).value == pytest.approx(
            delta1_exact([2.0, 1.0], bits).value, rel=1e-12)


def test_appx_flat_tail_is_exact():
    # with a flat trailing spectrum the approximant truncates nothing
    a = delta1_appx([4.0, 1.0, 1.0, 1.0], 4).value
    q = delta1_quadrature([4.0, 1.0, 1.0, 1.0], 4).value
    assert a == pytest.approx(q, abs=1e-8)


def test_appx_quadrature_sandwich():
    lam = [4.0, 3.0, 2.0, 1.0]
    for bits in range(1, 9):
        a = delta1_appx(lam, bits).value
        q = delta1_quadrature(lam, bits).value
        eps = epsilon_b(lam, bits)
        assert a <= q * (1.0 + 1e-10)
        if eps < 1.0:
            assert q <= a / (1.0 - eps) * (1.0 + 1e-10)


def test_monotone_in_bits():
    for lam, fn in (([3.0, 2.0, 1.0], delta1_exact),
                    ([4.0, 3.0, 2.0, 1.0], delta1_appx),
                    ([4.0, 3.0, 2.0, 1.0], delta1_quadrature)):
        vals = [fn(lam, b).value for b in range(0, 8)]
        assert np.all(np.diff(vals) < 0.0)


def test_closed_form_bit_cap():
    with pytest.raises(ResourceLimitError):
        delta1_exact([2.0, 1.0], 21)


def test_degenerate_gap_rejected():
    with pytest.raises(DegenerateSpectrumError):
        delta1_exact([2.0, 2.0], 3)
    with pytest.raises(DegenerateSpectrumError):
        delta1_appx([2.0, 2.0, 1.0], 3)


def test_closed_dispatch_and_fallback():
    assert delta1_closed([3.0, 2.0, 1.0], 4).method == "exact"
    assert delta1_closed([4.0, 3.0, 2.0, 1.0], 4).method == "approx"
    est = delta1_closed([2.0, 2.0, 1.0], 3)
    assert est.method == "quadrature"
    assert est.warning is not None
    assert est.value == pytest.approx(delta1_quadrature([2.0, 2.0, 1.0], 3).value,
                                      abs=1e-10)


def test_closed_fallback_any_dimension():
    # n = 5 with a 1e-12 top gap: the approximant refuses, the oracle answers
    lam = [1.0, 1.0 - 1e-12, 0.6, 0.3, 0.1]
    est = delta1_closed(lam, 4)
    assert (est.method, est.warning) == ("quadrature", "degenerate-gap fallback")
    assert est.value == delta1_quadrature(lam, 4).value
    assert est.value == pytest.approx(float(mpmath_loss(lam, 4)), rel=1e-12)


def test_quadrature_matches_mc_at_six_antennas():
    lam = [1.0, 0.8, 0.8, 0.5, 0.2, 0.2]
    for bits in (2, 4):
        est = delta1_mc(diag_channel(lam), bits, 4000,
                        RngStream(4).derive("mc6").derive(bits))
        assert abs(est.value - delta1_quadrature(lam, bits).value) <= 4 * est.stderr


def test_epsilon_vanishes_with_flat_tail():
    assert epsilon_b([4.0, 1.0, 1.0, 1.0], 3) == 0.0


def test_epsilon_direct_value():
    lam = [4.0, 3.0, 2.0, 1.0]
    want = (2.0 / 4.0) * (5.0 / 6.0) ** 4 / delta1_appx(lam, 2).value
    assert epsilon_b(lam, 2) == pytest.approx(want, rel=1e-12)


def test_epsilon_log_trend():
    # log2 eps tracks m*log2(d): slope of one against the other
    lam = [4.0, 3.0, 2.0, 1.0]
    d = quantization_factors(lam, 1).d
    xs = np.array([(2 ** b) * math.log2(d) for b in range(4, 11)])
    ys = np.array([epsilon_b_log2(lam, b) for b in range(4, 11)])
    slope = np.polyfit(xs, ys, 1)[0]
    assert slope == pytest.approx(1.0, rel=0.05)


def test_miso_landmarks():
    assert delta1_miso(2, 0).value == pytest.approx(0.5, rel=1e-12)
    assert delta1_miso(2, 3).value == pytest.approx(1.0 / 9.0, rel=1e-12)


def test_miso_decay_slope():
    ys = [math.log2(delta1_miso(4, b).value) for b in range(6, 15)]
    slope = np.polyfit(range(6, 15), ys, 1)[0]
    assert slope == pytest.approx(-1.0 / 3.0, rel=0.05)


def _theorem_sum_reference(m, q, d, k_min):
    """40-digit theorem sum: Gamma(q) Gamma(m+1)/Gamma(m+q) times the
    negative-binomial head sum_{j <= J} (q)_j d^j / j!, J = m - k_min, here
    (1-d)^-q I_{1-d}(q, J+1) by mpmath's incomplete beta.  Where the first
    omitted term is below e^-150 the head is the whole series (1-d)^-q, and
    mpmath's betainc, left to resolve a tail that small, does not converge."""
    q, d, j = mp.mpf(q), mp.mpf(d), m - k_min
    head = (1 - d) ** -q
    if d > 0 and (j + 1) * mp.log(d) + mp.log(mp.rf(q, j + 1)
                                              / mp.factorial(j + 1)) > -150:
        head *= mp.betainc(q, j + 1, 0, 1 - d, regularized=True)
    return mp.gamma(q) * mp.gamma(m + 1) / mp.gamma(m + q) * head


def test_theorem_sum_matches_mpmath():
    # the reference takes d = 1 - c in 40 digits, so every c is tested as
    # given, 1e-9 and 1e-12 too
    cs = [1.0 - d for d in (0.0, 0.1, 0.5, 0.99, 1.0 - 1e-6)] + [1e-9, 1e-12]
    grid = [(1 << bits, q, c, k_min)
            for q in (1.0, 1 / 2, 1 / 3, 1 / 4, 1 / 7, 1 / 63)
            for c in cs for k_min in (0, 1) for bits in range(0, 21)]
    with mp.workdps(40):
        want = {(m, q, c, k_min): _theorem_sum_reference(m, q, 1 - mp.mpf(c), k_min)
                for m, q, c, k_min in grid}
        for (m, q, c, k_min), w in want.items():
            if m <= 64:  # the reference is the term-by-term sum
                q, d = mp.mpf(q), 1 - mp.mpf(c)
                direct = mp.fsum(mp.gamma(q + j) / mp.factorial(j) * d ** j
                                 for j in range(m - k_min + 1))
                direct *= mp.gamma(m + 1) / mp.gamma(m + q)
                assert abs(direct - w) <= mp.mpf(10) ** -30 * w
        assert worst_relative_error("_theorem_sum", [
            (_theorem_sum(m, q, c, k_min), w)
            for (m, q, c, k_min), w in want.items()]) <= 1e-15


def test_exact_three_antennas_matches_mpmath():
    # r = (l2 - l3)/(l1 - l3) near one at [1, 0.999, 0.3]; a top gap just
    # above the guard puts almost all the loss in r^m
    spectra = ([3.0, 2.0, 1.0], [1.0, 0.999, 0.3],
               [1.0, 1.0 - 1.01 * GAP_RTOL, 0.5])
    assert worst_relative_error("delta1_exact", [
        (delta1_exact(lam, bits).value, mpmath_loss(lam, bits))
        for lam in spectra for bits in range(0, 21)]) <= 1e-13


def test_exact_three_antennas_near_r_one():
    # r = 1 - (l1-l2)/(l1-l3) keeps the digits that (l2-l3)/(l1-l3) loses
    # near r = 1, where the theorem sum amplifies them about 350-fold
    lam = [1.0, 0.999, 0.3]
    assert worst_relative_error("delta1_exact", [
        (delta1_exact(lam, bits).value, mpmath_loss(lam, bits))
        for bits in range(12, 21)]) <= 1e-14


def test_decay_base_that_rounds_to_one():
    # 1 - d = prod_j (l1-l2)/(l1-lj) is about 2.5e-18 here, so d rounds to 1
    lam = [1.0, 1.0 - 1.01 * GAP_RTOL, 0.5, 0.2]
    qf = quantization_factors(lam, 4)
    assert qf.d == 1.0 and 0.0 < qf.c < 1e-17
    assert worst_relative_error("delta1_appx", [
        (delta1_appx(lam, bits).value, _appx_reference(lam, bits))
        for bits in range(0, 21)]) <= 1e-13
    assert all(math.isfinite(epsilon_b(lam, bits)) for bits in range(0, 21))


def _appx_reference(lam, bits):
    """40-digit delta1_appx: q/(m+q) (1 - l2/l1) times the theorem sum at
    q = 1/(n-1) and d = 1 - prod_j (l1-l2)/(l1-lj), all from lam."""
    m, n = 1 << bits, len(lam)
    with mp.workdps(40):
        lam = [mp.mpf(v) / mp.mpf(lam[0]) for v in lam]
        q = mp.mpf(1) / (n - 1)
        d = 1 - mp.fprod((lam[0] - lam[1]) / (lam[0] - v) for v in lam[1:])
        return q / (m + q) * (1 - lam[1]) * _theorem_sum_reference(m, q, d, 0)


def test_appx_matches_mpmath():
    spectra = ([2.0, 1.0], [3.0, 2.0, 1.0], [1.0, 0.999, 0.3],
               [4.0, 3.0, 2.0, 1.0], [1.0, 0.5, 0.5, 0.5],
               [8.0, 7.0, 6.0, 5.0, 4.0, 3.0, 2.0, 1.0])
    assert worst_relative_error("delta1_appx", [
        (delta1_appx(lam, bits).value, _appx_reference(lam, bits))
        for lam in spectra for bits in range(0, 21)]) <= 1e-13


def test_miso_matches_mpmath():
    # m Beta(m, y) = Gamma(y) Gamma(m+1) / Gamma(m+y), y = n/(n-1)
    pairs = []
    with mp.workdps(40):
        for n in (2, 3, 4, 8, 16, 64):
            y = mp.mpf(n) / (n - 1)
            for bits in range(0, 21):
                m = 1 << bits
                pairs.append((delta1_miso(n, bits).value,
                              mp.gamma(y) * mp.gamma(m + 1) / mp.gamma(m + y)))
    assert worst_relative_error("delta1_miso", pairs) <= 1e-15


def test_asympt_rank_one_matches_miso_limit():
    # both routes share the same leading term for a rank-one spectrum
    for n in (2, 3, 4):
        lam = [1.0] + [0.0] * (n - 1)
        ratio = delta1_miso(n, 14).value / delta1_asympt(lam, 14).value
        assert ratio == pytest.approx(1.0, abs=1e-3)


def test_asympt_is_the_limit_of_exact():
    for lam in ([2.0, 1.0], [3.0, 2.0, 1.0]):
        ratio = delta1_exact(lam, 12).value / delta1_asympt(lam, 12).value
        assert ratio == pytest.approx(1.0, abs=0.01)


def test_asympt_two_modes_is_the_exact_trend_bit_for_bit():
    # at n = 2 the asymptote is (1 - l2/l1) 2^-b, the gap times an exact power
    gen = RngStream(20240701).derive("asympt2").generator()
    for _ in range(200):
        lam = np.sort(gen.uniform(0.0, 1.0, 2))[::-1] * 10.0 ** gen.uniform(-100, 100)
        for bits in range(25):
            assert (delta1_asympt(lam, bits).value
                    == (1.0 - lam[1] / lam[0]) * 2.0 ** (-bits))


def test_mc_flat_spectrum_is_zero():
    est = delta1_mc(diag_channel([2.0, 2.0, 2.0]), 2, 50,
                    RngStream(1).derive("flat"))
    # only normalization roundoff survives when every direction is equal
    assert abs(est.value) < 1e-14


def test_mc_matches_exact():
    est = delta1_mc(diag_channel([2.0, 1.0]), 1, 10 ** 4,
                    RngStream(1).derive("mc21"))
    assert abs(est.value - 1.0 / 6.0) <= 4 * est.stderr
    assert est.method == "monte-carlo"


def test_mc_rank_one_matches_miso():
    model = FixedSpectrumModel([1.0, 0.0, 0.0], frozen=True)
    ch = sample_channel(model, RngStream(2).derive("r1").generator())
    est = delta1_mc(ch, 2, 8000, RngStream(2).derive("mcr1"))
    assert abs(est.value - delta1_miso(3, 2).value) <= 4 * est.stderr


def test_mc_guards():
    with pytest.raises(ValueError):
        delta1_mc(diag_channel([2.0, 1.0]), 2, 1, RngStream(3))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(1, 6))
def test_sandwich_random_spectra(seed, bits):
    rng = np.random.default_rng(seed)
    lam = np.sort(rng.uniform(0.2, 4.0, size=4))[::-1]
    if lam[0] - lam[1] < 1e-3 * lam[0]:
        return
    try:
        a = delta1_appx(lam, bits).value
        q = delta1_quadrature(lam, bits).value
    except DegenerateSpectrumError:
        return
    assert 0.0 <= q <= 1.0
    assert a <= q * (1.0 + 1e-9)
    eps = epsilon_b(lam, bits)
    if eps < 1.0:
        assert q <= a / (1.0 - eps) * (1.0 + 1e-9)
