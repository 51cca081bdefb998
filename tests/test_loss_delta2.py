"""Mean rate-loss evaluators and the channel-averaged losses."""

import math

import mpmath
import numpy as np
import pytest

from helpers import diag_channel, worst_relative_error
from rvqlab.channel import FixedSpectrumModel, KroneckerModel
from rvqlab.errors import UnsupportedModelError
from rvqlab.loss import (avg_delta_mi, avg_delta_snr, delta1_mc,
                         delta1_quadrature, delta2_appx, delta2_asympt,
                         delta2_exact2, delta2_mc, delta2_quadrature,
                         epsilon_b_prime, mi_factors2)
from rvqlab.rng import RngStream

LN2 = math.log(2.0)


def test_mi_factors():
    f = mi_factors2([2.0, 1.0], 1.0)
    assert f.z == pytest.approx(0.5, rel=1e-14)
    assert f.s == pytest.approx(2.0, rel=1e-14)
    assert f.z * f.s == pytest.approx(1.0, rel=1e-12)  # z*s = gap
    with pytest.raises(UnsupportedModelError):
        mi_factors2([3.0, 2.0, 1.0], 1.0)
    with pytest.raises(ValueError):
        mi_factors2([2.0, 1.0], 0.0)


def test_exact2_landmarks():
    want0 = (1.0 - 2.0 * math.log(1.5)) / LN2
    want1 = (-1.5 + 4.0 * math.log(1.5)) / LN2
    assert delta2_exact2([2.0, 1.0], 1.0, 0).value == pytest.approx(want0,
                                                                    abs=1e-12)
    assert delta2_exact2([2.0, 1.0], 1.0, 1).value == pytest.approx(want1,
                                                                    abs=1e-12)


def test_exact2_matches_quadrature_both_branches():
    # rho grid spans z < 1 and z >= 1
    for rho in (0.1, 1.0, 10.0):
        for bits in range(0, 6):
            ex = delta2_exact2([2.0, 1.0], rho, bits).value
            quad = delta2_quadrature([2.0, 1.0], rho, bits).value
            assert abs(ex - quad) < 1e-9
    big_z = delta2_exact2([10.0, 1.0], 10.0, 3).value
    assert abs(big_z - delta2_quadrature([10.0, 1.0], 10.0, 3).value) < 1e-9


def test_exact2_vanishing_gap_limit():
    # z -> 0 through rho: the loss dies linearly with z
    assert delta2_exact2([2.0, 1.0], 1e-9, 4).value < 1e-9


def _exact2_reference(z, bits):
    """40-digit two-antenna rate loss z/(m+1) 2F1(1, m+1; m+2; -z) / ln 2,
    the sum over j of (-z)^(j+1) / (m+1+j) continued past z = 1."""
    m = 1 << bits
    with mpmath.workdps(40):
        z = mpmath.mpf(z)
        return z / (m + 1) * mpmath.hyp2f1(1, m + 1, m + 2, -z) / mpmath.log(2)


def _exact2_worst_error(points):
    """Largest relative error of delta2_exact2 at (lam, rho) and bits 0-20."""
    return worst_relative_error("delta2_exact2", [
        (delta2_exact2(lam, rho, bits).value,
         _exact2_reference(mi_factors2(lam, rho).z, bits))
        for lam, rho in points for bits in range(0, 21)])


# both sides of z = 1, at it and within 1e-9 of it; lam = [1, 0] makes z = rho
_Z_GRID = (1e-6, 0.01, 0.5, 1.0 - 5e-10, 1.0, 1.0 + 1e-9, 2.0, 101.0, 1e4, 1e9)


def test_exact2_matches_mpmath_across_z():
    # [3, 1] at rho = 1 - 1e-9 has z = 1 - 5e-10, where an alternating series
    # in z needs far more than a million terms
    points = [([1.0, 0.0], z) for z in _Z_GRID] + [([3.0, 1.0], 1.0 - 1e-9)]
    assert _exact2_worst_error(points) <= 1e-13


# fig5b's SNR grid (fig5a runs at rho = 1); every point has z <= 100/101
_FIG5B_RHOS = (0.1, 0.31622776601683794, 1.0, 3.1622776601683795, 10.0,
               31.622776601683793, 100.0)


@pytest.mark.parametrize("rho", _FIG5B_RHOS)
def test_exact2_preset_points_keep_their_values(rho):
    assert _exact2_worst_error([([2.0, 1.0], rho)]) <= 1e-13


def test_scale_snr_tradeoff_invariance():
    for fn in (delta2_exact2, delta2_quadrature):
        a = fn([2.0, 1.0], 1.0, 3).value
        b = fn([8.0, 4.0], 0.25, 3).value
        assert a == pytest.approx(b, abs=1e-10)


def test_quadrature_small_rho_matches_gain_loss():
    # first-order: rate loss ~ rho * lam1 * gain loss / ln 2
    rho = 1e-8
    lhs = delta2_quadrature([2.0, 1.0], rho, 3).value * LN2 / rho
    rhs = 2.0 * delta1_quadrature([2.0, 1.0], 3).value
    assert lhs == pytest.approx(rhs, rel=1e-6)


def test_appx_sandwich_spot_checks():
    for lam, rho, bits in (([3.0, 2.0, 1.0], 1.0, 3),
                           ([4.0, 3.0, 2.0, 1.0], 10.0, 6)):
        a = delta2_appx(lam, rho, bits).value
        q = delta2_quadrature(lam, rho, bits).value
        eps = epsilon_b_prime(lam, rho, bits)
        assert a <= q * (1.0 + 1e-9)
        if eps < 1.0:
            assert q <= a / (1.0 - eps) * (1.0 + 1e-9)


def test_appx_flat_tail_matches_quadrature():
    a = delta2_appx([4.0, 1.0, 1.0, 1.0], 1.0, 4).value
    q = delta2_quadrature([4.0, 1.0, 1.0, 1.0], 1.0, 4).value
    assert a == pytest.approx(q, abs=1e-8)


def test_appx_two_antennas_refused():
    with pytest.raises(UnsupportedModelError):
        delta2_appx([2.0, 1.0], 1.0, 3)


def _method2(lam, rho, bits):
    """The rate-loss approximant by its alternating binomial/hypergeometric
    route, a reference independent of the theorem sum.  The terms reach
    2^m in size and cancel, so mpmath carries m + 30 digits."""
    n = len(lam)
    m = 1 << bits
    with mpmath.workdps(30 + m):
        lam = [mpmath.mpf(v) for v in lam]
        a = mpmath.exp(mpmath.fsum(mpmath.log(lam[0] - v) for v in lam[1:])
                       / (n - 1))
        w = rho * (lam[0] - lam[1]) / (1 + rho * lam[0])
        y = (lam[0] - lam[1]) / a
        es = [(n - 1) * k + 1 for k in range(m + 1)]
        total = mpmath.fsum(mpmath.binomial(m, k) * (-1) ** k * y ** e / e
                            * mpmath.hyp2f1(1, e, e + 1, w)
                            for k, e in enumerate(es))
        return float(rho * a / (1 + rho * lam[0]) * total / mpmath.log(2))


def test_method2_cross_check():
    for lam, rho, bits in (([3.0, 2.0, 1.0], 1.0, 1),
                           ([3.0, 2.0, 1.0], 0.1, 0),
                           ([4.0, 3.0, 2.0, 1.0], 1.0, 2),
                           ([3.0, 2.0, 1.0], 10.0, 6),
                           ([4.0, 3.0, 2.0, 1.0], 1.0, 6),
                           ([1.0, 0.5, 0.2], 100.0, 8)):
        a = delta2_appx(lam, rho, bits).value
        assert a == pytest.approx(_method2(lam, rho, bits), rel=1e-12)


def test_appx_with_a_decay_base_that_rounds_to_one():
    # 1 - d is about 2.5e-18: carried as the product, not as 1 - d
    lam = [1.0, 1.0 - 1.01e-9, 0.5, 0.2]
    for bits in range(0, 5):
        a = delta2_appx(lam, 10.0, bits).value
        assert a == pytest.approx(_method2(lam, 10.0, bits), rel=1e-13)
    prop3, cor3 = (delta2_asympt(lam, 10.0, 4, method=m).value
                   for m in ("prop3", "corollary3"))
    assert math.isfinite(prop3) and math.isfinite(cor3)


def test_appx_slowly_converging_outer_series():
    # gamma = 0.98 and 0.9989: a series in gamma^i, cut at its first term
    # below 1e-12 of the sum, left up to gamma/(1-gamma) times that behind
    for lam, rho in (([1.0, 0.01, 0.01], 100.0), ([1.0, 1e-3, 1e-3], 1e4)):
        for bits in (0, 1):
            a = delta2_appx(lam, rho, bits).value
            assert a == pytest.approx(_method2(lam, rho, bits), rel=1e-13)


def test_epsilon_prime_flat_tail():
    assert epsilon_b_prime([4.0, 1.0, 1.0, 1.0], 1.0, 3) == 0.0


def test_epsilon_prime_sandwich_range():
    lam = [3.0, 2.0, 1.0]
    for bits in range(1, 7):
        q = delta2_quadrature(lam, 1.0, bits).value
        a = delta2_appx(lam, 1.0, bits).value
        rel = (q - a) / q
        assert -1e-9 <= rel <= epsilon_b_prime(lam, 1.0, bits) + 1e-9


def test_asympt_two_antenna_branches():
    # small z: linear term
    z = mi_factors2([2.0, 1.0], 0.1).z
    want = z / (LN2 * (2 ** 6 + 1.0))
    got = delta2_asympt([2.0, 1.0], 0.1, 6).value
    assert got == pytest.approx(want, rel=1e-12)
    # large z branch
    z = mi_factors2([10.0, 1.0], 10.0).z
    m = 2 ** 6
    want = (z - 1.0) / (LN2 * 2.0 * z * math.log(z) * (m - 1.0))
    got = delta2_asympt([10.0, 1.0], 10.0, 6).value
    assert got == pytest.approx(want, rel=1e-12)


def test_asympt_variants_ordering():
    p = delta2_asympt([4.0, 3.0, 2.0, 1.0], 1.0, 8, method="prop3").value
    c = delta2_asympt([4.0, 3.0, 2.0, 1.0], 1.0, 8, method="corollary3").value
    assert p <= c
    with pytest.raises(ValueError):
        delta2_asympt([4.0, 3.0, 2.0, 1.0], 1.0, 8, method="nope")


def test_mc_flat_gram_is_zero():
    est = delta2_mc(diag_channel([2.0, 2.0]), 1.0, 2, 50,
                    RngStream(5).derive("flat"))
    assert abs(est.value) < 1e-14


def test_mc_matches_exact2():
    est = delta2_mc(diag_channel([2.0, 1.0]), 1.0, 1, 10 ** 5,
                    RngStream(7).derive("d2mc"))
    want = delta2_exact2([2.0, 1.0], 1.0, 1).value
    assert want == pytest.approx(0.1758, abs=5e-4)
    assert abs(est.value - want) <= 4 * est.stderr


def test_mc_small_rho_recovers_gain_loss():
    ch = diag_channel([2.0, 1.0])
    rho = 1e-6
    est2 = delta2_mc(ch, rho, 2, 4000, RngStream(8).derive("t2"))
    est1 = delta1_mc(ch, 2, 4000, RngStream(8).derive("t2"))
    lhs = est2.value * LN2 / rho
    rhs = 2.0 * est1.value
    # identical streams make the comparison nearly noise free, leaving only
    # the second-order rho term
    assert lhs == pytest.approx(rhs, rel=1e-5)


def test_avg_snr_fixed_spectrum_matches_single_channel():
    model = FixedSpectrumModel([3.0, 2.0, 1.0])
    avg = avg_delta_snr(model, 2, 40, 200, RngStream(9).derive("avg"))
    single = delta1_mc(diag_channel([3.0, 2.0, 1.0]), 2, 3000,
                       RngStream(9).derive("single"))
    assert 0.0 <= avg.value <= 1.0
    assert abs(avg.value - single.value) <= 4 * math.hypot(avg.stderr,
                                                           single.stderr)


def test_avg_snr_rank_ordering():
    # a spread transmit spectrum quantizes better than a rank-one one
    lam_r = np.array([1.0, 1.0, 1.0, 1.0])
    flat = KroneckerModel(lambda_t=np.array([4.0, 4.0, 4.0, 4.0]),
                          lambda_r=lam_r)
    peaked = KroneckerModel(lambda_t=np.array([16.0, 0.0, 0.0, 0.0]),
                            lambda_r=lam_r)
    a = avg_delta_snr(flat, 2, 60, 60, RngStream(10).derive("flat"))
    b = avg_delta_snr(peaked, 2, 60, 60, RngStream(10).derive("peak"))
    assert b.value - a.value > 4 * math.hypot(a.stderr, b.stderr)


def test_avg_mi_identity_gram_is_zero():
    model = FixedSpectrumModel([1.0, 1.0], frozen=True)
    est = avg_delta_mi(model, 1.0, 2, 5, 50, RngStream(11).derive("zero"))
    assert abs(est.value) < 1e-14


def test_avg_mi_small_rho_limit():
    model = FixedSpectrumModel([2.0, 1.0], frozen=True)
    rho = 1e-6
    mi = avg_delta_mi(model, rho, 2, 30, 200, RngStream(12).derive("mi"))
    snr = avg_delta_snr(model, 2, 30, 200, RngStream(12).derive("mi"))
    assert mi.value * LN2 / rho == pytest.approx(2.0 * snr.value, rel=1e-5)
