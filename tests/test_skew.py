"""Tests for skewed codebooks: losses, bounds, diagnostics, and the search."""

import math
import time
import warnings

import numpy as np
import pytest
from scipy.linalg import fractional_matrix_power

from helpers import (diag_channel, loop_skew_objective,
                     mpmath_skew_loss, paper_sk_estimate, random_channel,
                     random_full_rank, standard_basis_quotients)
from rvqlab import skew as skew_module
from rvqlab.channel import FixedSpectrumModel, sample_channel, sample_grams
from rvqlab.errors import (DegenerateSpectrumError, SingularCovarianceError,
                           SingularSkewError, UnsupportedModelError)
from rvqlab.harness import _FIG6_MODEL, _FIG6_SIGMA_T
from rvqlab.linalg import hermitian_eig
from rvqlab.loss import delta1_asympt, delta1_exact, delta1_mc, delta1_quadrature
from rvqlab.rng import RngStream, sample_unitary
from rvqlab.skew import (SkewMatrix, build_skew_a2, closed_form_skew_a1,
                         delta1_sk_asympt, delta1_sk_mc, delta1_sk_quadrature,
                         delta1_sk_upper2, optimize_skew_a1, skew_diagnostics)


def _gen(name):
    return RngStream(20240801).derive(name).generator()


# ---------------------------------------------------------------------------
# construction


def test_skew_matrix_spectra():
    sk = SkewMatrix(np.diag([2.0, 1.0]))
    np.testing.assert_allclose(sk.eig_ata, [4.0, 1.0], atol=1e-12)
    np.testing.assert_allclose(sk.eig_aat, [4.0, 1.0], atol=1e-12)
    assert sk.n_t == 2


def test_skew_matrix_rejects_nonsquare():
    with pytest.raises(ValueError):
        SkewMatrix(np.ones((2, 3)))


def test_skew_matrix_rejects_singular():
    with pytest.raises(SingularSkewError):
        SkewMatrix(np.diag([1.0, 1.0, 0.0]))


# ---------------------------------------------------------------------------
# effective spectra and quotients


def test_effective_top_is_submultiplicative():
    # m1 = 1 - mu1(A'GA) / (lam1(A'A) lam1(G)) >= 0
    gen = _gen("subm")
    for _ in range(30):
        ch = random_channel(gen, 3, 3)
        sk = SkewMatrix(random_full_rank(gen, 3))
        assert skew_diagnostics(ch, sk, 0.5).m1 >= -1e-12


def _one_codeword_quotients(ch, a, n_samples, stream):
    """(f'A'GAf)/(f'A'Af) of isotropic directions f: the best quotients of
    one-codeword codebooks."""
    pair = (a.conj().T @ ch.gram @ a, a.conj().T @ a)
    return standard_basis_quotients([pair], 0, n_samples, stream)[0]


def test_quotients_of_identity_stay_in_support():
    ch = random_channel(_gen("quot"), 4, 4)
    q = _one_codeword_quotients(ch, np.eye(4), 3000, RngStream(1).derive("q"))
    assert q.min() >= ch.spectrum[-1] - 1e-9
    assert q.max() <= ch.spectrum[0] + 1e-9


def test_quotient_moments_grow_with_order():
    # power-mean chain of the empirical measure
    ch = random_channel(_gen("lyap"), 4, 4)
    a = random_full_rank(_gen("lyapa"), 4)
    q = _one_codeword_quotients(ch, a, 10 ** 5, RngStream(2).derive("ly"))
    qn = q / q.max()
    gk = np.array([np.mean(qn ** k) ** (1.0 / k) for k in range(1, 7)])
    assert np.all(np.diff(gk) > -1e-12)


# ---------------------------------------------------------------------------
# skewed loss by quadrature


def test_exact2_identity_matches_plain_loss():
    ch = diag_channel([2.0, 1.0])
    for bits in (0, 1, 3):
        got = delta1_sk_quadrature(ch, SkewMatrix(np.eye(2)), bits).value
        want = delta1_exact([2.0, 1.0], bits).value
        assert got == pytest.approx(want, abs=1e-9)


def test_exact2_unitary_skew_matches_plain_loss():
    ch = diag_channel([2.0, 1.0])
    for i in range(20):
        u = sample_unitary(2, _gen(f"u{i}"))
        got = delta1_sk_quadrature(ch, SkewMatrix(u), 2).value
        assert got == pytest.approx(delta1_exact([2.0, 1.0], 2).value, abs=1e-9)


def test_exact2_agrees_with_monte_carlo():
    ch = random_channel(_gen("x2"), 2, 2)
    sk = SkewMatrix(random_full_rank(_gen("a2"), 2))
    exact = delta1_sk_quadrature(ch, sk, 2).value
    est = delta1_sk_mc(ch, sk, 2, 4000, RngStream(3).derive("mc"))
    assert abs(est.value - exact) <= 4 * est.stderr


# (n, bits, digits): about 7 s of mpmath in all, most of it at n = 3 and 4.
# At n = 2, bits 16 and 24, an eigen-solved knot nearest 0 is off by 1e-12
# to 2e-9 relative; the knot from the determinant is not.
SKEW_MPMATH_CASES = [(2, 0, 40), (2, 4, 40), (2, 8, 40), (2, 12, 40),
                     (2, 16, 40), (2, 24, 40), (3, 2, 30), (3, 12, 30),
                     (4, 6, 30)]


@pytest.mark.parametrize("n, bits, dps", SKEW_MPMATH_CASES)
def test_quadrature_matches_mpmath(n, bits, dps):
    gen = _gen(f"skmp{n}-{bits}")
    ch = random_channel(gen, n, n)
    a = random_full_rank(gen, n)
    want = float(mpmath_skew_loss(ch.gram, a, bits, dps))
    got = delta1_sk_quadrature(ch, SkewMatrix(a), bits).value
    assert abs(got - want) <= 1e-12 * want


def test_quadrature_of_identity_and_unitary_skews_is_the_plain_oracle():
    gen = _gen("skplain")
    for n in range(2, 7):
        ch = random_channel(gen, n, n)
        skews = [SkewMatrix(np.eye(n)), SkewMatrix(sample_unitary(n, gen))]
        for bits in range(25):
            want = delta1_quadrature(ch.spectrum, bits).value
            for sk in skews:
                got = delta1_sk_quadrature(ch, sk, bits).value
                assert abs(got - want) <= 1e-12 * want, (n, bits)


def test_quadrature_at_a_tied_breakpoint_warns_nothing():
    # at u = 0.75 three knots of [4, 1, 1, 1] are 0, so the determinant knot
    # reads 0/0 unless guarded
    ch = diag_channel([4.0, 1.0, 1.0, 1.0])
    want = delta1_quadrature(ch.spectrum, 10).value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = delta1_sk_quadrature(ch, SkewMatrix(np.eye(4)), 10).value
    assert abs(got - want) <= 1e-12 * want


def test_quadrature_at_high_bits_raises_nothing():
    # every panel budget holds up to the bits cap, where F**m keeps its mass
    # within 2**-24 of the top of the support
    gen = _gen("skhigh")
    for _ in range(20):
        ch = random_channel(gen, 2, 2)
        sk = SkewMatrix(random_full_rank(gen, 2))
        for bits in (16, 20, 24):
            assert delta1_sk_quadrature(ch, sk, bits).value > 0


def _fig6_channels(count):
    gen = _gen("fig6ch")
    return [sample_channel(_FIG6_MODEL, gen) for _ in range(count)]


def test_quadrature_agrees_with_monte_carlo_on_fig6_skews():
    skews = [build_skew_a2(_FIG6_SIGMA_T, 1.0, beta) for beta in (0.5, 1.0, 2.0)]
    for i, ch in enumerate(_fig6_channels(4)):
        for j, sk in enumerate(skews):
            for bits in (2, 6):
                want = delta1_sk_quadrature(ch, sk, bits).value
                est = delta1_sk_mc(ch, sk, bits, 4000,
                                   RngStream(8).derive(f"fig6-{i}-{j}-{bits}"))
                assert abs(est.value - want) <= 4 * est.stderr


def test_quadrature_cost_at_four_antennas():
    ch = _fig6_channels(1)[0]
    sk = build_skew_a2(_FIG6_SIGMA_T, 1.0, 1.0)
    for bits in (0, 12, 24):
        start = time.perf_counter()
        delta1_sk_quadrature(ch, sk, bits)
        assert time.perf_counter() - start < 0.15  # 1-6 ms on a 2-core x86 host


def test_upper2_identity_closed_form():
    lam = [2.0, 1.0]
    ch = diag_channel(lam)
    for bits in (0, 1, 2, 4):
        m = 2 ** bits
        want = (1.0 - lam[1] / lam[0]) / (m + 1.0)
        assert delta1_sk_upper2(ch, SkewMatrix(np.eye(2)), bits).value == \
            pytest.approx(want, abs=1e-12)


def test_upper2_dominates_exact2():
    gen = _gen("dom")
    for _ in range(30):
        ch = random_channel(gen, 2, 2)
        sk = SkewMatrix(random_full_rank(gen, 2))
        ub = delta1_sk_upper2(ch, sk, 3).value
        ex = delta1_sk_quadrature(ch, sk, 3).value
        assert ub >= ex - 1e-12


def test_upper2_scale_invariant_in_skew():
    ch = random_channel(_gen("sc"), 2, 2)
    a = random_full_rank(_gen("sca"), 2)
    v1 = delta1_sk_upper2(ch, SkewMatrix(a), 3).value
    v2 = delta1_sk_upper2(ch, SkewMatrix(5.0 * a), 3).value
    assert v2 == pytest.approx(v1, rel=1e-10)


# ---------------------------------------------------------------------------
# Monte Carlo loss


def test_sk_mc_unitary_matches_raw_codebook():
    ch = random_channel(_gen("mcun"), 3, 3)
    u = sample_unitary(3, _gen("mcu"))
    raw = delta1_mc(ch, 2, 4000, RngStream(4).derive("r"))
    sk = delta1_sk_mc(ch, SkewMatrix(u), 2, 4000, RngStream(4).derive("s"))
    assert abs(raw.value - sk.value) <= 4 * math.hypot(raw.stderr, sk.stderr)


def test_sk_mc_near_projector_kills_the_loss():
    ch = random_channel(_gen("proj"), 4, 4)
    u = ch.u_dominant
    a = np.outer(u, u.conj()) + 1e-3 * (np.eye(4) - np.outer(u, u.conj()))
    est = delta1_sk_mc(ch, SkewMatrix(a), 2, 400, RngStream(5).derive("p"))
    assert 0 <= est.value < 1e-4


def test_sk_mc_guards():
    ch = diag_channel([2.0, 1.0])
    sk = SkewMatrix(np.eye(2))
    with pytest.raises(ValueError):
        delta1_sk_mc(ch, sk, -1, 10, RngStream(6))
    with pytest.raises(ValueError):
        delta1_sk_mc(ch, sk, 2, 1, RngStream(6))
    with pytest.raises(ValueError):
        delta1_sk_mc(ch, SkewMatrix(np.eye(3)), 2, 10, RngStream(6))


# ---------------------------------------------------------------------------
# decay base and the high-resolution law


def test_dsk_identity_values():
    assert skew_diagnostics(diag_channel([4.0, 3.0, 2.0, 1.0]), SkewMatrix(np.eye(4)),
                            0.5).d_sk == pytest.approx(-3.5, rel=1e-12)
    assert skew_diagnostics(diag_channel([4.0, 1.0, 1.0, 1.0]), SkewMatrix(np.eye(4)),
                            0.5).d_sk == pytest.approx(0.0, abs=1e-12)


def test_dsk_stays_below_one():
    gen = _gen("dsk")
    for _ in range(30):
        ch = random_channel(gen, 4, 4)
        assert skew_diagnostics(ch, SkewMatrix(random_full_rank(gen, 4)), 0.5).d_sk < 1.0


def test_sk_asympt_flat_tail_identity():
    ch = diag_channel([4.0, 1.0, 1.0, 1.0])
    for bits in (4, 10):
        want = math.gamma(1 / 3) * 2.0 ** (-bits / 3) / 3.0 * 0.75
        got = delta1_sk_asympt(ch, SkewMatrix(np.eye(4)), bits).value
        assert got == pytest.approx(want, rel=1e-12)


def test_sk_asympt_scale_invariant_in_skew():
    ch = random_channel(_gen("asc"), 4, 4)
    a = random_full_rank(_gen("asca"), 4)
    v1 = delta1_sk_asympt(ch, SkewMatrix(a), 8).value
    v2 = delta1_sk_asympt(ch, SkewMatrix(0.2 * a), 8).value
    assert v2 == pytest.approx(v1, rel=1e-10)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_sk_asympt_of_the_identity_is_the_plain_asymptote(n):
    # at n = 2, which delta1_asympt refuses, the plain limit is (1 - l2/l1)/m
    gen = _gen(f"aid{n}")
    for _ in range(5):
        ch = random_channel(gen, n, n)
        for bits in (0, 8, 24):
            want = ((1.0 - ch.spectrum[1] / ch.spectrum[0]) / 2.0 ** bits if n == 2
                    else delta1_asympt(ch.spectrum, bits).value)
            got = delta1_sk_asympt(ch, SkewMatrix(np.eye(n)), bits).value
            assert got == pytest.approx(want, rel=1e-14)


def test_sk_asympt_invariant_to_scale_and_right_unitary():
    gen = _gen("ainv")
    for n in (2, 3, 4, 5):
        ch = random_channel(gen, n, n)
        a = random_full_rank(gen, n)
        v = sample_unitary(n, gen)
        want = delta1_sk_asympt(ch, SkewMatrix(a), 12).value
        got = delta1_sk_asympt(ch, SkewMatrix(3.7 * a @ v), 12).value
        assert got == pytest.approx(want, rel=1e-11)


def test_sk_asympt_serves_small_arrays():
    for lam in ([3.0, 2.0, 1.0], [2.0, 1.0]):
        est = delta1_sk_asympt(diag_channel(lam), SkewMatrix(np.eye(len(lam))), 8)
        assert est.value == pytest.approx(delta1_sk_quadrature(
            diag_channel(lam), SkewMatrix(np.eye(len(lam))), 8).value, rel=0.01)
    with pytest.raises(DegenerateSpectrumError):
        delta1_sk_asympt(diag_channel([1.0, 1.0, 0.5]), SkewMatrix(np.eye(3)), 8)


def test_sk_asympt_tracks_monte_carlo_at_depth():
    ch = diag_channel([4.0, 1.0, 1.0, 1.0])
    sk = SkewMatrix(np.eye(4))
    quad = delta1_sk_quadrature(ch, sk, 10).value
    est = delta1_sk_mc(ch, sk, 10, 300, RngStream(7).derive("deep"))
    assert abs(est.value - quad) <= 4 * est.stderr
    # the law's first-order error at bits 10 is 2e-4 on this spectrum
    assert delta1_sk_asympt(ch, sk, 10).value == pytest.approx(quad, rel=1e-3)


def test_sk_asympt_ratio_to_the_loss_settles():
    # within 1% at bits 24, with an error that shrinks at the m**(-1/3)
    # rate of the next term: 3.6 to 4.6 times from bits 18 to 24
    skews = [build_skew_a2(_FIG6_SIGMA_T, 0.0, 0.5),
             build_skew_a2(_FIG6_SIGMA_T, 1.0, 0.5),
             build_skew_a2(_FIG6_SIGMA_T, 1.0, 1.0)]
    for ch in _fig6_channels(4):
        for sk in skews:
            e18, e24 = (abs(delta1_sk_asympt(ch, sk, b).value
                            / delta1_sk_quadrature(ch, sk, b).value - 1.0)
                        for b in (18, 24))
            assert e24 < 0.01
            assert e18 >= 3.0 * e24


def test_sk_asympt_error_shrinks_with_bits_on_random_skews():
    gen = _gen("agrid")
    for i in range(20):
        n = 2 + i % 5
        ch = random_channel(gen, n, n)
        sk = SkewMatrix(random_full_rank(gen, n))
        e16, e24 = (abs(delta1_sk_asympt(ch, sk, b).value
                        / delta1_sk_quadrature(ch, sk, b).value - 1.0)
                    for b in (16, 24))
        assert e24 < e16


def test_paper_estimate_misses_the_constant_the_law_finds():
    # the paper's n >= 4 estimate settles at a constant that is not the
    # loss's (0.177 to 0.369 of it here); the law has the loss's constant
    whitener = build_skew_a2(_FIG6_SIGMA_T, 0.0, 0.5)
    for ch in _fig6_channels(4):
        quad = delta1_sk_quadrature(ch, whitener, 20).value
        assert 0.17 <= paper_sk_estimate(ch, whitener, 20) / quad <= 0.41
        assert delta1_sk_asympt(ch, whitener, 20).value == pytest.approx(quad, rel=0.02)


# ---------------------------------------------------------------------------
# diagnostics


def test_diagnostics_aligned_skew():
    gen = _gen("align")
    ch = random_channel(gen, 4, 4)
    eig = hermitian_eig(ch.gram)
    w = sample_unitary(4, gen)
    sk = SkewMatrix(eig.vectors @ np.diag([2.0, 1.5, 1.2, 0.7]) @ w.conj().T)
    d = skew_diagnostics(ch, sk, 0.5)
    assert abs(d.m1) < 1e-12
    want_m2 = (ch.spectrum[0] / ch.spectrum[-1]) * (2.0 / 0.7) ** 2
    assert d.m2 == pytest.approx(want_m2, rel=1e-10)
    assert d.l6 == pytest.approx(0.5 * d.m1 + 0.5 * d.m2, rel=1e-12)


def test_diagnostics_inverse_root_skew():
    ch = random_channel(_gen("inv"), 4, 4)
    sk = SkewMatrix(fractional_matrix_power(ch.gram, -0.5))
    d = skew_diagnostics(ch, sk, 1.0)
    assert d.m1 == pytest.approx(1.0 - ch.spectrum[-1] / ch.spectrum[0],
                                 rel=1e-9)
    assert d.m2 == pytest.approx(1.0, abs=1e-10)
    assert d.l6 == pytest.approx(d.m1, rel=1e-12)


def test_diagnostics_alpha_endpoints():
    ch = random_channel(_gen("ends"), 3, 3)
    sk = SkewMatrix(random_full_rank(_gen("endsa"), 3))
    d1 = skew_diagnostics(ch, sk, 1.0)
    d0 = skew_diagnostics(ch, sk, 0.0)
    assert d1.l6 == pytest.approx(d1.m1, rel=1e-12)
    assert d0.l6 == pytest.approx(d0.m2, rel=1e-12)
    with pytest.raises(ValueError):
        skew_diagnostics(ch, sk, 1.5)


# ---------------------------------------------------------------------------
# statistics-based construction


def test_build_a2_power_one_is_covariance():
    sigma = np.diag([6.4, 4.8, 3.2, 1.6])
    sk = build_skew_a2(sigma, 1.0, 1.0)
    np.testing.assert_allclose(sk.a, sigma, atol=1e-12)


def test_build_a2_half_power_is_square_root():
    sigma = np.diag([4.0, 1.0])
    sk = build_skew_a2(sigma, 1.0, 0.5)
    np.testing.assert_allclose(sk.a @ sk.a, sigma, atol=1e-12)


def test_build_a2_power_zero_is_identity():
    sk = build_skew_a2(np.diag([4.0, 1.0]), 1.0, 0.0)
    np.testing.assert_allclose(sk.a, np.eye(2), atol=1e-12)


def test_build_a2_whitener():
    gen = _gen("whit")
    z = gen.standard_normal((3, 3)) + 1j * gen.standard_normal((3, 3))
    sigma = z @ z.conj().T + 0.5 * np.eye(3)
    sk = build_skew_a2(sigma, 0.0, 1.0)
    np.testing.assert_allclose(sk.a @ sk.a @ sigma, np.eye(3), atol=1e-9)


def test_build_a2_guards():
    with pytest.raises(SingularCovarianceError):
        build_skew_a2(np.diag([1.0, 0.0]), 1.0, 1.0)
    with pytest.raises(ValueError):
        build_skew_a2(np.eye(2), 1.5, 1.0)
    with pytest.raises(ValueError):
        build_skew_a2(np.eye(2), 0.5, -1.0)


# ---------------------------------------------------------------------------
# direct search


def test_search_alignment_objective_reaches_zero():
    model = FixedSpectrumModel([4.0, 3.0, 2.0, 1.0], frozen=True)
    res = optimize_skew_a1(model, 1.0, 4, RngStream(9).derive("a1"), 250)
    assert abs(res.objective) <= 1e-3
    assert isinstance(res.skew, SkewMatrix)
    assert res.skew.n_t == 4
    assert res.n_evals >= 1


def test_search_conditioning_objective_reaches_one():
    model = FixedSpectrumModel([4.0, 3.0, 2.0, 1.0], frozen=True)
    res = optimize_skew_a1(model, 0.0, 4, RngStream(9).derive("a0"), 250)
    assert res.objective >= 1.0 - 1e-9
    assert res.objective == pytest.approx(1.0, rel=5e-2)
    # never worse than not skewing at all, measured on the same draws
    gen = RngStream(9).derive("a0").derive("channels").generator()
    conds = [0.0] * 4
    for i in range(4):
        ch = sample_channel(model, gen)
        conds[i] = ch.spectrum[0] / ch.spectrum[-1]
    assert res.objective <= np.mean(conds) + 1e-9


def test_search_guards():
    model = FixedSpectrumModel([2.0, 1.0], frozen=True)
    with pytest.raises(ValueError):
        optimize_skew_a1(model, 2.0, 2, RngStream(10), 50)
    with pytest.raises(ValueError):
        optimize_skew_a1(model, 0.5, 2, RngStream(10), 0)
    with pytest.raises(ValueError):
        optimize_skew_a1(model, 0.5, 0, RngStream(10), 50)


# ---------------------------------------------------------------------------
# the search objective against a per-channel reference loop


def _design_channels(model, n):
    gen = _gen("design")
    chans = [sample_channel(model, gen) for _ in range(n)]
    return [c.gram for c in chans], [c.spectrum[0] for c in chans]


_N_PARAMS = 16  # real parameters of a lower-triangular L at n = 4


def _near_identity(rng, spread=0.3):
    """Search parameters of the identity plus normal noise of scale spread."""
    return skew_module._params(np.eye(4)) + spread * rng.standard_normal(_N_PARAMS)


def test_factor_round_trips_its_parameters():
    rng = np.random.default_rng(3)
    for dim in (2, 3, 4):
        x = rng.standard_normal(dim * dim)
        l = skew_module._factor(dim, x)
        assert np.array_equal(np.triu(l, 1), np.zeros((dim, dim)))
        assert np.array_equal(l.diagonal().imag, np.zeros(dim))
        assert np.array_equal(skew_module._params(l), x)


@pytest.mark.parametrize("alpha", [0.0, 0.3, 1.0])
def test_objective_matches_the_loop(alpha):
    # eigenvalues from two similar matrices differ by a few eps times the
    # largest one, so each m2 = mu1/mun by a few eps times its square: the
    # bound is 8 eps times the largest spread over the design channels
    grams, tops = _design_channels(_FIG6_MODEL, 64)
    loop = loop_skew_objective(grams, tops, alpha)
    objective_of = skew_module._skew_objective(grams, tops, alpha)
    rng = np.random.default_rng(11)
    eps = np.finfo(float).eps
    for i in range(60):
        x = _near_identity(rng) if i % 2 else rng.standard_normal(_N_PARAMS)
        a = skew_module._factor(4, x)
        mu = np.linalg.eigvalsh(a.conj().T @ np.stack(grams) @ a)
        spread = (mu[:, -1] / mu[:, 0]).max()
        got, grad = objective_of(x)
        want = loop(a)
        assert want != 1e9 and grad.shape == (_N_PARAMS,)
        assert abs(got - want) <= 8.0 * eps * spread * abs(want)


@pytest.mark.parametrize("alpha", [0.0, 0.3, 1.0])
def test_objective_gradient_matches_central_differences(alpha):
    # steps of 1e-5 |x| keep the differences' truncation and rounding
    # errors near 1e-8 on these moderately conditioned factors
    grams, tops = _design_channels(_FIG6_MODEL, 64)
    objective_of = skew_module._skew_objective(grams, tops, alpha)
    rng = np.random.default_rng(31)
    for _ in range(10):
        x = _near_identity(rng)
        _, grad = objective_of(x)
        h = 1e-5 * np.linalg.norm(x)
        diff = np.array([objective_of(x + h * e)[0] - objective_of(x - h * e)[0]
                         for e in np.eye(_N_PARAMS)]) / (2.0 * h)
        assert np.linalg.norm(diff - grad) <= 1e-6 * np.linalg.norm(grad)


def test_objective_scores_a_rank_deficient_candidate_1e9():
    # a zero column of L zeroes a row and column of every L'S_kL, so every
    # spectrum holds an exact 0
    grams, tops = _design_channels(_FIG6_MODEL, 64)
    rng = np.random.default_rng(13)
    for alpha in (0.0, 0.5, 1.0):
        objective_of = skew_module._skew_objective(grams, tops, alpha)
        for col in range(4):
            l = skew_module._factor(4, rng.standard_normal(_N_PARAMS))
            l[:, col] = 0.0
            assert objective_of(skew_module._params(l)) == (1e9, None)
            assert loop_skew_objective(grams, tops, alpha)(l) == 1e9


@pytest.mark.parametrize("budget", [1, 2, 3, 8, 30])
def test_search_never_exceeds_its_budget(budget):
    stream = RngStream(7).derive("fig6d-design").derive("alpha0.5")
    res = optimize_skew_a1(_FIG6_MODEL, 0.5, 8, stream, budget)
    assert res.n_evals == min(budget, skew_module.SEARCH_EVALS)


def test_search_takes_one_eigen_solve_per_evaluation(monkeypatch):
    # every evaluation is one stacked eigh; hermitian_eig runs only for the
    # two spectra of the returned SkewMatrix
    calls = {"eigh": 0, "hermitian_eig": 0}

    def counted(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(np.linalg, "eigh", counted("eigh", np.linalg.eigh))
    monkeypatch.setattr(skew_module, "hermitian_eig",
                        counted("hermitian_eig", hermitian_eig))
    for budget in (8, 40, 2400):
        calls.update(eigh=0, hermitian_eig=0)
        stream = RngStream(7).derive("fig6d-design").derive("alpha0.5")
        res = optimize_skew_a1(_FIG6_MODEL, 0.5, 64, stream, budget)
        assert res.n_evals == min(budget, skew_module.SEARCH_EVALS)
        assert calls == {"eigh": res.n_evals, "hermitian_eig": 2}


def test_search_cost_does_not_depend_on_the_draws():
    # fig6d's designs at the skew_design benchmark's budget, where a
    # convergence test took 17 to 240 evaluations per search
    for seed in range(1, 13):
        for alpha in (0.5, 0.0):
            stream = RngStream(seed).derive("fig6d-design").derive(f"alpha{alpha}")
            res = optimize_skew_a1(_FIG6_MODEL, alpha, 64, stream, 240)
            assert res.n_evals == skew_module.SEARCH_EVALS


def _fig6d_design(seed, alpha):
    stream = RngStream(seed).derive("fig6d-design").derive(f"alpha{alpha}")
    grams, spectra = sample_grams(_FIG6_MODEL, stream.derive("channels").generator(), 64)
    return stream, skew_module._skew_objective(grams, spectra[:, 0], alpha)


@pytest.mark.parametrize("alpha, bound", [(0.5, 141.51), (0.0, 340.29)])
def test_search_beats_the_simplex_values_on_the_fig6d_designs(alpha, bound):
    # Nelder-Mead from eight restarts over Givens angles reached 152.48 and
    # 386.14 on these designs at budget 2400
    stream, _ = _fig6d_design(7, alpha)
    for budget in (240, 2400):
        res = optimize_skew_a1(_FIG6_MODEL, alpha, 64, stream, budget)
        assert res.objective <= bound
        assert res.n_evals <= 100


@pytest.mark.parametrize("seed", [7, 11])
def test_search_descends_into_one_basin(seed):
    # ten random factors descend to the value reached from the three starts;
    # they take 65 to 255 evaluations to come within 1e-8 of it
    rng = np.random.default_rng(seed)
    for alpha in (0.5, 0.0):
        stream, objective_of = _fig6d_design(seed, alpha)
        want = optimize_skew_a1(_FIG6_MODEL, alpha, 64, stream, 2400).objective
        for _ in range(10):
            x = rng.standard_normal(_N_PARAMS)
            _, got, evals = skew_module._descend(objective_of, x, *objective_of(x), 400)
            assert abs(got - want) <= 1e-8 * want
            assert evals == 400


def _search_against_loop(model, alpha, n_channels, stream, budget):
    """The search reports the reference loop's objective of the skew it
    returns, within the tolerance of test_objective_matches_the_loop, with an
    absolute floor where the optimum is 0."""
    res = optimize_skew_a1(model, alpha, n_channels, stream, budget)
    grams, spectra = sample_grams(model, stream.derive("channels").generator(),
                                  n_channels)
    a = res.skew.a
    want = loop_skew_objective(grams, spectra[:, 0], alpha)(a)
    mu = np.linalg.eigvalsh(a.conj().T @ grams @ a)
    spread = (mu[:, -1] / mu[:, 0]).max()
    assert abs(res.objective - want) <= 8.0 * np.finfo(float).eps * spread * max(1.0, abs(want))
    assert res.n_evals <= budget


@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
def test_search_matches_the_loop_on_the_fig6d_model(alpha):
    stream = RngStream(7).derive("fig6d-design").derive(f"alpha{alpha}")
    _search_against_loop(_FIG6_MODEL, alpha, 64, stream, 120)


@pytest.mark.parametrize("lam", [[4.0, 3.0, 2.0, 1.0], [1.6, 1.4, 1.2, 1.0]])
def test_search_matches_the_loop_on_a_frozen_channel(lam):
    model = FixedSpectrumModel(lam=np.array(lam), frozen=True)
    for alpha in (0.0, 0.5, 1.0):
        stream = RngStream(7).derive("fig6a-design").derive(f"alpha{alpha}")
        _search_against_loop(model, alpha, 1, stream, 160)


# ---------------------------------------------------------------------------
# the one-channel design in closed form


def _closed_form_cases(count):
    """(spectrum, alpha): full-rank spectra of 2-5 antennas, alpha cycling
    through 0, 1 and a uniform draw between."""
    rng = np.random.default_rng(19)
    for i in range(count):
        lam = np.sort(rng.uniform(0.05, 4.0, 2 + i % 4))[::-1]
        yield lam, (0.0, 1.0, rng.uniform())[i % 3]


def test_closed_form_is_never_beaten_by_the_search():
    # at alpha = 1 the optimum is 0 and the search reports about -7e-16,
    # hence the absolute floor
    for i, (lam, alpha) in enumerate(_closed_form_cases(40)):
        model = FixedSpectrumModel(lam, frozen=True)
        ch = sample_channel(model, _gen("closed"))
        got = closed_form_skew_a1(ch, alpha)
        assert got.n_evals == 0
        stream = RngStream(23).derive(f"case{i}")
        found = optimize_skew_a1(model, alpha, 1, stream, 800)
        assert found.objective >= got.objective - 1e-9 * max(1.0, got.objective)
        # the reported value is the reference loop's, as the search's is
        a = got.skew.a
        want = loop_skew_objective([ch.gram], [ch.spectrum[0]], alpha)(a)
        mu = np.linalg.eigvalsh(a.conj().T @ ch.gram @ a)
        spread = mu[-1] / mu[0]
        assert abs(got.objective - want) <= 8.0 * np.finfo(float).eps * spread * abs(want)


def test_closed_form_tie_goes_to_the_whitener():
    ch = diag_channel([2.0, 2.0, 2.0])
    for alpha in (0.0, 0.5, 1.0):
        got = closed_form_skew_a1(ch, alpha)
        np.testing.assert_array_equal(got.skew.a, build_skew_a2(ch.gram, 0.0, 0.0).a)
        assert np.allclose(got.skew.a, np.eye(3) / math.sqrt(2.0))
        assert got.objective == pytest.approx(1.0 - alpha, abs=1e-15)


def test_closed_form_at_alpha_one_is_the_identity():
    ch = diag_channel([4.0, 3.0, 2.0, 1.0])
    got = closed_form_skew_a1(ch, 1.0)
    np.testing.assert_array_equal(got.skew.a, np.eye(4))
    assert got.objective == 0.0
    # on [4, 3, 2, 1] the whitener wins exactly while 1 - alpha/4 <= 4 (1 - alpha)
    assert np.allclose(closed_form_skew_a1(ch, 0.85).skew.a, np.eye(4))
    assert np.allclose(closed_form_skew_a1(ch, 0.75).skew.a,
                       np.diag(np.array([4.0, 3.0, 2.0, 1.0]) ** -0.5))


def test_closed_form_guards():
    with pytest.raises(ValueError):
        closed_form_skew_a1(diag_channel([2.0, 1.0]), 1.5)
    with pytest.raises(SingularCovarianceError):
        closed_form_skew_a1(diag_channel([2.0, 0.0]), 0.5)
