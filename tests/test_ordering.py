"""Tests for the majorization comparator and the loss-monotonicity checker."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rvqlab.loss import delta1_appx, delta1_quadrature
from rvqlab.ordering import majorize_compare, schur_family, verify_schur


def test_compare_landmarks():
    assert majorize_compare([0.5, 0.5], [1.0, 0.0]) == -1
    assert majorize_compare([1.0, 0.0], [0.5, 0.5]) == 1
    # prefix sums cross: 0.6 > 0.5 but 0.85 < 0.9
    assert majorize_compare([0.6, 0.25, 0.15], [0.5, 0.4, 0.1]) == 0
    assert majorize_compare([3.0, 2.0, 1.0], [3.0, 2.0, 1.0]) == 0


def test_compare_sorts_inputs():
    assert majorize_compare([0.25, 0.75], [0.5, 0.5]) == 1
    assert majorize_compare([1.0, 2.0, 3.0], [3.0, 2.0, 1.0]) == 0


def test_compare_rejects_mismatches():
    with pytest.raises(ValueError):
        majorize_compare([1.0, 0.0], [0.5, 0.4])
    with pytest.raises(ValueError):
        majorize_compare([1.0, 0.0], [0.5, 0.3, 0.2])


def test_family_shape_and_endpoints():
    fam = schur_family()
    assert fam.shape == (149, 4)
    np.testing.assert_allclose(fam[0], [0.99, 0.01 / 3, 0.01 / 3, 0.01 / 3],
                               atol=1e-12)
    np.testing.assert_allclose(fam[-1], [0.25] * 4, atol=1e-12)
    np.testing.assert_allclose(fam.sum(axis=1), 1.0, atol=1e-12)


def test_family_is_a_chain():
    fam = schur_family()
    for i in range(fam.shape[0] - 1):
        assert majorize_compare(fam[i], fam[i + 1]) == 1


def test_closed_form_loss_monotone_along_family():
    # the balanced last member has no top gap, so stop one short of it
    fam = schur_family()[:-1]
    rep = verify_schur(fam, lambda p: delta1_appx(p, 4).value)
    assert rep.monotone
    assert rep.max_violation == 0.0
    assert rep.n_profiles == 148
    assert rep.losses[0] == pytest.approx(0.34839711446005867, rel=1e-12)
    assert rep.losses[-1] == pytest.approx(0.009139192986631116, rel=1e-12)


def test_quadrature_loss_on_rank_staircase():
    stair = [[1.0, 0.0, 0.0, 0.0],
             [0.5, 0.5, 0.0, 0.0],
             [1 / 3, 1 / 3, 1 / 3, 0.0],
             [0.25, 0.25, 0.25, 0.25]]
    rep = verify_schur(stair, lambda p: delta1_quadrature(p, 3).value)
    assert rep.monotone
    # rank-1 landmark is sum_k C(8,k)(-1)^k/(3k+1); rank-3 is E[min |f_4|^2]/l1
    np.testing.assert_allclose(
        rep.losses, [0.43466323, 0.18899840, 0.04, 0.0], atol=1e-8)


def test_loss_order_needs_the_top_entry_to_stay_on_top():
    # a transfer that dethrones the dominant entry can reverse the loss
    # order even though the majorization relation still holds; ordering
    # guarantees apply to chains where the top entry keeps its crown
    spread = [0.34250, 0.33189, 0.20383, 0.12178]
    balanced = [0.33189, 0.24398, 0.22030, 0.20383]
    assert majorize_compare(spread, balanced) == 1
    la = delta1_quadrature(spread, 4).value
    lb = delta1_quadrature(balanced, 4).value
    assert la < lb
    assert la == pytest.approx(0.080764, abs=5e-5)
    assert lb == pytest.approx(0.113652, abs=5e-5)


def test_verify_rejects_broken_chain():
    with pytest.raises(ValueError):
        verify_schur([[0.5, 0.5], [1.0, 0.0]], lambda p: 0.0)


def test_verify_tolerates_repeated_profiles():
    rows = [[0.6, 0.4], [0.6, 0.4], [0.5, 0.5]]
    rep = verify_schur(rows, lambda p: float(p[0]))
    assert rep.monotone


def test_verify_tolerance_for_noisy_losses():
    rows = [[0.7, 0.3], [0.6, 0.4]]
    noisy = iter([0.5, 0.5005])
    rep = verify_schur(rows, lambda p: next(noisy), tol=1e-3)
    assert rep.monotone
    assert rep.max_violation == pytest.approx(5e-4)
    strict = verify_schur(rows, lambda p: [0.5, 0.5005][int(p[0] < 0.65)])
    assert not strict.monotone


def unit_profiles(n):
    return st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n).map(
        lambda v: np.sort(np.array(v) / np.sum(v))[::-1])


@settings(max_examples=60, deadline=None)
@given(unit_profiles(4), unit_profiles(4))
def test_compare_is_antisymmetric(a, b):
    assert majorize_compare(a, b) == -majorize_compare(b, a)


@settings(max_examples=60, deadline=None)
@given(unit_profiles(4), st.floats(0.05, 0.5))
def test_transfer_toward_balance_is_majorized(lam, t):
    if lam[0] - lam[-1] < 0.01:
        return
    mixed = lam.copy()
    shift = t * (lam[0] - lam[-1])
    mixed[0] -= shift
    mixed[-1] += shift
    assert majorize_compare(lam, mixed) == 1
    assert majorize_compare(mixed, lam) == -1


@settings(max_examples=60, deadline=None)
@given(unit_profiles(4))
def test_extremes_bracket_everything(lam):
    if lam[0] < 0.3 or lam[-1] < 0.01:
        return
    assert majorize_compare([1.0, 0.0, 0.0, 0.0], lam) == 1
    assert majorize_compare(lam, [0.25] * 4) == 1
