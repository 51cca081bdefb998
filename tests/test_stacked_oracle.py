"""The quadrature oracles over a stack of spectra: each row is its own
one-row call, bit for bit, whatever it is stacked with."""

import re
import tracemalloc

import numpy as np
import pytest

from rvqlab import loss
from rvqlab.linalg import MAX_DIM
from rvqlab.loss import delta1_quadrature, delta2_quadrature
from rvqlab.ordering import schur_family
from rvqlab.quadrature import integrate_piecewise
from test_oracle import RHO, SPECTRA


def _values(estimates):
    return [e.value for e in estimates]


@pytest.mark.parametrize("bits", [0, 2, 6, 24])
def test_schur_rows_equal_their_own_calls(bits):
    family = schur_family()
    assert _values(delta1_quadrature(family, bits)) == [
        delta1_quadrature(prof, bits).value for prof in family]


@pytest.mark.parametrize("bits", [0, 2, 6, 24])
def test_rate_loss_rows_equal_their_own_calls(bits):
    # unnormalized rows: each row's power scale enters its rho and its tol
    family = schur_family()[::8] * np.linspace(0.5, 4.0, 19)[:, None]
    assert _values(delta2_quadrature(family, RHO, bits)) == [
        delta2_quadrature(prof, RHO, bits).value for prof in family]


@pytest.mark.parametrize("n", sorted({len(lam) for lam in SPECTRA}))
def test_equal_length_spectra_rows_equal_their_own_calls(n):
    rows = [lam for lam in SPECTRA if len(lam) == n]
    for bits in (0, 2, 12, 24):
        assert _values(delta1_quadrature(rows, bits)) == [
            delta1_quadrature(lam, bits).value for lam in rows]
        # reversed: a row's value does not depend on its neighbours
        assert _values(delta1_quadrature(rows[::-1], bits)) == [
            delta1_quadrature(lam, bits).value for lam in rows[::-1]]


@pytest.mark.parametrize("bad", [
    [1.0, 2.0, 0.5],                    # ascending
    [1.0, -0.1, -0.2],                  # negative
    [1.0, np.nan, 0.0],                 # not finite
    [0.0, 0.0, 0.0],                    # zero channel
    list(np.arange(MAX_DIM + 1, 0.0, -1.0)),  # past the length cap
], ids=["ascending", "negative", "nan", "zero", "long"])
def test_a_bad_row_raises_what_its_own_call_raises(bad):
    good = np.linspace(3.0, 1.0, len(bad))
    with pytest.raises(ValueError) as own:
        delta1_quadrature(bad, 4)
    message = re.escape(str(own.value))
    with pytest.raises(type(own.value), match=message):
        delta1_quadrature([good, bad], 4)
    with pytest.raises(type(own.value), match=message):
        delta2_quadrature([bad, good], RHO, 4)


def test_a_one_row_stack_returns_a_list():
    lam = [4.0, 2.8, 1.6, 0.4]
    one, = delta1_quadrature([lam], 8)
    assert one == delta1_quadrature(lam, 8)


def test_dead_panels_are_dropped():
    # F^m underflows to 0 well before l_n at depth; the panels past the
    # first breakpoint that reads 0 add nothing (integrating every graded
    # panel takes 3600 nodes here, 2588 of them reading 0)
    seen = []
    cdf = loss.cdf

    def counting(law, x, rows=None):
        seen.append(np.size(x))
        return cdf(law, x, rows)

    loss.cdf = counting
    try:
        value = delta1_quadrature([4.0, 3.0, 2.0, 1.0], 24).value
    finally:
        loss.cdf = cdf
    assert 0 < sum(seen) <= 1800
    assert value > 0.0


def test_stacked_rows_keep_their_own_tolerance_and_budget():
    f = lambda x, rows: np.cos((rows[:, None] + 1.0) * x)
    pts = np.array([[0.0, 1.0, 2.0], [0.0, 0.5, 2.0], [0.0, 0.0, 0.0]])
    got = integrate_piecewise(f, pts, tol=np.array([1e-12, 1e-6, 1e-12]))
    for row, tol in enumerate((1e-12, 1e-6)):
        one = integrate_piecewise(lambda x: np.cos((row + 1.0) * x), pts[row], tol)
        assert got[row] == one
        assert one == pytest.approx(np.sin(2.0 * (row + 1.0)) / (row + 1.0), abs=tol)
    assert got[2] == 0.0


def test_stacked_oracle_memory_is_bounded():
    family = schur_family()
    tracemalloc.start()
    try:
        delta1_quadrature(family, 24)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20
