import numpy as np
import pytest
from hypothesis import given, strategies as st

from helpers import complex_gaussian
from rvqlab.linalg import check_spectrum, hermitian_eig


def test_diagonal_input_sorted():
    eig = hermitian_eig(np.diag([3.0, 1.0, 2.0]))
    assert np.allclose(eig.values, [3.0, 2.0, 1.0])
    # eigenvectors must be a signed permutation for diagonal input
    assert np.allclose(np.abs(eig.vectors), np.eye(3)[:, [0, 2, 1]])


def test_symmetric_2x2():
    eig = hermitian_eig(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert np.allclose(eig.values, [3.0, 1.0])


def test_reconstruction():
    rng = np.random.default_rng(1)
    m = complex_gaussian(rng, (4, 4))
    m = m + m.conj().T
    eig = hermitian_eig(m)
    back = eig.vectors @ np.diag(eig.values) @ eig.vectors.conj().T
    assert np.abs(back - m).max() < 1e-10


def test_values_only_path():
    rng = np.random.default_rng(2)
    m = complex_gaussian(rng, (5, 5))
    m = m + m.conj().T
    full = hermitian_eig(m)
    vals = hermitian_eig(m, vectors=False)
    assert vals.vectors is None
    assert np.allclose(vals.values, full.values, atol=1e-12)


def test_trace_and_shift():
    rng = np.random.default_rng(3)
    m = complex_gaussian(rng, (4, 4))
    m = m + m.conj().T
    w = hermitian_eig(m).values
    assert np.trace(m).real == pytest.approx(w.sum(), rel=1e-10)
    w_shift = hermitian_eig(m + 2.5 * np.eye(4)).values
    assert np.allclose(w_shift, w + 2.5, atol=1e-10)


def test_input_validation():
    with pytest.raises(ValueError):
        hermitian_eig(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        hermitian_eig(np.zeros((65, 65)))
    with pytest.raises(ValueError):
        hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


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
    m = complex_gaussian(rng, (n, n))
    m = m + m.conj().T
    w = hermitian_eig(m).values
    assert np.all(np.diff(w) <= 1e-12)


# ---------------------------------------------------------------------------
# stacked eigenvalues


def _hermitian_stack(rng, k, n):
    m = complex_gaussian(rng, (k, n, n))
    return m + np.swapaxes(m.conj(), -1, -2)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_stack_matches_single_calls_bit_for_bit(n):
    stack = _hermitian_stack(np.random.default_rng(10 + n), 64, n)
    got = hermitian_eig(stack, vectors=False)
    assert got.vectors is None
    assert got.values.shape == (64, n)
    want = np.array([hermitian_eig(m, vectors=False).values for m in stack])
    np.testing.assert_array_equal(got.values, want)


def test_stack_with_leading_axes_keeps_them():
    stack = _hermitian_stack(np.random.default_rng(4), 6, 3).reshape(2, 3, 3, 3)
    got = hermitian_eig(stack, vectors=False).values
    assert got.shape == (2, 3, 3)
    np.testing.assert_array_equal(
        got[1, 2], hermitian_eig(stack[1, 2], vectors=False).values)


def test_stack_with_one_non_hermitian_member_raises():
    stack = _hermitian_stack(np.random.default_rng(5), 8, 3)
    stack[5, 0, 1] += 1e-3
    with pytest.raises(ValueError, match="not Hermitian"):
        hermitian_eig(stack, vectors=False)
    # the tolerance is per matrix: a small member is not masked by large ones
    stack = _hermitian_stack(np.random.default_rng(5), 8, 3)
    stack[:4] *= 1e6
    stack[6, 0, 1] += 1e-6
    with pytest.raises(ValueError, match="not Hermitian"):
        hermitian_eig(stack, vectors=False)


def test_stack_shape_validation():
    with pytest.raises(ValueError, match="square"):
        hermitian_eig(np.zeros((4, 2, 3)), vectors=False)
    with pytest.raises(ValueError, match="square"):
        hermitian_eig(np.zeros(3), vectors=False)
    with pytest.raises(ValueError, match="dimension"):
        hermitian_eig(np.zeros((2, 65, 65)), vectors=False)


def test_stack_with_vectors_raises():
    stack = _hermitian_stack(np.random.default_rng(6), 4, 2)
    with pytest.raises(ValueError, match="one matrix"):
        hermitian_eig(stack)
    with pytest.raises(ValueError, match="one matrix"):
        hermitian_eig(stack[:1], vectors=True)
