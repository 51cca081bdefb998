"""Contract of the shared Monte Carlo codebook kernel and its callers."""

import tracemalloc

import numpy as np
import pytest

from helpers import (codeword_basis, complex_gaussian, diag_channel,
                     einsum_best_quotients, einsum_stack_quotients,
                     random_channel, random_full_rank, rvq_codebooks,
                     selected_gains, standard_basis_quotients,
                     standard_basis_stack)
from rvqlab.channel import KroneckerModel
from rvqlab.codebook import _transposition_sort, group_width
from rvqlab import loss as loss_module
from rvqlab.harness import _fig4_model, skew_candidates_avg
from rvqlab.loss import (avg_delta_mi, avg_delta_snr, channel_averaged_losses,
                         delta1_exact, delta1_mc, sampled_losses)
from rvqlab.rng import RngStream
from rvqlab.skew import SkewMatrix, delta1_sk_mc


class _RecordingStream:
    """Stream proxy that logs the method and shape of every draw, and the
    key path of every generator it builds in built."""

    def __init__(self, stream, draws, built=None, path=()):
        self.stream, self.draws, self.path = stream, draws, path
        self.built = [] if built is None else built

    def derive(self, key):
        return _RecordingStream(self.stream.derive(key), self.draws, self.built,
                                self.path + (key,))

    def generator(self):
        self.built.append(self.path)
        return _RecordingGenerator(self.stream.generator(), self.draws)


class _RecordingGenerator:
    def __init__(self, gen, draws):
        self.gen, self.draws = gen, draws

    def standard_normal(self, size=None, out=None):
        self.draws.append(("standard_normal", size if out is None else out.shape))
        return self.gen.standard_normal(size, out=out)

    def random(self, size=None, out=None):
        self.draws.append(("random", size if out is None else out.shape))
        return self.gen.random(size, out=out)


@pytest.mark.parametrize("k", range(1, 17))
def test_transposition_network_equals_np_sort(k):
    # continuous columns, then columns of a four-value grid, many of them tied
    gen = RngStream(61).derive(f"network{k}").generator()
    for s in (gen.random((3, k, 400)), np.floor(4 * gen.random((3, k, 400))) / 4):
        want = np.sort(s, axis=1)
        _transposition_sort(s, np.empty(k // 2 * 3 * 400))
        np.testing.assert_array_equal(s, want)


def _quotient_pairs(n):
    rng = RngStream(5).derive(f"pairs{n}").generator()
    h = complex_gaussian(rng, (2, n))
    a = random_full_rank(rng, n)
    gram = h.conj().T @ h
    return [(gram, None), (a.conj().T @ gram @ a, a.conj().T @ a)]


def test_codebooks_are_drawn_in_slices():
    bits, n_codebooks = 17, 2
    for n in (2, 3, 4):
        pairs = _quotient_pairs(n)
        stream = RngStream(9).derive(f"sliced{n}")
        # plain RVQ with a skew, then plain RVQ alone: it draws no normals
        for call, kinds in ((pairs, {"random", "standard_normal"}),
                            (pairs[:1], {"random"})):
            draws = []
            got = standard_basis_quotients(call, bits, n_codebooks,
                                 _RecordingStream(stream, draws))
            assert {kind for kind, _ in draws} == kinds
            # each codebook is larger than the block, so it is drawn in slices
            assert sum(kind == "random" for kind, _ in draws) > n_codebooks
            assert all(shape[-1] < 1 << bits for _, shape in draws)
            np.testing.assert_allclose(
                got, einsum_best_quotients(call, bits, n_codebooks, stream),
                rtol=1e-13)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_kernel_equals_explicit_rvq_codebooks(n):
    # two receive antennas: the Gram is singular for n = 3 and 4
    rng = RngStream(21).derive(f"explicit{n}").generator()
    gram = random_channel(rng, 2, n).gram
    a = random_full_rank(rng, n)
    pairs = [(gram, None), (a.conj().T @ gram @ a, a.conj().T @ a)]
    for bits in range(7):
        stream = RngStream(21).derive(f"kernel{n}/{bits}")
        got = standard_basis_quotients(pairs, bits, 64, stream)
        u = codeword_basis(pairs).vectors
        want = [selected_gains(rvq_codebooks(stream, bits, u, 64, skew), gram)
                for skew in (None, a)]
        np.testing.assert_allclose(got, want, rtol=1e-13)


def _mixed_pairs(n, k, seed):
    """k pairs on one Gram: plain RVQ at positions 0 and 5, skews elsewhere."""
    rng = RngStream(seed).derive(f"mixed{n}/{k}").generator()
    gram = random_channel(rng, 2, n).gram
    pairs = []
    for pos in range(k):
        if pos in (0, 5):
            pairs.append((gram, None))
        else:
            a = complex_gaussian(rng, (n, n))
            pairs.append((a.conj().T @ gram @ a, a.conj().T @ a))
    return pairs


# (bits, n_codebooks): one codeword, slices of one and two codewords at
# bits 0 and 1, a few small codebooks, and two chunks at n <= 4
_SHAPES = [(0, 1), (0, 2), (1, 1), (0, 3), (1, 2), (3, 5), (6, 300)]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8, 16, 64])
def test_kernel_equals_complex_einsum_bit_for_bit(n):
    for k in (1, 8):
        pairs = _mixed_pairs(n, k, 31)
        for bits, n_codebooks in _SHAPES:
            if n > 4 and n_codebooks * n << bits > 1 << 12:
                continue
            stream = RngStream(31).derive(f"exact{n}/{k}/{bits}")
            np.testing.assert_allclose(
                standard_basis_quotients(pairs, bits, n_codebooks, stream),
                einsum_best_quotients(pairs, bits, n_codebooks, stream),
                rtol=1e-13)


def test_sliced_kernel_equals_complex_einsum_bit_for_bit():
    # n = 4, bits 15: each codebook is drawn in two codeword slices
    for k in (1, 8):
        pairs = _mixed_pairs(4, k, 37)
        stream = RngStream(37).derive(f"sliced{k}")
        np.testing.assert_allclose(standard_basis_quotients(pairs, 15, 2, stream),
                                   einsum_best_quotients(pairs, 15, 2, stream),
                                   rtol=1e-13)


def _channel_stack(n, c, seed):
    """c channels of two pairs each, plain RVQ then a skew, on distinct Grams."""
    rng = RngStream(seed).derive(f"stack{n}/{c}").generator()
    stack = []
    for _ in range(c):
        gram = random_channel(rng, 2, n).gram
        a = complex_gaussian(rng, (n, n))
        stack.append([(gram, None), (a.conj().T @ gram @ a, a.conj().T @ a)])
    return stack


# (bits, n_codebooks) at n = 4: one group of every channel, groups of two
# channels (so a stack of three takes two), one channel a group, and
# codebooks in two chunks
_STACK_SHAPES = [(0, 3), (2, 10), (6, 100), (7, 100), (12, 5)]


@pytest.mark.parametrize("c", [1, 2, 3])
def test_kernel_on_channel_stacks_equals_a_channel_loop(c):
    # rows mixed across channels, or draws taken out of channel order, would
    # set a channel's rows apart from its own codewords
    for n in (2, 4):
        stack = _channel_stack(n, c, 47)
        for bits, n_codebooks in _STACK_SHAPES:
            for rows in (slice(0, 1), slice(0, 2)):  # plain alone, then with a skew
                call = [pairs[rows] for pairs in stack]
                stream = RngStream(47).derive(f"stack{n}/{c}/{bits}")
                got = standard_basis_stack(call, bits, n_codebooks, stream)
                assert got.shape == (c, len(call[0]), n_codebooks)
                np.testing.assert_allclose(
                    got, einsum_stack_quotients(call, bits, n_codebooks, stream),
                    rtol=1e-13)


@pytest.mark.parametrize("bits, n_codebooks", [(3, 20), (6, 80)])
def test_first_channels_keep_their_means(bits, n_codebooks):
    # one group of all 20 channels, then groups of three
    model = KroneckerModel(lambda_t=np.array([1.6, 1.2, 0.8, 0.4]),
                           lambda_r=np.array([1.5, 1.0, 0.5]))
    stream = RngStream(53).derive(f"prefix{bits}")
    a = random_full_rank(stream.derive("skew").generator(), 4)
    for skews, rho in (([None], None), ([None, a], 2.0)):
        full = loss_module._channel_means(model, skews, bits, 20, n_codebooks,
                                          stream, rho)
        head = loss_module._channel_means(model, skews, bits, 7, n_codebooks,
                                          stream, rho)
        assert full.shape == (20, len(skews))
        np.testing.assert_array_equal(full[:7], head)


@pytest.mark.parametrize("bits", [1, 4, 6])
def test_channel_groups_build_two_generators_each(bits):
    # fig4b's shape: 30 channels of 100 codebooks at n = 4
    built = []
    avg_delta_mi(_fig4_model([8.0, 8.0, 0.0, 0.0]), 10.0, bits, 30, 100,
                 _RecordingStream(RngStream(59).derive("fig4b"), [], built))
    groups = -(-30 // group_width(4, bits, 100))
    assert groups < 30
    assert sorted(built) == sorted([(g, "channel") for g in range(groups)]
                                   + [(g, "codebooks") for g in range(groups)])
    built.clear()
    channel_averaged_losses(_fig4_model([8.0, 8.0, 0.0, 0.0]), [None, np.eye(4)],
                            bits, 30, 100,
                            _RecordingStream(RngStream(59).derive("fig4b"), [], built))
    assert len(built) == 3 * groups  # and a "phase" generator with a skew


def test_estimates_carry_their_sample_count():
    ch = diag_channel([4.0, 3.0, 2.0, 1.0])
    stream = RngStream(41).derive("count")
    ests = sampled_losses(ch, [None, np.eye(4)], 3, 30, stream)
    assert [e.n for e in ests] == [30, 30]
    model = KroneckerModel(lambda_t=np.array([1.6, 1.2, 0.8, 0.4]),
                           lambda_r=np.array([1.5, 1.0, 0.5]))
    est, = channel_averaged_losses(model, [None], 2, 7, 5, stream)
    assert est.n == 7
    assert delta1_exact([2.0, 1.0], 3).n is None


def _pairs_of(estimates):
    return [[e.value, e.stderr] for e in estimates]


def test_callers_agree_on_shared_draws():
    stream = RngStream(13).derive("shared")
    gen = stream.derive("skews").generator()
    sk1, sk2 = (SkewMatrix(random_full_rank(gen, 4)) for _ in range(2))
    ch = diag_channel([4.0, 3.0, 2.0, 1.0])
    # one kernel call for three codebooks equals three separate calls
    got = sampled_losses(ch, [None, sk1.a, sk2.a], 5, 30, stream)
    want = [delta1_mc(ch, 5, 30, stream), delta1_sk_mc(ch, sk1, 5, 30, stream),
            delta1_sk_mc(ch, sk2, 5, 30, stream)]
    np.testing.assert_array_equal(_pairs_of(got), _pairs_of(want))

    model = KroneckerModel(lambda_t=np.array([1.6, 1.2, 0.8, 0.4]),
                           lambda_r=np.array([1.5, 1.0, 0.5]))
    est = avg_delta_snr(model, 3, 4, 40, stream)
    rows = skew_candidates_avg(model, [("rvq", None), ("a", sk1)], 3, 4, 40, stream)
    np.testing.assert_array_equal(rows[0][1:], [est.value, est.stderr])


def test_channel_blocks_keep_every_value(monkeypatch):
    stream = RngStream(17).derive("blocks")
    a = random_full_rank(stream.derive("skew").generator(), 4)
    model = KroneckerModel(lambda_t=np.array([1.6, 1.2, 0.8, 0.4]),
                           lambda_r=np.array([1.5, 1.0, 0.5]))
    for rho in (None, 3.0):
        want = channel_averaged_losses(model, [None, a], 3, 7, 20, stream, rho)
        with monkeypatch.context() as patch:
            # one channel per block, then blocks of 3, 3 and 1 channels
            for entries in (1, 3 * 4 * (3 + 4 * 7)):
                patch.setattr(loss_module, "_STACK_ENTRIES", entries)
                got = channel_averaged_losses(model, [None, a], 3, 7, 20, stream, rho)
                np.testing.assert_array_equal(_pairs_of(got), _pairs_of(want))


def test_sampled_loss_memory_is_bounded():
    tracemalloc.start()
    try:
        delta1_mc(diag_channel([4.0, 3.0, 2.0, 1.0]), 20, 2,
                  RngStream(3).derive("memory"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20


def test_stacked_kernel_memory_is_bounded():
    # fig6c's shape: plain RVQ and 20 skews on one Gram, 41 matrices, at
    # n = 4 and bits 12, so each slice holds 16384 codewords
    rng = RngStream(43).derive("stack").generator()
    gram = random_channel(rng, 2, 4).gram
    skews = [complex_gaussian(rng, (4, 4)) for _ in range(20)]
    pairs = [(gram, None)] + [(a.conj().T @ gram @ a, a.conj().T @ a)
                              for a in skews]
    tracemalloc.start()
    try:
        standard_basis_quotients(pairs, 12, 4, RngStream(43).derive("stack memory"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the quotients are divided in place: a copy of the 21 denominator rows
    # of a slice would add about 4 MB
    assert peak < 10 * 2 ** 20
