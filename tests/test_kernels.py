import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neteffects import DirectedWeightedNetwork, EffectKind, complete_estimate
from neteffects.kernels import quadruple_kernel_values
from .oracles import (correction, disjoint, exact_kernel_values, pair_mean, quadruple_kernel, receiver,
                      recip, reference_valid_rows, sender, two_path)
from .conftest import KERNEL_ROW, constant_net, make_random_net, traced_peak

W3 = np.array([[0.0, 1.0, 2.0], [3.0, 0.0, 4.0], [5.0, 6.0, 0.0]])


class TestPairKernels:
    def test_pair_average_hand_value(self):
        assert pair_mean(W3, 0, 1) == 2.0

    def test_pair_average_symmetric_entries(self):
        w = np.array([[0.0, 5.0], [5.0, 0.0]])
        assert pair_mean(w, 0, 1) == 5.0
        assert pair_mean(np.zeros((2, 2)), 0, 1) == 0.0

    def test_reciprocal_product_hand_value(self):
        assert recip(W3, 0, 1) == 3.0
        assert recip(np.array([[0.0, 7.0], [0.0, 0.0]]), 0, 1) == 0.0
        assert recip(np.array([[0.0, 2.0], [2.0, 0.0]]), 0, 1) == 4.0

    def test_pair_kernels_symmetric_in_arguments(self):
        assert pair_mean(W3, 0, 1) == pair_mean(W3, 1, 0)
        assert recip(W3, 0, 2) == recip(W3, 2, 0)


class TestTripleKernels:
    def test_same_sender_hand_value(self):
        assert sender(W3, 0, 1, 2) == pytest.approx(44.0 / 3.0)

    def test_same_receiver_hand_value(self):
        assert receiver(W3, 0, 1, 2) == pytest.approx(29.0 / 3.0)

    def test_two_path_hand_value(self):
        assert two_path(W3, 0, 1, 2) == pytest.approx(65.0 / 6.0)

    def test_constant_network_gives_square(self):
        w = constant_net(3, 4.0).weights
        assert sender(w, 0, 1, 2) == pytest.approx(16.0)
        assert receiver(w, 0, 1, 2) == pytest.approx(16.0)
        assert two_path(w, 0, 1, 2) == pytest.approx(16.0)

    def test_zeros(self):
        w = np.zeros((3, 3))
        assert sender(w, 0, 1, 2) == 0.0
        assert two_path(w, 0, 1, 2) == 0.0

    def test_transpose_duality(self):
        # same-receiver on W equals same-sender on W transposed
        assert receiver(W3, 0, 1, 2) == pytest.approx(
            sender(W3.T.copy(), 0, 1, 2)
        )
        assert sender(W3, 0, 1, 2) == pytest.approx(
            receiver(W3.T.copy(), 0, 1, 2)
        )

    @pytest.mark.parametrize("seed", range(5))
    def test_permutation_invariance(self, seed):
        w = make_random_net(6, seed).weights
        i, j, k = 0, 2, 4
        base = (sender(w, i, j, k), receiver(w, i, j, k),
                two_path(w, i, j, k))
        for perm in itertools.permutations((i, j, k)):
            assert sender(w, *perm) == pytest.approx(base[0], rel=1e-14)
            assert receiver(w, *perm) == pytest.approx(base[1], rel=1e-14)
            assert two_path(w, *perm) == pytest.approx(base[2], rel=1e-14)


class TestQuadKernels:
    def test_disjoint_pair_product_all_ones(self):
        w = constant_net(4, 1.0).weights
        assert disjoint(w, (0, 1, 2, 3)) == pytest.approx(1.0)

    def test_disjoint_pair_product_single_bumped_entry(self):
        w = constant_net(4, 1.0).weights.copy()
        w[0, 1] = 2.0
        # 20 of the 24 ordered products stay 1, four become 2
        assert disjoint(w, (0, 1, 2, 3)) == pytest.approx(7.0 / 6.0)

    def test_disjoint_pair_product_zeros(self):
        assert disjoint(np.zeros((4, 4)), (0, 1, 2, 3)) == 0.0

    def test_permutation_and_transpose_invariance(self):
        w = make_random_net(6, seed=9).weights
        quad = (0, 1, 3, 5)
        base = disjoint(w, quad)
        for perm in itertools.permutations(quad):
            assert disjoint(w, perm) == pytest.approx(base, rel=1e-13)
        assert disjoint(w.T.copy(), quad) == pytest.approx(base, rel=1e-13)


class TestCorrection:
    def test_all_zero_quad(self):
        assert correction(np.zeros((5, 5)), (0, 1, 2, 3), 5) == 0.0

    def test_constant_network_vanishes(self):
        # every term of the quadruple kernel must cancel on a constant
        # network (the complete estimate is identically zero there), and
        # the correction itself vanishes
        for n in (5, 8, 20):
            w = constant_net(n, 3.0).weights
            assert correction(w, (0, 1, 2, 3), n) == pytest.approx(0.0, abs=1e-13)

    def test_network_size_not_tuple_size_enters(self):
        # same induced sub-network, different global n: values must differ
        w = make_random_net(12, seed=3).weights
        quad = (0, 1, 2, 3)
        assert correction(w, quad, 12) != correction(w, quad, 6)


class TestQuadrupleKernel:
    def test_all_zero_quad(self):
        w = np.zeros((6, 6))
        for effect in EffectKind:
            assert quadruple_kernel(effect, w, (0, 1, 2, 3), 6) == 0.0

    def test_constant_network_gives_zero(self):
        net = constant_net(7, 2.5)
        for effect in EffectKind:
            assert quadruple_kernel(effect, net.weights, (0, 2, 4, 6), 7) == pytest.approx(
                0.0, abs=1e-12
            )

    @pytest.mark.parametrize("n", [6, 7, 8])
    @pytest.mark.parametrize("effect", list(EffectKind))
    def test_average_over_all_quadruples_is_complete_estimate(self, n, effect):
        net = make_random_net(n, seed=n * 17 + 1)
        target = complete_estimate(net, effect).value
        vals = [
            quadruple_kernel(effect, net.weights, quad, n)
            for quad in itertools.combinations(range(n), 4)
        ]
        assert np.mean(vals) == pytest.approx(target, rel=1e-9, abs=1e-12)

    @pytest.mark.parametrize("effect", list(EffectKind))
    def test_vectorized_matches_scalar(self, effect):
        net = make_random_net(9, seed=23)
        quads = np.array(list(itertools.combinations(range(9), 4)))
        vec = quadruple_kernel_values(net, quads)[KERNEL_ROW[effect]]
        scalar = [quadruple_kernel(effect, net.weights, tuple(q), 9) for q in quads]
        np.testing.assert_allclose(vec, scalar, rtol=1e-12, atol=1e-14)

    # m = 8,192 and 8,193 are one estimators.KERNEL_BLOCK and one more
    @pytest.mark.parametrize("m", [1, 7, 8_192, 8_193])
    def test_matches_the_exact_rational_kernel(self, m):
        # every quad is shifted by one of its own weights, so the error stays a
        # few units in the last place of the largest kernel value at any offset;
        # a row keeps its bits in any batch (below), so 32 rows stand for a long batch
        n = 60
        base = make_random_net(n, seed=m).weights
        quads = np.random.default_rng(m).permuted(np.tile(np.arange(n), (m, 1)), axis=1)[:, :4]
        rows = np.unique(np.linspace(0, m - 1, min(m, 32)).astype(np.int64))
        for scale in (1.0, 1e-3, 1e5):
            for offset in (0.0, 1e3, 1e8):
                w = base * scale + offset
                np.fill_diagonal(w, 0.0)
                net = DirectedWeightedNetwork(w)
                values = quadruple_kernel_values(net, quads)[:, rows]
                exact_values = exact_kernel_values(net.weights, quads[rows])
                for effect, row, exact in zip(EffectKind, values, exact_values):
                    error = max(abs(Fraction(float(v)) - x) for v, x in zip(row, exact))
                    assert error <= 1e-14 * max(map(abs, exact)), (effect, scale, offset)

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(4, 60), m=st.integers(1, 30), seed=st.integers(0, 2**32 - 1),
           scale=st.sampled_from([1.0, 1e-3, 1e5]), offset=st.sampled_from([0.0, 1e3, 1e8]))
    def test_a_row_has_the_same_bits_alone_as_in_a_batch(self, n, m, seed, scale, offset):
        # a one-row (4, 4, 1) gather once took another summation path than a batch
        rng = np.random.default_rng(seed)
        w = rng.normal(size=(n, n)) * scale + offset
        np.fill_diagonal(w, 0.0)
        net = DirectedWeightedNetwork(w)
        quads = rng.permuted(np.tile(np.arange(n), (m, 1)), axis=1)[:, :4]
        batch = quadruple_kernel_values(net, quads)
        for k in range(m):
            alone = quadruple_kernel_values(net, quads[k:k + 1])
            assert batch[:, k].tobytes() == alone[:, 0].tobytes(), k

    def test_values_are_four_rows_with_the_same_bytes_on_every_call(self):
        net = make_random_net(12, seed=6)
        quads = reference_valid_rows(12, round(12**1.5), 1)
        values = quadruple_kernel_values(net, quads)
        assert values.shape == (4, len(quads))
        assert values.tobytes() == quadruple_kernel_values(net, quads).tobytes()

    @pytest.mark.parametrize("quad, bad", [([0, 1, 2, 9], 9), ([0, 1, 2, -3], -3),
                                           ([6, 1, 2, 3], 6), ([0, -1, 2, 3], -1)])
    def test_an_index_outside_the_network_raises(self, quad, bad):
        # a wrapped gather read another cell: [0, 1, 2, 9] and [0, 1, 2, -3] gave finite values
        with pytest.raises(IndexError, match=rf"^quadruple index {bad} is outside \[0, 6\)$"):
            quadruple_kernel_values(make_random_net(6, seed=1), np.array([[0, 1, 2, 3], quad]))

    def test_no_quadruples_give_four_empty_rows(self):
        values = quadruple_kernel_values(make_random_net(6, seed=1), np.empty((0, 4), dtype=np.int64))
        assert values.shape == (4, 0)

    def test_one_block_peaks_below_a_sixteen_entry_gather(self):
        # 8,192 quads, one estimators.KERNEL_BLOCK: the 12 gathered rows and the
        # 12 work rows take 0.79 MB each (1.58 MB in all); a (4, 4, m) gather with
        # einsum sums peaked at 3.15 MB
        net = make_random_net(1000, seed=5)
        quads = reference_valid_rows(1000, 8192, 3)
        assert traced_peak(quadruple_kernel_values, net, quads) < 3.2e6

    def test_transpose_duality_per_tuple(self):
        net = make_random_net(8, seed=4)
        flipped = DirectedWeightedNetwork(net.weights.T)
        quads = np.array(list(itertools.combinations(range(8), 4)))
        # same-sender on the transpose equals same-receiver, and the
        # reciprocity / two-path kernels are transpose-invariant
        np.testing.assert_allclose(
            quadruple_kernel_values(flipped, quads)[KERNEL_ROW[EffectKind.SAME_SENDER]],
            quadruple_kernel_values(net, quads)[KERNEL_ROW[EffectKind.SAME_RECEIVER]],
            rtol=1e-12, atol=1e-14,
        )
        for effect in (EffectKind.RECIPROCITY, EffectKind.SENDER_RECEIVER):
            np.testing.assert_allclose(
                quadruple_kernel_values(flipped, quads)[KERNEL_ROW[effect]],
                quadruple_kernel_values(net, quads)[KERNEL_ROW[effect]],
                rtol=1e-12, atol=1e-14,
            )

    @pytest.mark.parametrize("effect", list(EffectKind))
    def test_degree_two_homogeneity(self, effect):
        net = make_random_net(7, seed=8)
        scaled = DirectedWeightedNetwork(3.0 * net.weights)
        quads = np.array(list(itertools.combinations(range(7), 4)))
        np.testing.assert_allclose(
            quadruple_kernel_values(scaled, quads)[KERNEL_ROW[effect]],
            9.0 * quadruple_kernel_values(net, quads)[KERNEL_ROW[effect]],
            rtol=1e-12, atol=1e-14,
        )
