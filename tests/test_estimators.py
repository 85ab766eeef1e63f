import copy
import itertools
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neteffects import (
    DirectedWeightedNetwork,
    EffectKind,
    QuadrupleSample,
    TooFewNodesError,
    UnsupportedEffectError,
    complete_estimate,
    mean_edge,
    projection_variance,
    reduced_estimate,
    sample_quadruples,
)
from neteffects import estimators
from neteffects.estimators import node_projection
from neteffects.kernels import quadruple_kernel_values
from neteffects.simulation import generate
from . import oracles
from .conftest import constant_net, make_random_net, traced_peak, two_path_offset_term

ALL_EFFECTS = list(EffectKind)
DIAGNOSABLE = [EffectKind.RECIPROCITY, EffectKind.SENDER_RECEIVER]


def drawn_rows(sample):
    """The sample's quadruples: copies of the blocks its draw yields, one after another."""
    return np.concatenate([quads.copy() for quads in estimators._draw(sample.n, sample.m, sample.seed)])


def assert_near_the_stacked_moments(moments, net, tuples):
    """Each effect's reduced moments within README's 1e-12 of numpy's mean and
    std of the oracle's kernel values on ``tuples``, relative to the largest
    |kernel value| or mean_edge squared, whichever is larger."""
    mu = mean_edge(net)
    for effect, values in zip(EffectKind, oracles.stack_kernel_values(net.weights, tuples)):
        bound = 1e-12 * max(np.abs(values).max(), mu * mu)
        assert abs(moments[effect].eta_hat - values.mean()) <= bound, effect
        assert abs(moments[effect].sigma_hat - values.std()) <= bound, effect


class TestMeanEdge:
    def test_constant(self):
        assert mean_edge(constant_net(5, 3.0)) == pytest.approx(3.0)

    def test_two_node_hand_value(self):
        net = DirectedWeightedNetwork(np.array([[0.0, 1.0], [3.0, 0.0]]))
        assert mean_edge(net) == pytest.approx(2.0)

    def test_zeros(self):
        assert mean_edge(DirectedWeightedNetwork(np.zeros((4, 4)))) == 0.0


class TestCompleteEstimate:
    @pytest.mark.parametrize("effect", ALL_EFFECTS)
    def test_constant_network_gives_zero(self, effect):
        est = complete_estimate(constant_net(6, 2.0), effect)
        assert est.value == pytest.approx(0.0, abs=1e-12)
        assert est.method == "complete"

    @pytest.mark.parametrize("effect", ALL_EFFECTS)
    @pytest.mark.parametrize("n", [5, 6, 7])
    def test_matches_naive_enumeration(self, effect, n):
        net = make_random_net(n, seed=n + hash(effect.value) % 100)
        assert complete_estimate(net, effect).value == pytest.approx(
            oracles.naive_complete(net.weights, effect.value), rel=1e-10, abs=1e-12
        )

    def test_too_few_nodes(self):
        net = DirectedWeightedNetwork(np.zeros((2, 2)))
        with pytest.raises(TooFewNodesError):
            complete_estimate(net, EffectKind.SAME_SENDER)

    def test_transpose_identities(self):
        net = make_random_net(8, seed=2)
        flipped = DirectedWeightedNetwork(net.weights.T)
        assert complete_estimate(flipped, EffectKind.SAME_SENDER).value == pytest.approx(
            complete_estimate(net, EffectKind.SAME_RECEIVER).value, rel=1e-12
        )
        for effect in (EffectKind.RECIPROCITY, EffectKind.SENDER_RECEIVER):
            assert complete_estimate(flipped, effect).value == pytest.approx(
                complete_estimate(net, effect).value, rel=1e-12
            )

    @pytest.mark.parametrize("effect", ALL_EFFECTS)
    def test_node_relabeling_invariance(self, effect):
        net = make_random_net(7, seed=31)
        perm = np.random.default_rng(0).permutation(7)
        relabeled = DirectedWeightedNetwork(net.weights[np.ix_(perm, perm)])
        assert complete_estimate(relabeled, effect).value == pytest.approx(
            complete_estimate(net, effect).value, rel=1e-12, abs=1e-14
        )


class TestSampleQuadruples:
    def test_size_and_distinctness(self):
        sample = sample_quadruples(10, 1.0, seed=0)
        assert sample.m == 10
        assert np.all(np.diff(np.sort(drawn_rows(sample), axis=1), axis=1) > 0)

    def test_rounded_size(self):
        assert sample_quadruples(100, 1.2, 0).m == 251

    def test_deterministic(self):
        a = sample_quadruples(50, 1.3, seed=7)
        b = sample_quadruples(50, 1.3, seed=7)
        assert np.array_equal(drawn_rows(a), drawn_rows(b))
        c = sample_quadruples(50, 1.3, seed=8)
        assert not np.array_equal(drawn_rows(a), drawn_rows(c))

    def test_preconditions(self):
        with pytest.raises(TooFewNodesError):
            sample_quadruples(3, 1.0, seed=0)
        with pytest.raises(ValueError):
            sample_quadruples(10, 2.0, seed=0)
        with pytest.raises(ValueError):
            sample_quadruples(10, 0.9, seed=0)

    def test_uniform_over_indices(self):
        # each node appears with frequency ~ 1/n across many samples
        counts = np.zeros(20)
        total = 0
        for seed in range(10):
            sample = sample_quadruples(20, 1.9, seed=seed)
            rows = drawn_rows(sample)
            counts += np.bincount(rows.ravel(), minlength=20)
            total += rows.size
        freq = counts / total
        se = np.sqrt(0.05 * 0.95 / total)
        assert np.all(np.abs(freq - 1 / 20) < 5 * se)

    @pytest.mark.parametrize("n", [0, 3, np.int64(3)])
    def test_quadruple_sample_needs_four_nodes(self, n):
        with pytest.raises(TooFewNodesError, match="n >= 4"):
            QuadrupleSample(n, 10, 0)

    def test_quadruple_sample_rejects_an_empty_sample(self):
        # an empty sample would give reduced_estimate NaN moments
        with pytest.raises(ValueError, match="^m must be an integer of at least 1, got 0"):
            QuadrupleSample(8, 0, 0)

    @pytest.mark.parametrize("field", ["n", "m", "seed"])
    @pytest.mark.parametrize("value", [10.5, np.float64(8.0), True, -1])
    def test_quadruple_sample_checks_every_field_before_any_draw(self, field, value,
                                                                  monkeypatch):
        def no_draw(*args, **kwargs):
            raise AssertionError("a draw ran before the check")

        monkeypatch.setattr(np.random, "default_rng", no_draw)
        wanted = "an integer of at least 1" if field == "m" else "a non-negative integer"
        with pytest.raises(ValueError, match=f"^{field} must be {wanted}") as raised:
            QuadrupleSample(**{"n": 10, "m": 5, "seed": 0, field: value})
        assert not isinstance(raised.value, TooFewNodesError)

    @pytest.mark.parametrize("n", [10.5, np.float64(10.0), True])
    def test_non_integer_size_fails_before_any_draw(self, n, monkeypatch):
        def no_draw(*args, **kwargs):
            raise AssertionError("a draw ran before the check")

        monkeypatch.setattr(np.random, "default_rng", no_draw)
        with pytest.raises(ValueError, match="^n must be a non-negative integer") as raised:
            sample_quadruples(n, 1.2, 0)
        assert not isinstance(raised.value, TooFewNodesError)

    @pytest.mark.parametrize("seed", [1.5, np.float64(3.0), True, -1, None])
    def test_seed_outside_the_integer_rule_fails_before_any_draw(self, seed, monkeypatch):
        def no_draw(*args, **kwargs):
            raise AssertionError("a draw ran before the check")

        monkeypatch.setattr(np.random, "default_rng", no_draw)
        with pytest.raises(ValueError, match="^seed must be a non-negative integer"):
            sample_quadruples(10, 1.2, seed)

    def test_numpy_integer_seed_is_accepted(self):
        assert (drawn_rows(sample_quadruples(10, 1.2, np.uint32(7))).tobytes()
                == drawn_rows(sample_quadruples(10, 1.2, 7)).tobytes())

    def test_numpy_integer_size_is_accepted(self):
        drawn = sample_quadruples(np.int64(10), 1.2, 0)
        assert drawn_rows(drawn).tobytes() == drawn_rows(sample_quadruples(10, 1.2, 0)).tobytes()
        built = QuadrupleSample(np.int32(10), np.int64(drawn.m), np.uint8(0))
        assert drawn_rows(built).tobytes() == drawn_rows(drawn).tobytes()

    def test_drawn_tuples_are_not_copied(self):
        # m = 251,189 quadruples take 8.0 MB; a copy of them peaked at 16.8 MB
        assert traced_peak(sample_quadruples, 1000, 1.8, 3) < 10e6

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(4, 60), exponent=st.floats(1.0, 2.0, exclude_max=True),
           seed=st.integers(0, 2**32 - 1))
    def test_tuples_are_the_first_valid_rows_of_the_stream(self, n, exponent, seed):
        # at n = 4, 58 of 64 rows repeat an index, so most of the stream is skipped
        sample = sample_quadruples(n, exponent, seed)
        assert drawn_rows(sample).tobytes() == oracles.reference_valid_rows(n, sample.m, seed).tobytes()

    def test_repr_is_the_fields_and_equality_is_identity(self):
        drawn = sample_quadruples(1000, 1.8, 3)
        assert repr(drawn) == "QuadrupleSample(n=1000, m=251189, seed=3)"
        assert drawn == drawn and drawn != sample_quadruples(1000, 1.8, 3) and drawn != copy.copy(drawn)

    @pytest.mark.parametrize("field", ["n", "m", "seed"])
    def test_is_immutable(self, field):
        drawn = sample_quadruples(10, 1.2, 0)
        with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
            setattr(drawn, field, getattr(drawn, field))

    @pytest.mark.parametrize("copier", [copy.copy, copy.deepcopy,
                                        lambda sample: pickle.loads(pickle.dumps(sample))])
    def test_copies_are_read_only_and_reduce_alike(self, copier):
        net = make_random_net(30, seed=4)
        sample = sample_quadruples(30, 1.5, 2)
        twin = copier(sample)
        assert (twin.n, twin.m, twin.seed) == (sample.n, sample.m, sample.seed)
        assert repr(twin) == repr(sample)
        assert repr(reduced_estimate(net, twin)) == repr(reduced_estimate(net, sample))
        with pytest.raises(AttributeError, match="cannot assign to field 'seed'"):
            twin.seed = 0

    @staticmethod
    def kernel_blocks(net, sample, block, patch):
        """Every block of quadruples the kernel receives while ``sample`` is reduced."""
        blocks, kernel = [], estimators.quadruple_kernel_values

        def recorded(net, quads):
            blocks.append(np.array(quads))
            return kernel(net, quads)

        patch.setattr(estimators, "KERNEL_BLOCK", block)
        patch.setattr(estimators, "quadruple_kernel_values", recorded)
        reduced_estimate(net, sample)
        return blocks

    @pytest.mark.parametrize("block", [1, 7, 8192])
    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(4, 60), exponent=st.floats(1.0, 2.0, exclude_max=True),
           seed=st.integers(0, 2**32 - 1))
    def test_blocks_are_the_first_valid_rows_of_the_stream(self, block, n, exponent, seed):
        # at n = 4, 58 of 64 rows repeat an index, so most of the stream is skipped
        net = make_random_net(n, seed % 1000)
        with pytest.MonkeyPatch.context() as patch:
            sample = sample_quadruples(n, exponent, seed)
            blocks = self.kernel_blocks(net, sample, block, patch)
        assert [len(quads) for quads in blocks] == [min(block, sample.m - s)
                                                     for s in range(0, sample.m, block)]
        assert np.concatenate(blocks).tobytes() == oracles.reference_valid_rows(n, sample.m, seed).tobytes()

    def test_blocks_are_the_first_valid_rows_of_the_stream_at_scale(self):
        # m = 251,189: 31 blocks of 8,192, whose overdrawn calls leave spare rows to the next
        net = make_random_net(1000, seed=1)
        with pytest.MonkeyPatch.context() as patch:
            blocks = self.kernel_blocks(net, sample_quadruples(1000, 1.8, 5), 8192, patch)
        assert np.concatenate(blocks).tobytes() == oracles.reference_valid_rows(1000, 251189, 5).tobytes()

    def test_the_draw_keeps_its_spare_rows_in_the_block_storage(self):
        # consuming the blocks of m = 251,189 peaked at 1,020,206 bytes while the draw went by
        # redraw rounds (numpy 2.4.6), which sets the bound, and peaks at 0.81 MB overdrawn:
        # the block storage, one fresh call and that call's valid rows, 0.26 MB each; spare
        # rows kept in an array of their own would add one more
        def consume(sample):
            for _ in estimators._draw(sample.n, sample.m, sample.seed):
                pass

        consume(sample_quadruples(50, 1.5, 1))  # numpy's lazy imports are not the draw's
        assert traced_peak(consume, sample_quadruples(1000, 1.8, 3)) <= 1.03e6

    @pytest.mark.parametrize("block", [7, 8192])
    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(4, 60), exponent=st.floats(1.0, 2.0, exclude_max=True),
           seed=st.integers(0, 2**32 - 1))
    def test_drawn_samples_reduce_alike_and_near_the_stacked_moments(self, block, n, exponent,
                                                                     seed):
        # at n = 4 most rows collide, so most of the stream is skipped
        net = make_random_net(n, seed % 1000)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(estimators, "KERNEL_BLOCK", block)
            drawn = sample_quadruples(n, exponent, seed)
            streamed = reduced_estimate(net, drawn)
            assert repr(reduced_estimate(net, drawn)) == repr(streamed)  # the draw replayed
        assert_near_the_stacked_moments(streamed, net, oracles.reference_valid_rows(n, drawn.m, seed))


class TestReducedEstimate:
    def test_constant_network(self):
        net = constant_net(8, 2.0)
        sample = sample_quadruples(8, 1.2, seed=0)
        moment = reduced_estimate(net, sample)[EffectKind.SAME_SENDER]
        assert moment.eta_hat == pytest.approx(0.0, abs=1e-12)
        assert moment.sigma_hat == pytest.approx(0.0, abs=1e-12)

    def test_close_to_complete_on_moderate_network(self):
        # subsampled estimate should land near the complete one
        net = make_random_net(50, seed=3)
        sample = sample_quadruples(50, 1.6, seed=11)
        for effect in ALL_EFFECTS:
            moment = reduced_estimate(net, sample)[effect]
            se = moment.sigma_hat / np.sqrt(moment.m)
            complete = complete_estimate(net, effect).value
            assert abs(moment.eta_hat - complete) < 5 * se

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(5, 60), exponent=st.floats(1.0, 2.0, exclude_max=True),
           seed=st.integers(0, 2**32 - 1))
    def test_one_block_has_the_bits_of_numpy_on_the_tuples(self, n, exponent, seed):
        # m <= 60**2 fits one KERNEL_BLOCK; the sample's rows are the first m valid rows
        # of the seed's stream, in the order they reduce
        net = make_random_net(n, seed % 1000)
        sample = sample_quadruples(n, exponent, seed)
        moments = reduced_estimate(net, sample)
        rows = oracles.reference_valid_rows(n, sample.m, seed)
        for effect, values in zip(EffectKind, quadruple_kernel_values(net, rows)):
            assert moments[effect].eta_hat.hex() == float(np.mean(values)).hex(), effect
            assert moments[effect].sigma_hat.hex() == float(np.std(values)).hex(), effect

    @pytest.mark.parametrize("n, exponent", [(24, 1.18359375), (60, 1.5), (300, 1.5)])
    @pytest.mark.parametrize("block", [1, 7, 8, 8192])
    def test_any_block_size_keeps_the_moments_within_tolerance(self, n, exponent, block,
                                                               monkeypatch):
        # m = 43 = 6 * 7 + 1 at n = 24: blocks of 7 leave the last quadruple alone in its block
        net = make_random_net(n, seed=n)
        calls = []
        kernel = estimators.quadruple_kernel_values

        def counted(net, quads):
            calls.append(len(quads))
            return kernel(net, quads)

        monkeypatch.setattr(estimators, "KERNEL_BLOCK", block)
        monkeypatch.setattr(estimators, "quadruple_kernel_values", counted)
        sample = sample_quadruples(n, exponent, seed=2)
        rows = oracles.reference_valid_rows(n, sample.m, 2)
        assert_near_the_stacked_moments(reduced_estimate(net, sample), net, rows)
        assert len(calls) == -(-sample.m // block) and sum(calls) == sample.m
        assert max(calls) == min(block, sample.m)

    @pytest.mark.parametrize("block", [7, 8192])
    def test_a_given_block_size_keeps_every_bit(self, block, monkeypatch):
        monkeypatch.setattr(estimators, "KERNEL_BLOCK", block)
        net = make_random_net(300, seed=3)
        drawn = sample_quadruples(300, 1.5, seed=2)

        def reduced(sample):  # twice, and on a copy, a deep copy and a pickled round trip
            twins = [sample, sample, copy.copy(sample), copy.deepcopy(sample),
                     pickle.loads(pickle.dumps(sample))]
            return {repr(reduced_estimate(net, twin)) for twin in twins}

        before = reduced(drawn)
        assert len(before) == 1 and reduced(drawn) == before

    def test_one_block_of_temporaries(self):
        # at m = 251,189 the (4, m) kernel values took 8 MB, a peak of 11.2 MB;
        # one gather of every quadruple at once peaked at 88 MB
        net = make_random_net(1000, seed=1)
        sample = sample_quadruples(1000, 1.8, seed=3)
        assert traced_peak(reduced_estimate, net, sample) < 5e6

    def test_one_block_of_kernel_scratch_is_alive_at_a_time(self):
        # the kernel's 1.6 MB scratch is freed before the next block is drawn; a buffer
        # that reduced_estimate held across the draw peaked at 2.376 MB
        net = make_random_net(1000, seed=1)
        assert traced_peak(reduced_estimate, net, sample_quadruples(1000, 1.8, seed=3)) < 2.3e6

    def test_peak_does_not_grow_with_m(self):
        # holding the (4, m) kernel values, m = 10**6 peaked at 34.8 MB
        net = make_random_net(60, seed=4)
        small, large = QuadrupleSample(60, 10**4, 1), QuadrupleSample(60, 10**6, 1)
        assert abs(traced_peak(reduced_estimate, net, large)
                   - traced_peak(reduced_estimate, net, small)) < 0.5e6

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_an_infinite_spread_stays_infinite_across_blocks(self, monkeypatch):
        # at 1e80 the kernel values are finite and their squared deviations overflow;
        # merging the first block into zero moments would take inf * 0 = nan
        monkeypatch.setattr(estimators, "KERNEL_BLOCK", 7)
        w = make_random_net(60, seed=0).weights * 1e80
        moments = reduced_estimate(DirectedWeightedNetwork(w), sample_quadruples(60, 1.2, 0))
        for moment in moments.values():
            assert math.isfinite(moment.eta_hat) and moment.sigma_hat == math.inf

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(5, 80), seed=st.integers(0, 2**32 - 1),
           exponent=st.sampled_from([1.0, 1.5, 1.9]))
    def test_a_shift_of_every_weight_keeps_every_bit(self, n, seed, exponent):
        # on a 2^-10 grid every shifted weight and every within-quad difference is
        # exact, and each quad is shifted by one of its own weights
        rng = np.random.default_rng(seed)
        w = np.round(rng.normal(size=(n, n)) * 1024.0) / 1024.0
        np.fill_diagonal(w, 0.0)
        sample = sample_quadruples(n, exponent, seed)
        expected = repr(reduced_estimate(DirectedWeightedNetwork(w), sample))
        for shift in (2.0**20, 2.0**23, 2.0**26, 1e8):
            shifted = w + shift
            np.fill_diagonal(shifted, 0.0)
            assert repr(reduced_estimate(DirectedWeightedNetwork(shifted), sample)) == expected, shift

    @pytest.mark.parametrize("n, seed", [(7, 0), (60, 1)])
    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
    @pytest.mark.parametrize("offset", [0.0, 1e3])
    def test_relabelling_network_and_quadruples_together_keeps_every_bit(self, n, seed, scale,
                                                                         offset):
        w = make_random_net(n, seed).weights * scale + offset
        np.fill_diagonal(w, 0.0)
        quads = oracles.reference_valid_rows(n, round(n**1.5), seed)
        p = np.random.default_rng(seed + 10).permutation(n)
        relabelled = np.empty_like(w)
        relabelled[np.ix_(p, p)] = w  # node i is node p[i]
        moved = quadruple_kernel_values(DirectedWeightedNetwork(relabelled), p[quads])
        kept = quadruple_kernel_values(DirectedWeightedNetwork(w), quads)
        assert moved.tobytes() == kept.tobytes()

    @pytest.mark.parametrize("n, seed", [(7, 2), (60, 3)])
    @pytest.mark.parametrize("exponent", [-100, -10, 0, 10, 100])
    def test_transposing_the_network_swaps_the_sender_and_receiver_effects(self, n, seed,
                                                                           exponent):
        # zero-mean weights only: an offset brings in ROADMAP item 3's cancellation
        net = make_random_net(n, seed)
        w = net.weights * 2.0**exponent
        sample = sample_quadruples(n, 1.5, seed)
        mu2 = mean_edge(DirectedWeightedNetwork(w)) ** 2
        plain = reduced_estimate(DirectedWeightedNetwork(w), sample)
        flipped = reduced_estimate(DirectedWeightedNetwork(w.T.copy()), sample)
        swap = {EffectKind.SAME_SENDER: EffectKind.SAME_RECEIVER,
                EffectKind.SAME_RECEIVER: EffectKind.SAME_SENDER}
        for effect in EffectKind:
            got, want = flipped[swap.get(effect, effect)], plain[effect]
            for a, b in ((got.eta_hat, want.eta_hat), (got.sigma_hat, want.sigma_hat)):
                assert abs(a - b) <= 1e-12 * max(abs(b), mu2)

    def test_sample_network_size_mismatch(self):
        net = make_random_net(6, seed=0)
        sample = sample_quadruples(8, 1.0, seed=0)
        with pytest.raises(ValueError):
            reduced_estimate(net, sample)[EffectKind.RECIPROCITY]


class TestNodeProjection:
    def test_reciprocity_hand_value(self, worked_net):
        # pair products (1,2)=3, (1,3)=10, (2,3)=24, so node 1's centred
        # reciprocal mean is 6.5 - 37/3; mean edge 3.5, node 1's centred pair mean -0.75
        g = node_projection(worked_net, EffectKind.RECIPROCITY)
        assert g[0] == pytest.approx(2 * (6.5 - 37.0 / 3.0) - 4 * 3.5 * (-0.75))

    @pytest.mark.parametrize("effect", DIAGNOSABLE)
    def test_constant_network_projects_to_zero_vector(self, effect):
        g = node_projection(constant_net(6, 1.5), effect)
        np.testing.assert_allclose(g, 0.0, atol=1e-12)

    @pytest.mark.parametrize("effect", DIAGNOSABLE)
    @pytest.mark.parametrize("seed", range(3))
    def test_sums_to_zero(self, effect, seed):
        net = make_random_net(12, seed)
        g = node_projection(net, effect)
        scale = np.abs(net.weights).max() ** 2 + 1.0
        assert abs(g.sum()) <= 12 * 1e-12 * scale

    # Each effect's kernel on one k-subset of the centred weights d: reciprocity's
    # d[i,j] d[j,i], and the mean of d[a,b] d[b,c] over the subset's six orderings.
    CENTRED_KERNELS = {
        EffectKind.RECIPROCITY: lambda d, q: d[q[0], q[1]] * d[q[1], q[0]],
        EffectKind.SENDER_RECEIVER: lambda d, q: sum(
            d[a, b] * d[b, c] for a, b, c in itertools.permutations(q)) / 6.0,
    }

    @pytest.mark.parametrize("effect", DIAGNOSABLE)
    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
    def test_k_times_subset_sum_of_the_centred_kernel_less_its_mean(self, effect, n):
        # g_i = k (S_i / C(n-1, k-1) - U) with S_i the centred kernel summed over the
        # k-subsets holding i, by enumeration; eta5 less its one offset term
        net = DirectedWeightedNetwork(make_random_net(n, seed=40 + n).weights + 2.5 * (1 - np.eye(n)))
        d = net.weights - mean_edge(net)
        np.fill_diagonal(d, 0.0)
        k = effect.arity
        values = {q: self.CENTRED_KERNELS[effect](d, q) for q in itertools.combinations(range(n), k)}
        u = sum(values.values()) / math.comb(n, k)
        s = np.array([sum(v for q, v in values.items() if i in q) for i in range(n)])
        g = node_projection(net, effect)
        if effect is EffectKind.SENDER_RECEIVER:
            g = g + two_path_offset_term(net)
        np.testing.assert_allclose(g, k * (s / math.comb(n - 1, k - 1) - u), rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("effect", DIAGNOSABLE)
    @pytest.mark.parametrize("n", [5, 6, 7, 8, 9])
    def test_matches_per_node_enumeration(self, effect, n):
        net = make_random_net(n, seed=n)
        np.testing.assert_allclose(
            node_projection(net, effect),
            oracles.naive_projection(net.weights, effect.value),
            rtol=1e-10, atol=1e-12,
        )

    # Past one tile of the node-sum pass (n > 256), against whole-matrix sums over
    # ordered tuples; setting a's mean edge is about 2, setting c's about 0
    @pytest.mark.parametrize("setting", ["a", "c"])
    @pytest.mark.parametrize("n", [257, 300, 600])
    def test_matches_the_dense_oracle_beyond_one_tile(self, setting, n):
        net = generate(setting, "normal", n, 0.0, True, seed=n)
        for effect in DIAGNOSABLE:
            expected = oracles.dense_projection(net.weights, effect)
            np.testing.assert_allclose(node_projection(net, effect), expected,
                                       rtol=0, atol=1e-12 * np.abs(expected).max())

    # Offsets stay out: a shift moves eta5's projection through its one term in
    # the mean edge, 4 mu pair / (n - 2) (ROADMAP item 3).  Without that term the
    # projections are shift-invariant, as test_inference.TestShiftInvariance checks.
    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(4, 60), magnitude=st.integers(-300, 300), power=st.integers(-100, 100),
           seed=st.integers(0, 2**32 - 1))
    def test_relabel_equivariant_transpose_invariant_and_scale_exact(self, n, magnitude,
                                                                       power, seed):
        rng = np.random.default_rng(seed)
        w = rng.normal(size=(n, n))
        np.fill_diagonal(w, 0.0)
        w -= w.sum() / (n * (n - 1))
        np.fill_diagonal(w, 0.0)
        w *= 2.0**magnitude  # zero-mean weights of any magnitude
        perm = rng.permutation(n)
        s = 2.0**power
        for effect in DIAGNOSABLE:
            g = node_projection(DirectedWeightedNetwork(w), effect)
            tol = 1e-12 * np.abs(g).max()
            relabeled = node_projection(DirectedWeightedNetwork(w[np.ix_(perm, perm)]), effect)
            np.testing.assert_allclose(relabeled, g[perm], rtol=0, atol=tol)
            transposed = node_projection(DirectedWeightedNetwork(w.T), effect)
            np.testing.assert_allclose(transposed, g, rtol=0, atol=tol)
            scaled = node_projection(DirectedWeightedNetwork(s * w), effect)
            assert np.array_equal(scaled, s * s * g)


class TestProjectionVariance:
    def test_constant_network_is_zero(self):
        net = constant_net(7, 2.0)
        assert projection_variance(net, EffectKind.RECIPROCITY) == 0.0
        assert projection_variance(net, EffectKind.SENDER_RECEIVER) == 0.0

    def test_nonnegative(self):
        net = make_random_net(15, seed=2)
        assert projection_variance(net, EffectKind.RECIPROCITY) >= 0.0
        assert projection_variance(net, EffectKind.SENDER_RECEIVER) >= 0.0

    @pytest.mark.parametrize("effect", [EffectKind.SAME_SENDER, EffectKind.SAME_RECEIVER])
    def test_unsupported_effects(self, effect):
        with pytest.raises(UnsupportedEffectError):
            projection_variance(make_random_net(6, seed=0), effect)
        with pytest.raises(UnsupportedEffectError):
            node_projection(make_random_net(6, seed=0), effect)

    @pytest.mark.parametrize("effect", [EffectKind.RECIPROCITY, EffectKind.SENDER_RECEIVER])
    def test_relabeling_invariance(self, effect):
        net = make_random_net(9, seed=77)
        perm = np.random.default_rng(1).permutation(9)
        relabeled = DirectedWeightedNetwork(net.weights[np.ix_(perm, perm)])
        assert projection_variance(relabeled, effect) == pytest.approx(
            projection_variance(net, effect), rel=1e-12
        )

    def test_definition_from_centered_means(self):
        # the estimator is the mean square of the per-node projection
        net = make_random_net(10, seed=6)
        for effect in DIAGNOSABLE:
            g = node_projection(net, effect)
            assert projection_variance(net, effect) == float(np.mean(g * g))

    @pytest.mark.parametrize("effect", [EffectKind.RECIPROCITY, EffectKind.SENDER_RECEIVER])
    @pytest.mark.parametrize("n", [5, 7, 9])
    def test_matches_independent_enumeration(self, effect, n):
        net = make_random_net(n, seed=n * 13 + 1)
        assert projection_variance(net, effect) == pytest.approx(
            oracles.naive_projection_variance(net.weights, effect.value),
            rel=1e-10, abs=1e-12,
        )


class TestEffectNames:
    """Every public estimator takes an effect as test_effect does: a member or any name
    EffectKind.parse accepts."""

    @pytest.mark.parametrize("effect", ALL_EFFECTS)
    def test_a_member_and_its_names_give_the_same_bits(self, effect):
        net = make_random_net(300, seed=9)  # the node-sum pass in two tiles a side
        names = (effect, effect.value, effect.short_name)
        estimates = [complete_estimate(net, name) for name in names]
        assert all(e.effect is effect for e in estimates)
        assert len({e.value.hex() for e in estimates}) == 1
        motifs = [net.summaries.motif(name).tobytes() for name in names]
        assert len(set(motifs)) == 1
        if not effect.diagnosable:
            for name in names:
                with pytest.raises(UnsupportedEffectError):
                    node_projection(net, name)
            return
        assert len({node_projection(net, name).tobytes() for name in names}) == 1
        assert len({projection_variance(net, name).hex() for name in names}) == 1

    @pytest.mark.parametrize("call", [complete_estimate, node_projection, projection_variance,
                                      lambda net, name: net.summaries.motif(name)])
    def test_an_unknown_name_raises_value_error(self, call):
        with pytest.raises(ValueError, match="^unknown effect 'eta6'"):
            call(make_random_net(6, seed=0), "eta6")
