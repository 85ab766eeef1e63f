import copy
import csv
import dataclasses
import itertools
import pickle
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from neteffects import network
from neteffects import (
    DirectedWeightedNetwork,
    DuplicateEdgeError,
    EffectKind,
    NodeSummaries,
    NonFiniteWeightError,
    SelfLoopError,
    TooFewNodesError,
    complete_estimate,
    from_edge_list,
    mean_edge,
    read_edge_list,
)
from . import oracles
from .conftest import constant_net, make_random_net, traced_peak


class TestDirectedWeightedNetwork:
    def test_rejects_nonzero_diagonal(self):
        w = np.ones((3, 3))
        with pytest.raises(SelfLoopError):
            DirectedWeightedNetwork(w)

    def test_rejects_nan_and_inf(self):
        w = np.zeros((3, 3))
        w[0, 1] = np.nan
        with pytest.raises(NonFiniteWeightError):
            DirectedWeightedNetwork(w)
        w[0, 1] = np.inf
        with pytest.raises(NonFiniteWeightError):
            DirectedWeightedNetwork(w)

    @pytest.mark.parametrize("pair", [(np.nan, 0.0), (np.inf, 0.0), (-np.inf, 0.0), (np.inf, -np.inf)])
    def test_non_finite_entries_raise_one_error(self, pair):
        w = np.zeros((3, 3))
        w[0, 1], w[1, 0] = pair
        with pytest.raises(NonFiniteWeightError, match="^weight matrix contains NaN or infinite entries$"):
            DirectedWeightedNetwork(w)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_finite_weights_whose_sum_overflows_build(self):
        w = np.zeros((3, 3))
        w[0, 1] = w[1, 0] = 1e308
        assert DirectedWeightedNetwork(w).weight_sum == np.inf

    def test_construction_holds_only_the_copy(self):
        w = make_random_net(1000, seed=4).weights  # the copy is 8 MB
        assert traced_peak(DirectedWeightedNetwork, w) < 8.5e6

    def test_rejects_tiny_and_nonsquare(self):
        with pytest.raises(TooFewNodesError):
            DirectedWeightedNetwork(np.zeros((1, 1)))
        with pytest.raises(ValueError):
            DirectedWeightedNetwork(np.zeros((3, 4)))

    def test_labels_are_a_tuple_of_distinct_names(self):
        net = DirectedWeightedNetwork(np.zeros((3, 3)), labels=["a", "b", "c"])
        assert net.labels == ("a", "b", "c") and isinstance(net.labels, tuple)
        for labels in (["a"] * 3, ["a", "b", "a"], ["a", "b"], ["a", "b", "c", "d"]):
            with pytest.raises(ValueError, match="^need 3 distinct labels"):
                DirectedWeightedNetwork(np.zeros((3, 3)), labels=labels)

    def test_weights_are_frozen(self):
        net = constant_net(4)
        with pytest.raises(ValueError):
            net.weights[0, 1] = 9.0

    @pytest.mark.parametrize("copier", [copy.copy, copy.deepcopy,
                                        lambda net: pickle.loads(pickle.dumps(net))])
    def test_copies_stay_frozen(self, copier):
        labels = [f"v{i:03}" for i in range(300)]
        net = DirectedWeightedNetwork(make_random_net(300, seed=4).weights, labels=labels)
        clone = copier(net)
        assert clone is not net and clone.labels == net.labels and clone.weight_sum == net.weight_sum
        assert np.array_equal(clone.weights, net.weights)
        for f in dataclasses.fields(NodeSummaries):
            values = getattr(clone.summaries, f.name)
            assert np.array_equal(values, getattr(net.summaries, f.name)), f.name
            with pytest.raises(ValueError):
                values[:] = 5.0
        with pytest.raises(ValueError):
            clone.weights[0, 1] = 100.0

    @pytest.mark.parametrize("n", [50, 1025])  # the pass in one tile and in several
    def test_node_sums_are_frozen(self, n):
        net = make_random_net(n, seed=2)
        estimate = complete_estimate(net, EffectKind.SAME_SENDER)
        for f in dataclasses.fields(NodeSummaries):
            with pytest.raises(ValueError):
                getattr(net.summaries, f.name)[:] = 5.0
        assert complete_estimate(net, EffectKind.SAME_SENDER) == estimate


class TestFromEdgeList:
    def test_direct_construction(self):
        net = from_edge_list([("a", "b", 1.0), ("b", "a", 2.0)])
        assert net.n == 2
        assert net.labels == ("a", "b")
        assert net.weights[0, 1] == 1.0
        assert net.weights[1, 0] == 2.0

    def test_duplicate_edge_is_error(self):
        with pytest.raises(DuplicateEdgeError):
            from_edge_list([("a", "b", 1.0), ("a", "b", 2.0)])

    def test_self_loop_is_error(self):
        with pytest.raises(SelfLoopError):
            from_edge_list([("a", "a", 1.0)])

    def test_non_finite_weight_is_error(self):
        with pytest.raises(NonFiniteWeightError):
            from_edge_list([("a", "b", float("nan"))])

    @pytest.mark.parametrize("records", [
        [("a", "a", 1), ("a", "b", "x")],
        [("a", "b", "1"), ("b", "a", "")],
    ])
    def test_unparseable_weight_raises_as_in_a_csv(self, records, tmp_path):
        path = tmp_path / "edges.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows([("source", "target", "weight"), *records])
        message = f"cannot parse weight {records[-1][2]!r}"
        with pytest.raises(NonFiniteWeightError, match=f"^{re.escape(f'{path}:3: {message}')}$"):
            read_edge_list(path)
        with pytest.raises(NonFiniteWeightError, match=f"^{re.escape(message)}$"):
            from_edge_list(records)

    def test_record_shape_is_checked_as_it_is_read(self, tmp_path):
        path = tmp_path / "edges.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows([("source", "target", "weight"), ("a", "b", "x"), ("a", "b")])
        with pytest.raises(NonFiniteWeightError, match=f"^{re.escape(f'{path}:2: ')}cannot parse weight 'x'$"):
            read_edge_list(path)
        with pytest.raises(NonFiniteWeightError, match="^cannot parse weight 'x'$"):
            from_edge_list([("a", "b", "x"), ("a", "b")])
        with pytest.raises(TypeError, match="triple"):
            from_edge_list([("a", "b"), ("a", "b", "x")])

    @pytest.mark.parametrize("record", ["ab1", b"ab1"], ids=["str", "bytes"])
    def test_a_string_record_is_not_split_into_a_triple(self, record):
        # tuple("ab1") is a triple: a 2-node network with weights 1 and 2 was built
        with pytest.raises(TypeError, match="triple"):
            from_edge_list([record, "ba2"])
        # at its own place in record order: an earlier bad weight raises first
        with pytest.raises(NonFiniteWeightError, match="^cannot parse weight 'x'$"):
            from_edge_list([("a", "b", "x"), record])
        with pytest.raises(TypeError, match="triple"):
            from_edge_list([("a", "b", 1.0), record, ("a", "b", "x")])

    def test_weight_of_another_type_is_unparseable(self):
        with pytest.raises(NonFiniteWeightError, match="^cannot parse weight None$"):
            from_edge_list([("a", "b", None)])

    def test_zero_fill_with_universe(self):
        net = from_edge_list([("a", "b", 1.0)], node_universe={"a", "b", "c"})
        assert net.n == 3
        assert net.weights.sum() == 1.0

    def test_label_order_independent_of_record_order(self):
        recs = [("b", "a", 2.0), ("a", "c", 1.0)]
        net1 = from_edge_list(recs)
        net2 = from_edge_list(list(reversed(recs)))
        assert net1.labels == net2.labels == ("a", "b", "c")
        assert np.array_equal(net1.weights, net2.weights)

    def test_round_trip(self):
        recs = [("x", "y", 1.5), ("y", "z", -2.0), ("z", "x", 0.25)]
        net = from_edge_list(recs)
        back = [(net.labels[i], net.labels[j], float(net.weights[i, j]))
                for i, j in zip(*np.nonzero(net.weights))]
        assert sorted(back) == sorted(recs)

    def test_empty_input_is_error(self):
        with pytest.raises(ValueError):
            from_edge_list([])


class TestReadEdgeList(object):
    def test_reads_csv(self, tmp_path):
        path = tmp_path / "net.csv"
        path.write_text("source,target,weight\na,b,1.0\nb,a,2.5\n", encoding="utf-8")
        net = read_edge_list(path)
        assert net.weights[0, 1] == 1.0
        assert net.weights[1, 0] == 2.5

    def test_bad_header(self, tmp_path):
        path = tmp_path / "net.csv"
        path.write_text("from,to,w\na,b,1.0\n", encoding="utf-8")
        with pytest.raises(ValueError):
            read_edge_list(path)

    def test_bad_weight(self, tmp_path):
        path = tmp_path / "net.csv"
        path.write_text("source,target,weight\na,b,abc\n", encoding="utf-8")
        with pytest.raises(NonFiniteWeightError):
            read_edge_list(path)

    def test_byte_order_mark_is_ignored(self, tmp_path):
        path = tmp_path / "net.csv"
        path.write_text("\ufeffsource,target,weight\na,b,1.0\nb,a,2.5\n", encoding="utf-8")
        net = read_edge_list(path)
        assert net.labels == ("a", "b")
        assert net.weights[0, 1] == 1.0
        assert net.weights[1, 0] == 2.5

    @pytest.mark.parametrize("rows, error, line, message", [
        (["a,b,1", "b,a,2", "c,c,3"], SelfLoopError, 4, "self-loop record 'c' -> 'c'"),
        (["a,b,1", "b,a,nan"], NonFiniteWeightError, 3, "non-finite weight on 'b' -> 'a'"),
        (["a,b,1", "b,a,2", " a , b ,3"], DuplicateEdgeError, 4, "duplicate edge 'a' -> 'b'"),
        # the first offending record wins, whatever its kind
        (["a,b,1", "a,b,2", "c,c,3"], DuplicateEdgeError, 3, "duplicate edge 'a' -> 'b'"),
        (["a,b,1", "c,c,3", "a,b,2"], SelfLoopError, 3, "self-loop record 'c' -> 'c'"),
        (["a,b,inf", "a,b,2"], NonFiniteWeightError, 2, "non-finite weight on 'a' -> 'b'"),
        # within one record: self-loop before weight before duplicate
        (["a,b,1", "a,a,inf"], SelfLoopError, 3, "self-loop record 'a' -> 'a'"),
        (["a,b,1", "a,b,-inf"], NonFiniteWeightError, 3, "non-finite weight on 'a' -> 'b'"),
        # a quoted label may span lines: a record is named by its first line
        (['"a\nb",c,1', "c,c,2"], SelfLoopError, 4, "self-loop record 'c' -> 'c'"),
        (["a,b,1", '"x\n\ny",b,nan', "b,a,1"], NonFiniteWeightError, 3,
         "non-finite weight on 'x\\n\\ny' -> 'b'"),
        (['"a\nb",c,1', "c,d"], ValueError, 4, "expected 3 columns, got 2"),
        (['"a\nb",c,1', 'c,"d\n",x'], NonFiniteWeightError, 4, "cannot parse weight 'x'"),
        # blank rows are no records, but they are lines
        (["a,b,1", "   ", ",,", "\t, ,", "c,c,3"], SelfLoopError, 6, "self-loop record 'c' -> 'c'"),
        ([" ", ",,", "a,b"], ValueError, 4, "expected 3 columns, got 2"),
        ([",,", "\t", "a,b,x"], NonFiniteWeightError, 4, "cannot parse weight 'x'"),
        (["a,b,1", ",,", " , ,", "a,b,2"], DuplicateEdgeError, 5, "duplicate edge 'a' -> 'b'"),
        # CRLF records, one of them blank
        (["a,b,1\r", "\r", "b,a,nan\r"], NonFiniteWeightError, 4, "non-finite weight on 'b' -> 'a'"),
        # the first listing of the pair spans two lines
        (['"x\ny",b,1', "a,b,2", '"x\ny",b,3'], DuplicateEdgeError, 5, "duplicate edge 'x\\ny' -> 'b'"),
    ])
    def test_record_errors_name_their_line(self, tmp_path, rows, error, line, message):
        path = tmp_path / "net.csv"
        path.write_text("source,target,weight\n" + "\n".join(rows) + "\n", encoding="utf-8")
        with pytest.raises(error) as info:
            read_edge_list(path)
        assert str(info.value) == f"{path}:{line}: {message}"

    @pytest.mark.parametrize("text, error, line, message", [
        ("\ufeffsource,target,weight\na,a,1\n", SelfLoopError, 2, "self-loop record 'a' -> 'a'"),
        ("\ufeffsource,target,weight\r\na,b,x\r\n", NonFiniteWeightError, 2, "cannot parse weight 'x'"),
        ('source,target,weight\r\na,b,1\r\n\r\n,,\r\n"x\r\ny",b,2\r\na,b,3\r\n', DuplicateEdgeError, 7,
         "duplicate edge 'a' -> 'b'"),
        ("source,target,weight\ra,b,1\ra,b,2\r", DuplicateEdgeError, 3, "duplicate edge 'a' -> 'b'"),
    ])
    def test_record_errors_name_their_line_whatever_the_line_ends(self, tmp_path, text, error, line, message):
        path = tmp_path / "net.csv"
        path.write_bytes(text.encode("utf-8"))
        with pytest.raises(error) as info:
            read_edge_list(path)
        assert str(info.value) == f"{path}:{line}: {message}"

    def test_peak_memory_is_under_three_matrices(self, tmp_path):
        """The lists of a 20%-dense file are gone before the matrix is allocated,
        so reading holds little more than the matrix and the network's copy of it."""
        n, rng = 300, np.random.default_rng(5)
        labels = [f"u{int(v):012x}" for v in rng.choice(16**12, size=n, replace=False)]
        listed = rng.random((n, n)) < 0.2
        listed[np.arange(n), (np.arange(n) + 1) % n] = True  # every node appears
        np.fill_diagonal(listed, False)
        src, dst = np.nonzero(listed)
        weights = np.round(rng.lognormal(0.0, 1.0, src.size), 4)
        path = tmp_path / "net.csv"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("source,target,weight\n")
            fh.writelines(f"{labels[a]},{labels[b]},{x!r}\n" for a, b, x in zip(src, dst, weights.tolist()))
        assert read_edge_list(path).n == n
        assert traced_peak(read_edge_list, path) < 3 * n * n * 8


# Label spellings: surrounding whitespace, a comma (quoted by the CSV
# writer), a quote, digits (given to from_edge_list as int), the empty label.
# Weights are mostly finite, so that valid files are common.
LABELS = ["a", " a", "a ", "b", " c ", "d,e", 'f"g', "10", " 7", "", " "]
FINITE = ["1.5", "-2", "0", "-0.0", " 3 ", "1e-310", "0.25"]
BAD = ["nan", "inf", "-inf", "1e400", "abc", ""]
CELLS = LABELS + FINITE + BAD + ["x"]

edge_rows = st.tuples(
    st.sampled_from(LABELS), st.sampled_from(LABELS), st.sampled_from(FINITE * 6 + BAD),
    st.lists(st.sampled_from(CELLS), max_size=2),
).map(lambda t: [t[0], t[1], t[2], *t[3]])


@st.composite
def csv_rows(draw):
    """Edge rows with blank rows and at most one short row spliced in, so
    that most files get past the column count to the record checks."""
    rows = draw(st.lists(edge_rows, max_size=8))
    extra = draw(st.lists(st.sampled_from([[], [" "], ["", " ", "\t"]]), max_size=3))
    if draw(st.integers(0, 4)) == 3:
        extra.append(draw(st.sampled_from([["a", "b"], ["a"]])))
    for row in extra:
        rows.insert(draw(st.integers(0, len(rows))), row)
    return rows


def _outcome(build, *args):
    try:
        net = build(*args)
    except (ValueError, TypeError) as exc:
        return type(exc), str(exc)
    return net.labels, net.weights.tobytes()


def _assert_same_outcome(new, ref, path=None):
    """Equal labels and bit-equal weights, or equal errors.  An error of the
    reader may add a ``path:line: `` prefix that the reference lacks."""
    if path is not None and new != ref and isinstance(ref[0], type):
        located = re.escape(f"{path}:") + r"\d+: " + re.escape(ref[1])
        assert new[0] is ref[0] and re.fullmatch(located, new[1]), (new, ref)
    else:
        assert new == ref


def _as_record(row, ints, raw_weight):
    source, target, weight = row[:3]
    if ints:
        source, target = (int(x) if x.strip().isdigit() else x for x in (source, target))
    if not raw_weight:
        try:
            weight = float(weight)
        except ValueError:
            pass
    return source, target, weight


class TestIngestMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(
        header=st.sampled_from([["source", "target", "weight"], [" Source", "TARGET ", "weight", "x"]]),
        rows=csv_rows(),
        ints=st.booleans(),
        raw_weight=st.booleans(),
        universe=st.none() | st.lists(st.sampled_from(LABELS + [3, 10, "z"]), max_size=4),
        joined=st.booleans(),
    )
    # a 3-character string record, "ba0", is one value: tuple("ba0") was a triple
    @example(header=["source", "target", "weight"], rows=[["a", "b", "1.5"], ["b", "a", "0"]], ints=False,
             raw_weight=True, universe=None, joined=True)
    def test_read_edge_list_and_from_edge_list(self, tmp_path_factory, header, rows, ints, raw_weight, universe,
                                               joined):
        path = tmp_path_factory.mktemp("ingest") / "edges.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
        _assert_same_outcome(
            _outcome(read_edge_list, path), _outcome(oracles.reference_read_edge_list, path), path
        )

        records = [_as_record(r, ints, raw_weight) for r in rows if len(r) >= 3]
        if records:  # tuples and lists may be mixed, and a record may be a string
            records[0] = list(records[0])
            if joined:
                records[-1] = "".join(map(str, records[-1]))
        _assert_same_outcome(
            _outcome(from_edge_list, records, universe),
            _outcome(oracles.reference_from_edge_list, records, universe),
        )


class TestRowColSummaries:
    def test_worked_example(self, worked_net):
        s = NodeSummaries.of(worked_net.weights)
        assert np.array_equal(s.out_sum, [3.0, 7.0, 11.0])
        assert np.array_equal(s.in_sum, [8.0, 7.0, 6.0])
        # reciprocal-product sum at node 1: 1*3 + 2*5
        assert s.reciprocal_sum[0] == 13.0
        assert np.array_equal(s.out_sq_sum, [5.0, 25.0, 61.0])

    def test_worked_example_centred(self, worked_net):
        # mean_edge = 21 / 6 = 3.5; node 1's reciprocal sum is (-2.5)(-0.5) + (-1.5)(1.5)
        s = worked_net.summaries
        assert np.array_equal(s.out_sum, [-4.0, 0.0, 4.0])
        assert np.array_equal(s.in_sum, [1.0, 0.0, -1.0])
        assert np.array_equal(s.out_sq_sum, [8.5, 0.5, 8.5])
        assert np.array_equal(s.in_sq_sum, [2.5, 12.5, 2.5])
        assert np.array_equal(s.reciprocal_sum, [-1.0, 2.5, -1.0])

    def test_all_zero(self):
        s = DirectedWeightedNetwork(np.zeros((4, 4))).summaries
        for arr in (s.out_sum, s.in_sum, s.out_sq_sum, s.in_sq_sum, s.reciprocal_sum):
            assert np.all(arr == 0.0)

    def test_constant_network(self):
        n, c = 6, 3.0
        net = constant_net(n, c)
        s = NodeSummaries.of(net.weights)
        assert np.all(s.out_sum == c * (n - 1))
        assert np.all(s.in_sum == c * (n - 1))
        centred = net.summaries
        for f in dataclasses.fields(NodeSummaries):
            assert np.all(getattr(centred, f.name) == 0.0), f.name

    def test_mass_conservation(self):
        net = make_random_net(8, seed=1)
        s = NodeSummaries.of(net.weights)
        assert s.out_sum.sum() == pytest.approx(s.in_sum.sum(), rel=1e-14)
        assert s.out_sum.sum() == pytest.approx(net.weights.sum(), rel=1e-14)
        centred = net.summaries
        assert centred.out_sum.sum() == pytest.approx(0.0, abs=1e-14)
        assert centred.in_sum.sum() == pytest.approx(0.0, abs=1e-14)

    def test_matches_naive_recomputation_exactly(self):
        # integer weights make any summation order exact
        net = make_random_net(9, seed=5, integers=True)
        w = net.weights
        s = NodeSummaries.of(w)
        n = net.n
        for i in range(n):
            assert s.out_sum[i] == sum(w[i, j] for j in range(n))
            assert s.in_sum[i] == sum(w[j, i] for j in range(n))
            assert s.out_sq_sum[i] == sum(w[i, j] ** 2 for j in range(n))
            assert s.in_sq_sum[i] == sum(w[j, i] ** 2 for j in range(n))
            assert s.reciprocal_sum[i] == sum(w[i, j] * w[j, i] for j in range(n))

    def test_stack_matches_each_network(self):
        net = make_random_net(12, seed=3)
        quads = np.random.default_rng(4).permuted(np.tile(np.arange(12), (9, 1)), axis=1)[:, :4]
        stack = net.weights[quads[:, :, None], quads[:, None, :]]
        sums = NodeSummaries.of(stack)
        for k in range(len(stack)):
            one = NodeSummaries.of(DirectedWeightedNetwork(stack[k]).weights)
            for f in dataclasses.fields(NodeSummaries):
                assert np.array_equal(getattr(sums, f.name)[k], getattr(one, f.name)), f.name

    # One tile: the pass centres the whole matrix once
    @pytest.mark.parametrize("n", [3, 256])
    def test_pass_bit_identical_to_the_sums_of_a_centred_copy(self, n):
        assert n <= network.SUMMARY_TILE
        for net in _scaled_and_shifted(n):
            expected = _sums_of_the_centred_copy(net)
            for f in dataclasses.fields(NodeSummaries):
                assert np.array_equal(getattr(net.summaries, f.name), getattr(expected, f.name)), f.name

    # A one-column last tile (257), ragged tiles (571, 1025) and a one-node last tile
    # of a 9 x 9 grid (2049).  Integer weights with a zero total have mean 0, and every
    # partial sum is exact, so any summation order gives the same bits: a node sum
    # missing, doubled or read from the wrong tile or mirror would show.
    @pytest.mark.parametrize("n", [257, 571, 1025, 2049])
    def test_tiles_exact_on_integer_weights(self, n):
        assert network.SUMMARY_TILE == 256  # the sizes above follow its tiles
        w = make_random_net(n, seed=n, integers=True).weights.copy()
        w[0, 1] -= w.sum()
        net = DirectedWeightedNetwork(w)
        assert mean_edge(net) == 0.0
        expected = NodeSummaries.of(net.weights)
        for f in dataclasses.fields(NodeSummaries):
            assert np.array_equal(getattr(net.summaries, f.name), getattr(expected, f.name)), f.name

    @pytest.mark.parametrize("n", [257, 571, 1025, 2049])
    def test_tiles_match_the_sums_of_a_centred_copy(self, n):
        for net in _scaled_and_shifted(n):
            expected = _sums_of_the_centred_copy(net)
            for f in dataclasses.fields(NodeSummaries):
                got, want = getattr(net.summaries, f.name), getattr(expected, f.name)
                assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max(), f.name

    # n = 0, 1 and -1 mod 32; DirectedWeightedNetwork.summaries also passes a tile's
    # rows with its mirror's transpose, which the tests above check
    @pytest.mark.parametrize("n", [3, 32, 33, 65, 1025])
    def test_bit_identical_to_the_whole_array_reductions(self, n):
        base = make_random_net(n, seed=n).weights
        for scale in (1.0, 1e-3, 1e5):
            for offset in (0.0, 1e3, 1e8):
                w = base * scale + offset
                np.fill_diagonal(w, 0.0)
                sums = NodeSummaries.of(w)
                for f, expected in zip(dataclasses.fields(NodeSummaries),
                                       oracles.reference_node_summaries(w)):
                    assert np.array_equal(getattr(sums, f.name), expected), (f.name, scale, offset)

    @pytest.mark.parametrize("m", [1, 7, 32_768, 40_001])
    def test_stack_bit_identical_to_the_whole_array_reductions(self, m):
        stack = np.random.default_rng(m).normal(size=(m, 4, 4)) * 1e3 + 1e5
        # and the (m, 4, 4) view of a position-major (4, 4, m) array, whose last axis is strided
        position_major = np.ascontiguousarray(stack.transpose(1, 2, 0)).transpose(2, 0, 1)
        for view in (stack, position_major):
            sums = NodeSummaries.of(view)
            for f, expected in zip(dataclasses.fields(NodeSummaries),
                                   oracles.reference_node_summaries(view)):
                assert np.array_equal(getattr(sums, f.name), expected), (f.name, view.strides)

    def test_no_temporary_of_the_input_size(self):
        w = make_random_net(1000, seed=6).weights  # 8 MB
        assert traced_peak(NodeSummaries.of, w) < 1e6

    @pytest.mark.parametrize("effect", list(EffectKind))
    def test_motif_sums_match_enumeration(self, effect):
        net = make_random_net(7, seed=8)
        w = net.weights
        if effect is EffectKind.RECIPROCITY:
            expected = 2 * sum(oracles.recip(w, i, j) for i, j in itertools.combinations(range(7), 2))
        else:
            kernel = oracles.TRIPLE_KERNELS[effect.value]
            expected = 6 * sum(kernel(w, *t) for t in itertools.combinations(range(7), 3))
        assert NodeSummaries.of(w).motif(effect).sum() == pytest.approx(expected, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("effect", list(EffectKind))
    def test_centred_motif_sums_match_enumeration(self, effect):
        net = make_random_net(7, seed=8)
        d = net.weights - mean_edge(net)
        np.fill_diagonal(d, 0.0)
        if effect is EffectKind.RECIPROCITY:
            expected = 2 * sum(oracles.recip(d, i, j) for i, j in itertools.combinations(range(7), 2))
        else:
            kernel = oracles.TRIPLE_KERNELS[effect.value]
            expected = 6 * sum(kernel(d, *t) for t in itertools.combinations(range(7), 3))
        assert net.summaries.motif(effect).sum() == pytest.approx(expected, rel=1e-12, abs=1e-12)

    def test_mean_edge_keeps_the_bits_of_one_matrix_sum(self):
        for seed in range(5):
            net = make_random_net(30 + seed, seed=seed)
            n = net.n
            assert mean_edge(net) == float(net.weights.sum() / (n * (n - 1)))


class TestEffectKind:
    def test_parse_aliases(self):
        assert EffectKind.parse("eta2") is EffectKind.RECIPROCITY
        assert EffectKind.parse("eta3") is EffectKind.SAME_SENDER
        assert EffectKind.parse("eta4") is EffectKind.SAME_RECEIVER
        assert EffectKind.parse("eta5") is EffectKind.SENDER_RECEIVER
        assert EffectKind.parse("same_sender") is EffectKind.SAME_SENDER

    def test_parse_member(self):
        for effect in EffectKind:
            assert EffectKind.parse(effect) is effect

    def test_parse_unknown(self):
        with pytest.raises(ValueError):
            EffectKind.parse("eta7")

    @pytest.mark.parametrize("name", [3, None])
    def test_parse_other_types_as_unknown_names(self, name):
        with pytest.raises(ValueError, match="^unknown effect"):
            EffectKind.parse(name)

    def test_short_names_round_trip(self):
        for effect in EffectKind:
            assert EffectKind.parse(effect.short_name) is effect


def _scaled_and_shifted(n):
    """make_random_net(n, seed=n)'s weights at 3 scales and 3 offsets."""
    base = make_random_net(n, seed=n).weights
    for scale in (1.0, 1e-3, 1e5):
        for offset in (0.0, 1e3, 1e8):
            w = base * scale + offset
            np.fill_diagonal(w, 0.0)
            yield DirectedWeightedNetwork(w)


def _sums_of_the_centred_copy(net):
    d = net.weights - mean_edge(net)
    np.fill_diagonal(d, 0.0)
    return NodeSummaries.of(d)
