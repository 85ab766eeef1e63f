"""Network data model: dense weighted directed adjacency with zero diagonal.

The adjacency matrix is stored densely because the effect estimators
integrate over all ordered node pairs; a zero weight is data, not absence.
Networks are immutable after construction and safe to share across workers.
"""

from __future__ import annotations

import csv
import enum
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable

import numpy as np

from .errors import (
    DuplicateEdgeError,
    NonFiniteWeightError,
    SelfLoopError,
    TooFewNodesError,
)

__all__ = [
    "DirectedWeightedNetwork",
    "EffectKind",
    "NodeSummaries",
    "as_network",
    "from_edge_list",
    "mean_edge",
    "read_edge_list",
]


class EffectKind(enum.Enum):
    """Which pairwise edge covariance is under consideration.

    Each effect is the covariance of two edge weights sharing at least one
    endpoint (i, j, k distinct):

    * ``RECIPROCITY``     -- Cov(e[i,j], e[j,i]); a mutual dyad.
    * ``SAME_SENDER``     -- Cov(e[i,j], e[i,k]); two edges out of one node.
    * ``SAME_RECEIVER``   -- Cov(e[i,j], e[k,j]); two edges into one node.
    * ``SENDER_RECEIVER`` -- Cov(e[i,j], e[j,k]); a directed two-path.
    """

    RECIPROCITY = "reciprocity"
    SAME_SENDER = "same_sender"
    SAME_RECEIVER = "same_receiver"
    SENDER_RECEIVER = "sender_receiver"

    @classmethod
    def parse(cls, name: "str | EffectKind") -> "EffectKind":
        """Accept a member, canonical names or the CLI short forms eta2..eta5."""
        if isinstance(name, cls):
            return name
        try:
            return _BY_NAME[str(getattr(name, "value", name)).strip().lower()]
        except KeyError:
            valid = sorted(e.value for e in cls) + sorted(_SHORT_NAMES.values())
            raise ValueError(f"unknown effect {name!r}; expected one of {valid}") from None

    @property
    def short_name(self) -> str:
        """The compact eta2..eta5 form used in CLI output."""
        return _SHORT_NAMES[self]

    @property
    def arity(self) -> int:
        """Nodes in the effect's motif: 2 for reciprocity, 3 for the others.
        Every count that normalizes a kernel sum follows from it."""
        return 2 if self is EffectKind.RECIPROCITY else 3

    @property
    def diagnosable(self) -> bool:
        """Whether a degeneracy diagnostic exists.  Same-sender and
        same-receiver estimators are always degenerate under the null, so
        their tests always run on the subsampled branch."""
        return self in (EffectKind.RECIPROCITY, EffectKind.SENDER_RECEIVER)


# Outside the class body, where it would become a member.
_SHORT_NAMES = {
    EffectKind.RECIPROCITY: "eta2",
    EffectKind.SAME_SENDER: "eta3",
    EffectKind.SAME_RECEIVER: "eta4",
    EffectKind.SENDER_RECEIVER: "eta5",
}
# Every name EffectKind.parse accepts, in lower case: the values and the short forms.
_BY_NAME = {**{e.value: e for e in EffectKind}, **{short: e for e, short in _SHORT_NAMES.items()}}

# Edge of the node-sum pass's square tiles.  At n = 5000 on a 2-vCPU Xeon VM the
# pass took 124, 102 and 141 ms with tiles of 128, 256 and 512 nodes (best of 7).
SUMMARY_TILE = 256


@dataclass(frozen=True, eq=False)
class DirectedWeightedNetwork:
    """A dense weighted directed network on n >= 2 nodes.

    Parameters
    ----------
    weights : ndarray of shape (n, n)
        Entry (i, j) is the weight of the edge i -> j.  The diagonal must
        be exactly zero and every entry finite.
    labels : sequence of str, optional
        Bijection between node labels and row/column indices: n distinct
        labels, stored as a tuple.

    The weight matrix is copied, cast to float64, and frozen, so instances
    can be shared freely between threads or processes.
    """

    weights: np.ndarray
    labels: tuple[str, ...] | None = None
    weight_sum: float = field(init=False, repr=False)  # of all weights, taken at construction

    def __post_init__(self) -> None:
        given = np.asarray(self.weights)
        if given.ndim != 2 or given.shape[0] != given.shape[1]:
            raise ValueError(f"weights must be a square matrix, got shape {given.shape}")
        n = given.shape[0]
        if n < 2:
            raise TooFewNodesError(f"need at least 2 nodes, got {n}")
        w = np.empty((n, n))  # filled last rows first, so the sum below starts on rows still in cache
        for s in reversed(range(0, n, SUMMARY_TILE)):
            w[s:s + SUMMARY_TILE] = given[s:s + SUMMARY_TILE]
        # NaN or infinite entries make the sum non-finite, as can an overflow
        with np.errstate(over="ignore", invalid="ignore"):
            total = float(w.sum())
        if not math.isfinite(total) and not np.isfinite(w).all():
            raise NonFiniteWeightError("weight matrix contains NaN or infinite entries")
        if np.count_nonzero(w.diagonal()):
            raise SelfLoopError("diagonal entries must be exactly zero (no self-loops)")
        labels = None if self.labels is None else tuple(self.labels)
        if labels is not None and not len(labels) == len(set(labels)) == n:
            raise ValueError(f"need {n} distinct labels, got {len(labels)}, {len(set(labels))} distinct")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "weight_sum", total)

    def __reduce__(self):  # numpy copies and unpickles arrays writable: rebuild and freeze
        return DirectedWeightedNetwork, (self.weights, self.labels)

    @property
    def n(self) -> int:
        """Node count."""
        return self.weights.shape[0]

    @cached_property
    def summaries(self) -> "NodeSummaries":
        """The read-only node sums of d = w - mean_edge with a zero diagonal, from one read
        of w: each ``SUMMARY_TILE``-square tile (I, J), I <= J, and its mirror (J, I), transposed,
        are centred into two reused buffers, so that every sum reads two operands of one layout.
        They are then :meth:`NodeSummaries.recentred`; up to one tile, with
        ``NodeSummaries.of(d).recentred()``'s bits."""
        n, w, mu, size = self.n, self.weights, mean_edge(self), SUMMARY_TILE
        if n <= size:  # one tile, its own mirror
            d = np.subtract(w, mu)
            np.fill_diagonal(d, 0.0)
            sums = NodeSummaries.of(d)
        else:  # tile (I, J) holds out-weights of nodes I and in-weights of nodes J
            table, buffers = np.zeros((5, n)), np.empty((2, size, size))  # sums in field order
            spans = [(s, min(s + size, n)) for s in range(0, n, size)]
            for k, (s, e) in enumerate(spans):
                for u, v in spans[k:]:
                    tile = np.subtract(w[s:e, u:v], mu, out=buffers[0, :e - s, :v - u])
                    if u == s:
                        np.fill_diagonal(tile, 0.0)
                        table[:, s:e] += NodeSummaries.of(tile).arrays()
                        continue
                    mirror = np.subtract(w[u:v, s:e].T, mu, out=buffers[1, :e - s, :v - u])
                    table[:, s:e] += NodeSummaries.of(tile, mirror).arrays()
                    table[:, u:v] += NodeSummaries.of(mirror.T, tile.T).arrays()
            sums = NodeSummaries(*table)
        sums = sums.recentred()
        for values in sums.arrays():
            values.setflags(write=False)
        return sums

    def require_nodes(self, minimum: int, what: str = "this operation") -> None:
        if self.n < minimum:
            raise TooFewNodesError(f"{what} needs at least {minimum} nodes, got {self.n}")


def mean_edge(net: DirectedWeightedNetwork) -> float:
    """Average of all n(n-1) off-diagonal weights."""
    return net.weight_sum / (net.n * (net.n - 1))


def as_network(X) -> DirectedWeightedNetwork:
    """``X`` itself if it is a network, else ``DirectedWeightedNetwork(X)``."""
    return X if isinstance(X, DirectedWeightedNetwork) else DirectedWeightedNetwork(X)


def from_edge_list(
    records: Iterable[tuple],
    node_universe: Iterable[str] | None = None,
) -> DirectedWeightedNetwork:
    """Build a network from (source, target, weight) records.

    Node labels are collected from the records plus the optional
    ``node_universe`` and sorted lexicographically before indexing, so the
    result does not depend on record order.  Ordered pairs that are not
    listed get weight 0.  Duplicate ordered pairs and self-loops are
    errors rather than being silently merged or dropped: summing
    duplicates would invisibly change every downstream estimate.  As in
    :func:`read_edge_list`, a malformed record or weight raises as it is read;
    records are read one at a time and none is kept.  An error names a record
    by the labels the network stores, ``str(source)`` and ``str(target)``.  A ``str``
    or ``bytes`` ``node_universe`` is one value, not labels: a TypeError.

    Raises
    ------
    DuplicateEdgeError, SelfLoopError, NonFiniteWeightError, ValueError, TypeError
    """
    if isinstance(node_universe, (str, bytes)):
        raise TypeError(f"node_universe must be a collection of labels, not a {type(node_universe).__name__}")
    code: dict[str, int] = {}
    src, dst, wts = [], [], []
    for record in records:
        try:  # a string is one value, not a triple
            source, target, weight = (record,) if isinstance(record, (str, bytes)) else record
        except (TypeError, ValueError):
            raise TypeError("each record must be a (source, target, weight) triple") from None
        try:
            wts.append(float(weight))
        except (TypeError, ValueError):
            raise NonFiniteWeightError(f"cannot parse weight {weight!r}") from None
        src.append(code.setdefault(str(source), len(code)))
        dst.append(code.setdefault(str(target), len(code)))
    for u in () if node_universe is None else node_universe:  # `or ()` fails on an array
        code.setdefault(str(u), len(code))
    return _from_codes(code, src, dst, wts, lambda k: "")


def _from_codes(code, src, dst, wts, where) -> DirectedWeightedNetwork:
    """Validate edge columns and build the network they describe, emptying the lists.

    ``code`` maps each label to an integer code, in any order; record k is ``src[k] -> dst[k]``
    (codes) with weight ``wts[k]``.  The first bad record raises, as a self-loop, a non-finite
    weight or a repeated pair, in that order, named by the labels the network stores, after
    the location prefix ``where(k)``.
    """
    n = len(code)
    if n == 0:
        raise ValueError("no records and no node universe: cannot size the network")
    labels = sorted(code)
    rank = np.argsort([code[lab] for lab in labels])  # label order's inverse: code -> index
    pair = rank[np.array(src, dtype=np.intp)] * n + rank[np.array(dst, dtype=np.intp)]
    w = np.array(wts, dtype=np.float64)
    del src[:], dst[:], wts[:]  # frees their items before the matrix exists
    weights = np.zeros((n, n))
    # Record k writes k + 1 (exact below 2**53) to its cell: a self-loop makes the
    # diagonal nonzero, and a pair listed twice reads back another record's number.
    number = np.arange(1.0, pair.size + 1.0)
    np.put(weights, pair, number)
    if weights.diagonal().any() or not np.isfinite(w).all() or not np.array_equal(weights.take(pair), number):
        # A stable sort keeps each pair's records in record order: all but the first repeat.
        order = np.argsort(pair, kind="stable")
        repeat = np.zeros(pair.size, dtype=bool)
        repeat[order[1:][np.diff(pair[order]) == 0]] = True
        loop, bad = pair % (n + 1) == 0, ~np.isfinite(w)  # i * n + j with i == j
        k = int(np.flatnonzero(loop | bad | repeat)[0])
        i, j = divmod(int(pair[k]), n)
        edge = f"{labels[i]!r} -> {labels[j]!r}"
        if loop[k]:
            raise SelfLoopError(f"{where(k)}self-loop record {edge}")
        if bad[k]:
            raise NonFiniteWeightError(f"{where(k)}non-finite weight on {edge}")
        raise DuplicateEdgeError(f"{where(k)}duplicate edge {edge}")
    np.put(weights, pair, w)
    del pair, w, number  # before the network's copy of the matrix
    return DirectedWeightedNetwork(weights, labels=tuple(labels))


def _locate(path, k: int) -> str:
    """``f"{path}:{line}: "`` for record k, the (k + 1)-th non-blank row after the header,
    by a second read of the file: errors alone pay for it.  The record's labels are its
    stripped cells, as the network stores them."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        next(reader)
        read = reader.line_num
        for row in reader:  # a quoted field may span lines: a row starts on line read + 1
            if "".join(row).strip() and (k := k - 1) < 0:  # the (k + 1)-th non-blank row
                return f"{path}:{read + 1}: "
            read = reader.line_num
    raise ValueError(f"{path}: the file changed while it was read")


def read_edge_list(path) -> DirectedWeightedNetwork:
    """Read a UTF-8 CSV edge list with header ``source,target,weight``.

    A leading byte-order mark is ignored.  Errors name ``path:line``, the
    first physical line of the offending record.
    """
    code: dict[str, int] = {}
    src, dst, wts = [], [], []
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip().lower() for h in header[:3]] != ["source", "target", "weight"]:
            raise ValueError(f"{path}: expected CSV header 'source,target,weight'")
        for row in reader:
            if len(row) < 3 or not row[0].strip():  # else the row is not blank
                if not "".join(row).strip():
                    continue
                if len(row) < 3:
                    raise ValueError(f"{_locate(path, len(wts))}expected 3 columns, got {len(row)}")
            try:
                wts.append(float(row[2]))
            except ValueError:
                raise NonFiniteWeightError(
                    f"{_locate(path, len(wts))}cannot parse weight {row[2]!r}") from None
            src.append(code.setdefault(row[0].strip(), len(code)))
            dst.append(code.setdefault(row[1].strip(), len(code)))
    return _from_codes(code, src, dst, wts, lambda k: _locate(path, k))


@dataclass(frozen=True, eq=False)
class NodeSummaries:
    """Per-node accumulations that let the estimators run in O(n^2).

    For node i (sums over j != i):

    * ``out_sum[i]``        = sum_j e[i,j]
    * ``in_sum[i]``         = sum_j e[j,i]
    * ``out_sq_sum[i]``     = sum_j e[i,j]^2
    * ``in_sq_sum[i]``      = sum_j e[j,i]^2
    * ``reciprocal_sum[i]`` = sum_j e[i,j] * e[j,i]

    The complete estimators and the local effects take these sums from
    :meth:`of`, and the motif sums formed from them from here; the
    quadruple kernel forms its within-quad sums itself.  ``residual_mean``
    is the shift that :meth:`recentred` took out of e, 0.0 for :meth:`of`.
    """

    out_sum: np.ndarray
    in_sum: np.ndarray
    out_sq_sum: np.ndarray
    in_sq_sum: np.ndarray
    reciprocal_sum: np.ndarray
    residual_mean: float = 0.0

    @classmethod
    def of(cls, rows: np.ndarray, cols: np.ndarray | None = None) -> "NodeSummaries":
        """The sums of a (k, k) matrix, or of each matrix in a (..., k, k) stack.

        Node i's out-weights are ``rows[..., i, :]`` and its in-weights
        ``cols[..., i, :]``, by default the transpose of ``rows``; given
        both, the sums cover just the nodes of a tile's rows.  Each sum is
        one reduction over the input, with no temporary of its size.
        """
        if cols is None:
            cols = np.swapaxes(rows, -1, -2)
        return cls(
            out_sum=rows.sum(axis=-1),
            in_sum=cols.sum(axis=-1),
            out_sq_sum=np.einsum("...ij,...ij->...i", rows, rows),
            in_sq_sum=np.einsum("...ij,...ij->...i", cols, cols),
            reciprocal_sum=np.einsum("...ij,...ij->...i", rows, cols),
        )

    def arrays(self) -> tuple[np.ndarray, ...]:
        """The five sums, r, c, q, q', t, in field order."""
        return self.out_sum, self.in_sum, self.out_sq_sum, self.in_sq_sum, self.reciprocal_sum

    def recentred(self) -> "NodeSummaries":
        """One network's sums, of e less its off-diagonal mean delta = sum(r) / (n(n-1)):
        r - (n-1) delta, q - 2 delta r + (n-1) delta^2, t - delta (r + c) + (n-1) delta^2,
        and c, q' as r, q.  Centred by a rounded mean, e is off by that delta; taking it out
        in O(n) is Chan, Golub & LeVeque's (1983) corrected two-pass rule."""
        r, c, q, q_in, t = self.arrays()
        m = len(r) - 1
        delta = float(r.sum()) / (m * len(r))
        square = m * delta * delta
        return NodeSummaries(r - m * delta, c - m * delta, q - 2.0 * delta * r + square,
                             q_in - 2.0 * delta * c + square, t - delta * (r + c) + square, delta)

    def motif(self, effect: EffectKind | str) -> np.ndarray:
        """Per-node sum of one effect's motif products, in closed form.

        Node s gets t_s, r_s^2 - q_s, c_s^2 - q'_s or c_s r_s - t_s for
        reciprocity, same-sender, same-receiver or sender-receiver, with
        r, c, q, q', t the five sums in field order.  ``effect`` may be any
        member or name :meth:`EffectKind.parse` accepts.
        """
        effect = EffectKind.parse(effect)
        if effect is EffectKind.RECIPROCITY:
            return self.reciprocal_sum
        if effect is EffectKind.SAME_SENDER:
            return self.out_sum * self.out_sum - self.out_sq_sum
        if effect is EffectKind.SAME_RECEIVER:
            return self.in_sum * self.in_sum - self.in_sq_sum
        return self.in_sum * self.out_sum - self.reciprocal_sum


def row_col_summaries(net: DirectedWeightedNetwork) -> NodeSummaries:
    """``net.summaries``, not exported: estimators reads it by this name so that
    bench/tracing.py can count the cache's hits, until ROADMAP item 4b."""
    return net.summaries
