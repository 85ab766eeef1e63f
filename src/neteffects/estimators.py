"""Point estimators for the four network effects.

Each complete estimator is the mean of a motif kernel of the centred
weights over all pairs or triples, accumulated in O(n^2) from the network's
cached per-node summaries.  The reduced estimators average the 4-tuple kernel
over a with-replacement subsample of quadruples, which both restores
asymptotic normality under degeneracy and cuts computation.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import TooFewNodesError, UnsupportedEffectError
from .kernels import BUFFER_ROWS, quadruple_kernel_values
from .network import SUMMARY_TILE, DirectedWeightedNetwork, EffectKind, mean_edge, row_col_summaries

__all__ = [
    "EffectEstimate",
    "ReducedMoment",
    "QuadrupleSample",
    "mean_edge",
    "complete_estimate",
    "sample_quadruples",
    "reduced_estimate",
    "node_projection",
    "projection_variance",
]

# Quadruples whose sub-matrices reduced_estimate gathers at a time, in one buffer
# of kernels.BUFFER_ROWS float64s per quad (2.1 MB).  At n = 1000, lambda = 1.8,
# blocks of 4,096, 8,192, 16,384 and 32,768 took a median of 90, 78, 73 and 72 ms
# per warm call and peaked at 1.6, 3.1, 6.2 and 12.4 MB (3 fresh processes each,
# 7 calls, one BLAS thread, 2-vCPU Xeon VM).
KERNEL_BLOCK = 8_192
# A quadruple as one 32-byte item: numpy selects rows of these about twice as
# fast as rows of an (m, 4) int64 array.
_ROW = np.dtype((np.void, 32))


@dataclass(frozen=True)
class EffectEstimate:
    """A point estimate of one network effect."""

    effect: EffectKind
    value: float
    method: str  # "complete" or "reduced"


class QuadrupleSample:
    """A with-replacement sample of m >= 1 node quadruples on n nodes.

    ``tuples`` is the sample as a read-only (m, 4) int64 array; each row has
    4 distinct indices.  A sample built from an array holds a copy of it, so
    later writes to that array never reach the sample.

    A sample drawn by :func:`sample_quadruples` holds only (n, m, seed), from
    which it is reproducible.  :func:`reduced_estimate` replays its draw block
    by block, so no (m, 4) array exists until ``tuples`` is first read, which
    builds it from the same draw.  Samples are immutable and compare by
    identity.  A copy or an unpickled sample is rebuilt the same way: a held
    one through the constructor's checks, a drawn one from (n, m, seed).
    """

    def __init__(self, tuples: np.ndarray, n: int) -> None:
        check_integer(n, "n")
        t = np.array(tuples, dtype=np.int64, copy=True, order="C")
        if t.ndim != 2 or t.shape[1] != 4:
            raise ValueError(f"tuples must have shape (m, 4), got {t.shape}")
        if not t.size:
            raise ValueError("a quadruple sample needs at least one quadruple, got m = 0")
        if t.min() < 0 or t.max() >= n:
            raise ValueError("tuple indices out of range")
        if _repeats_an_index(t).any():
            raise ValueError("each quadruple must have 4 distinct indices")
        t.setflags(write=False)
        vars(self).update(n=n, m=t.shape[0], _seed=None, _tuples=t)

    @classmethod
    def _drawn(cls, n: int, m: int, seed: int) -> QuadrupleSample:
        sample = cls.__new__(cls)
        vars(sample).update(n=n, m=m, _seed=seed, _tuples=None)
        return sample

    def __setattr__(self, name, value):
        raise AttributeError(f"a QuadrupleSample is immutable; cannot set {name!r}")

    def __reduce__(self):
        if self._seed is None:
            return QuadrupleSample, (self._tuples, self.n)
        return QuadrupleSample._drawn, (self.n, self.m, self._seed)

    def __repr__(self) -> str:
        seed = "" if self._seed is None else f", seed={self._seed!r}"
        return f"QuadrupleSample(n={self.n!r}, m={self.m!r}{seed})"

    @property
    def tuples(self) -> np.ndarray:
        if self._tuples is None:  # drawn: build the array once, from the one draw
            t = np.empty((self.m, 4), dtype=np.int64)
            for positions, quads in _draw(self.n, self.m, self._seed):
                t[positions] = quads
            t.setflags(write=False)
            vars(self)["_tuples"] = t
        return self._tuples

    def _blocks(self):
        """Every quadruple once, in blocks of ``KERNEL_BLOCK`` rows, the last one
        shorter; a drawn sample replays its draw even once ``tuples`` is built."""
        if self._seed is not None:
            return (quads for _, quads in _draw(self.n, self.m, self._seed))
        return (self._tuples[s:s + KERNEL_BLOCK] for s in range(0, self.m, KERNEL_BLOCK))


@dataclass(frozen=True)
class ReducedMoment:
    """Subsampled effect estimate with its studentizing scale.

    ``sigma_hat`` is the root mean squared deviation of the kernel values
    from their mean, normalized by m (not m - 1).  Both are merged block by
    block, so their last bits depend on ``KERNEL_BLOCK``.
    """

    eta_hat: float
    sigma_hat: float
    m: int


def complete_estimate(net: DirectedWeightedNetwork, effect: EffectKind) -> EffectEstimate:
    """The complete (all-tuples) estimator of one effect.

    The kernel's mean over all C(n, k) k-subsets, k the effect's arity, in
    closed form from the centred weights' :meth:`NodeSummaries.kernel_sum`:
    the raw kernel's mean minus ``mean_edge`` squared, without cancellation.
    """
    net.require_nodes(3, "complete_estimate")
    moment = row_col_summaries(net).kernel_sum(effect) / math.comb(net.n, effect.arity)
    return EffectEstimate(effect=effect, value=float(moment), method="complete")


def subsample_size(n: int, subsample_exponent: float) -> int:
    """Number of quadruples drawn: round(n ** exponent).

    n ** exponent is generally not an integer, so the nearest integer is
    used; the studentized statistic scales by sqrt(m) for the m actually
    drawn.
    """
    return max(1, int(round(n**subsample_exponent)))


def check_subsample_exponent(value: float, name: str = "subsample exponent") -> None:
    """Raise ValueError unless value is a real number, not a bool, in [1, 2) (so NaN
    fails): the one rule for the subsample exponent, whichever entry point receives it."""
    if not is_real(value) or not 1.0 <= value < 2.0:
        raise ValueError(f"{name} must be in [1, 2), got {value!r}")


def is_real(value) -> bool:
    """The one rule for every real-valued parameter the API takes: a Python or
    numpy real number (a Fraction too), and not a bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def check_integer(value: int, name: str, minimum: int = 0, error: type = ValueError) -> None:
    """Raise ``error`` unless value is a Python or numpy integer, not a bool, and
    at least ``minimum``: the one rule for every seed, size and count the API takes."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < minimum:
        wanted = "a non-negative integer" if minimum == 0 else f"an integer of at least {minimum}"
        raise error(f"{name} must be {wanted}, got {value!r}")


def sample_quadruples(n: int, subsample_exponent: float, seed: int) -> QuadrupleSample:
    """Draw round(n ** exponent) quadruples uniformly, with replacement.

    Each draw is uniform over all C(n, 4) unordered quadruples, realized
    by rejection: sample 4 indices with replacement and redraw any row
    with a collision.  Deterministic given (n, subsample_exponent, seed);
    the sample holds no rows until it is reduced or read (see
    :class:`QuadrupleSample`).
    """
    check_integer(n, "n")
    if n < 4:
        raise TooFewNodesError(f"quadruple sampling needs n >= 4, got {n}")
    check_subsample_exponent(subsample_exponent)
    check_integer(seed, "seed")
    return QuadrupleSample._drawn(n, subsample_size(n, subsample_exponent), seed)


def _draw(n: int, m: int, seed: int):
    """:func:`sample_quadruples`' draw, replayed from its seed as (positions,
    quads) blocks of ``KERNEL_BLOCK`` rows without a repeated index, the last
    block shorter.

    Each round draws a row for every position still without a valid one, in
    row order: ``rng.integers`` gives the same stream in pieces as at once.
    The rows are drawn in pieces that fill a block queue.  A row collides with
    probability below 6/n, so few positions await a redraw.  The yielded
    arrays are reused: use each block before taking the next.
    """
    size = min(KERNEL_BLOCK, m)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    positions, quads = np.empty(size, dtype=np.int64), np.empty((size, 4), dtype=np.int64)
    queued, filled = quads.view(_ROW).ravel(), 0
    targets, count = None, m  # None: the first round, positions 0 .. m - 1
    while count:
        collided, start = [np.empty(0, dtype=np.int64)], 0
        while start < count:
            stop = min(count, start + size - filled)
            part = np.arange(start, stop) if targets is None else targets[start:stop]
            drawn = rng.integers(0, n, size=(len(part), 4), dtype=np.int64)
            bad = _repeats_an_index(drawn)
            valid = part[~bad]
            end = filled + len(valid)
            positions[filled:end], queued[filled:end] = valid, drawn.view(_ROW).ravel()[~bad]
            filled = end
            collided.append(part[bad])
            start = stop
            if filled == size:
                yield positions, quads
                filled = 0
        targets = np.concatenate(collided)
        count = targets.size
    if filled:
        yield positions[:filled], quads[:filled]


def _repeats_an_index(t: np.ndarray) -> np.ndarray:
    """Per row of an (m, 4) index array, whether two of its entries are equal."""
    a, b, c, d = t.T
    return (a == b) | (a == c) | (a == d) | (b == c) | (b == d) | (c == d)


def reduced_estimate(
    net: DirectedWeightedNetwork,
    sample: QuadrupleSample,
) -> dict[EffectKind, ReducedMoment]:
    """Each effect's mean and spread of the 4-tuple kernel over a quadruple sample.

    The kernel runs on ``KERNEL_BLOCK`` quadruples at a time in one reused
    buffer.  Each block's mean and squared deviations, taken in place, merge
    into the running ones in block order (Chan, Golub & LeVeque 1983), so
    memory does not grow with m.  One block has ``numpy.mean``'s and ``numpy.std``'s bits.

    Zero spread is legal here (e.g. a constant network makes every kernel
    value identical); the test layer is responsible for rejecting it.
    """
    net.require_nodes(4, "reduced_estimate")
    if sample.n != net.n:
        raise ValueError(f"sample drawn for n={sample.n} but network has n={net.n}")
    buffer, count = np.empty(BUFFER_ROWS * min(KERNEL_BLOCK, sample.m)), 0
    for quads in sample._blocks():
        quadruple_kernel_values(net, quads, buffer)
        b, values = len(quads), buffer[:len(EffectKind) * len(quads)].reshape(len(EffectKind), -1)
        mean = values.sum(axis=1) / b  # numpy.mean's own steps
        values -= mean[:, None]
        sq = np.multiply(values, values, out=values).sum(axis=1)
        if count:  # the first block seeds the moments: a merge into zeros could take inf * 0
            delta, weight = mean - eta, b / (count + b)
            mean, sq = eta + delta * weight, squares + sq + delta * delta * (count * weight)
        count, eta, squares = count + b, mean, sq
    return {effect: ReducedMoment(eta_hat=mean, sigma_hat=spread, m=sample.m)
            for effect, mean, spread in zip(EffectKind, eta.tolist(), np.sqrt(squares / count).tolist())}


def node_projection(net: DirectedWeightedNetwork, effect: EffectKind) -> np.ndarray:
    """Per-node leading (Hoeffding) projection of the complete estimator.

    Node i gets k (S_i / C(n-1, k-1) - U), k the effect's arity, U its
    :func:`complete_estimate` and S_i its kernel summed over the k-subsets
    containing i, both of the centred sums r, c, t of d = w - mean_edge.  It
    sums to zero up to rounding.  Reciprocity has S = t; sender-receiver has
    S = (c r + d r + d^T c - 3 t) / 6, its two-paths split by whether i is
    the middle, first or last node.  Sender-receiver's alone then loses
    4 mean_edge pair_i / (n-2), pair_i = (r_i + c_i) / (2(n-1)): the one term
    by which it depends on the weights' offset (ROADMAP item 3).

    No projection is formed for the effects that are not
    :attr:`EffectKind.diagnosable`, whose tests always run on the
    subsampled branch.
    """
    net.require_nodes(3, "node_projection")
    if not effect.diagnosable:
        raise UnsupportedEffectError(
            f"no degeneracy diagnostic for {effect.value}: its test is always subsampled"
        )
    s, n, k, mu = row_col_summaries(net), net.n, effect.arity, mean_edge(net)
    r, c, t = s.out_sum, s.in_sum, s.reciprocal_sum
    subset_sum, offset = t, 0.0
    if effect is EffectKind.SENDER_RECEIVER:
        # (d x)_i = (w x)_i - mean_edge (sum(x) - x_i); w r and w^T c from one read of w
        d_r, d_c, tile = mu * (r - r.sum()), mu * (c - c.sum()), SUMMARY_TILE
        for i in range(0, n, tile):  # a tile's rows at a time
            d_r[i:i + tile] += net.weights[i:i + tile] @ r
            d_c += c[i:i + tile] @ net.weights[i:i + tile]
        subset_sum = (c * r + d_r + d_c - 3.0 * t) / 6.0
        offset = 4.0 * mu * (r + c) / (2.0 * (n - 1) * (n - 2))
    return k * (subset_sum / math.comb(n - 1, k - 1) - complete_estimate(net, effect).value) - offset


def projection_variance(net: DirectedWeightedNetwork, effect: EffectKind) -> float:
    """Estimated variance of the leading per-node projection of an estimator:
    the mean square of :func:`node_projection`.

    A value of zero against a diverging threshold signals degeneracy, in
    which case the complete estimator must not be studentized by this
    quantity.
    """
    g = node_projection(net, effect)
    return float(np.mean(g * g))
