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
from .kernels import quadruple_kernel_values
from .network import DirectedWeightedNetwork, EffectKind, mean_edge, row_col_summaries

__all__ = [
    "EffectEstimate",
    "ReducedMoment",
    "QuadrupleSample",
    "complete_estimate",
    "sample_quadruples",
    "reduced_estimate",
    "node_projection",
    "projection_variance",
]

# Quadruples whose sub-matrices reduced_estimate gathers at a time; the kernel's scratch
# for one block is 1.6 MB, freed before the next block.  At n = 1000, lambda = 1.8, with
# the earlier 2.1 MB node-sum kernel, blocks of 4,096, 8,192, 16,384 and 32,768 took
# a median of 90, 78, 73 and 72 ms per warm call and peaked at 1.6, 3.1, 6.2 and
# 12.4 MB (3 fresh processes each, 7 calls, one BLAS thread, 2-vCPU Xeon VM).
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


@dataclass(frozen=True, eq=False)
class QuadrupleSample:
    """A with-replacement sample of m >= 1 quadruples on n >= 4 nodes, drawn from
    ``seed`` as :func:`sample_quadruples` draws it.  It holds no rows:
    :func:`reduced_estimate` replays the draw block by block.
    Samples are immutable and compare by identity; a copy, a pickle and the ``repr``
    rebuild one from (n, m, seed) alone:

    >>> s = sample_quadruples(1000, 1.8, 3)
    >>> s
    QuadrupleSample(n=1000, m=251189, seed=3)
    """

    n: int
    m: int
    seed: int

    def __post_init__(self) -> None:
        check_integer(self.n, "n")
        if self.n < 4:
            raise TooFewNodesError(f"quadruple sampling needs n >= 4, got {self.n}")
        check_integer(self.m, "m", minimum=1)
        check_integer(self.seed, "seed")


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


def complete_estimate(net: DirectedWeightedNetwork, effect: EffectKind | str) -> EffectEstimate:
    """The complete (all-tuples) estimator of one effect, given as any member or
    name :meth:`EffectKind.parse` accepts.

    The kernel's mean over all C(n, k) k-subsets, k the effect's arity, in
    closed form from the centred weights' :meth:`NodeSummaries.motif` sums,
    which count each k-subset k! times: the raw kernel's mean minus
    ``mean_edge`` squared, without cancellation.
    """
    effect = EffectKind.parse(effect)
    net.require_nodes(3, "complete_estimate")
    k = effect.arity
    moment = row_col_summaries(net).motif(effect).sum() / math.factorial(k) / math.comb(net.n, k)
    return EffectEstimate(effect=effect, value=float(moment), method="complete")


def check_subsample_exponent(value: float) -> None:
    """Raise ValueError unless value is a real number, not a bool, in [1, 2) (so NaN
    fails): the one rule for the subsample exponent, whichever entry point receives it."""
    if not is_real(value) or not 1.0 <= value < 2.0:
        raise ValueError(f"subsample exponent must be in [1, 2), got {value!r}")


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
    """Draw m = round(n ** exponent) quadruples uniformly, with replacement.

    n ** exponent is generally not an integer, so m is the nearest one, and at least 1;
    the studentized statistic scales by sqrt(m) for the m actually drawn.  Each draw is
    uniform over all C(n, 4) unordered quadruples, realized by rejection: sample 4
    indices with replacement and redraw any row with a collision.  Deterministic given
    (n, subsample_exponent, seed); the sample holds no rows (see :class:`QuadrupleSample`).
    """
    check_integer(n, "n")
    check_subsample_exponent(subsample_exponent)
    return QuadrupleSample(n, max(1, int(round(n**subsample_exponent))), seed)


def _draw(n: int, m: int, seed: int):
    """:func:`sample_quadruples`' draw, replayed from its seed: the first m rows with 4
    distinct indices of the seed's row stream ``rng.integers(0, n, (k, 4))``, in stream
    order, as (b, 4) blocks of ``KERNEL_BLOCK`` rows, the last one shorter.

    ``rng.integers`` gives the same stream in pieces as at once.  So a block takes one
    call, overdrawn by the chance 1 - (n-1)(n-2)(n-3)/n^3 that a row repeats an index:
    the call falls short with chance below 1% (about 0.1% for a full block), and then
    the block draws again.  The valid rows are compacted in the block's storage, the
    first call's own array; those beyond the block are spare and start the next one,
    which draws only when they run out.  The yielded arrays are reused: use each
    block before taking the next.
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    valid = (n - 1) * (n - 2) * (n - 3) / n**3  # chance that a row has 4 distinct indices
    store, start, stop = None, 0, 0  # store[start:stop]: valid rows not yet yielded
    for first in range(0, m, KERNEL_BLOCK):
        need = min(KERNEL_BLOCK, m - first)
        while stop - start < need:
            short = need - (stop - start)  # k rows hold short + 1 valid ones 3 sd below their mean
            k = math.ceil((short + 3.0 * math.sqrt(short * (1.0 - valid)) + 1.0) / valid)
            drawn = rng.integers(0, n, size=(k, 4), dtype=np.int64)
            ok = _distinct_rows(drawn)
            if store is None:  # sized for a whole block, it holds every later call's rows too
                store, rows = drawn, drawn.view(_ROW).ravel()
            rows[:stop - start] = rows[start:stop]  # spare rows to the front
            start, stop, kept = 0, stop - start, np.count_nonzero(ok)
            rows[stop:stop + kept] = drawn.view(_ROW).ravel()[ok]
            stop += kept
            del drawn  # before the next draw: one fresh draw beside the storage
        yield store[start:start + need]
        start += need


def _distinct_rows(t: np.ndarray) -> np.ndarray:
    """Per row of an (m, 4) index array, whether its 4 entries are distinct."""
    a, b, c, d = t.T
    return (a != b) & (a != c) & (a != d) & (b != c) & (b != d) & (c != d)


def reduced_estimate(
    net: DirectedWeightedNetwork,
    sample: QuadrupleSample,
) -> dict[EffectKind, ReducedMoment]:
    """Each effect's mean and spread of the 4-tuple kernel over a quadruple sample.

    The kernel runs on ``KERNEL_BLOCK`` quadruples at a time, each block's values dropped
    before the next is drawn.  Each block's mean and squared deviations, taken in place,
    merge into the running ones in block order (Chan, Golub & LeVeque 1983), so memory
    does not grow with m.  One block has ``numpy.mean``'s and ``numpy.std``'s bits.

    Zero spread is legal here (e.g. a constant network makes every kernel
    value identical); the test layer is responsible for rejecting it.
    """
    net.require_nodes(4, "reduced_estimate")
    if sample.n != net.n:
        raise ValueError(f"sample drawn for n={sample.n} but network has n={net.n}")
    count = 0
    for quads in _draw(sample.n, sample.m, sample.seed):
        b, values = len(quads), quadruple_kernel_values(net, quads)
        mean = values.sum(axis=1) / b  # numpy.mean's own steps
        values -= mean[:, None]
        sq = np.multiply(values, values, out=values).sum(axis=1)
        del values  # frees the kernel's scratch before the next block is drawn
        if count:  # the first block seeds the moments: a merge into zeros could take inf * 0
            delta, weight = mean - eta, b / (count + b)
            mean, sq = eta + delta * weight, squares + sq + delta * delta * (count * weight)
        count, eta, squares = count + b, mean, sq
    return {effect: ReducedMoment(eta_hat=mean, sigma_hat=spread, m=sample.m)
            for effect, mean, spread in zip(EffectKind, eta.tolist(), np.sqrt(squares / count).tolist())}


def node_projection(net: DirectedWeightedNetwork, effect: EffectKind | str) -> np.ndarray:
    """Per-node leading (Hoeffding) projection of the complete estimator.

    Node i gets k (S_i / C(n-1, k-1) - U), k the effect's arity, U its
    :func:`complete_estimate` and S_i its kernel summed over the k-subsets
    containing i, both of the centred sums r, c, t of d = w - mean_edge -
    residual_mean (:meth:`NodeSummaries.recentred`).  It sums to zero up to
    rounding.  Reciprocity has S = t; sender-receiver has
    S = (c r + d r + d^T c - 3 t) / 6, its two-paths split by whether i is
    the middle, first or last node.  Sender-receiver's alone then loses
    4 mean_edge pair_i / (n-2), pair_i = (r_i + c_i) / (2(n-1)): the one term
    by which it depends on the weights' offset (ROADMAP item 3b).

    ``effect`` may be any member or name :meth:`EffectKind.parse` accepts.  No
    projection is formed for the effects that are not
    :attr:`EffectKind.diagnosable`, whose tests always run on the
    subsampled branch.
    """
    effect = EffectKind.parse(effect)
    net.require_nodes(3, "node_projection")
    if not effect.diagnosable:
        raise UnsupportedEffectError(
            f"no degeneracy diagnostic for {effect.value}: its test is always subsampled"
        )
    s, n, k, mu = row_col_summaries(net), net.n, effect.arity, mean_edge(net)
    r, c, t = s.out_sum, s.in_sum, s.reciprocal_sum
    subset_sum, offset = t, 0.0
    if effect is EffectKind.SENDER_RECEIVER:
        # (d x)_i = (w x)_i - (mean_edge + residual_mean) (sum(x) - x_i), the two terms kept
        # apart, as their sum would round; w r and w^T c are one BLAS call each
        r_gap, c_gap = r - r.sum(), c - c.sum()
        d_r = net.weights @ r + mu * r_gap + s.residual_mean * r_gap
        d_c = c @ net.weights + mu * c_gap + s.residual_mean * c_gap
        subset_sum = (c * r + d_r + d_c - 3.0 * t) / 6.0
        offset = 4.0 * mu * (r + c) / (2.0 * (n - 1) * (n - 2))
    return k * (subset_sum / math.comb(n - 1, k - 1) - complete_estimate(net, effect).value) - offset


def projection_variance(net: DirectedWeightedNetwork, effect: EffectKind | str) -> float:
    """Estimated variance of the leading per-node projection of an estimator:
    the mean square of :func:`node_projection`, which parses ``effect``.

    A value of zero against a diverging threshold signals degeneracy, in
    which case the complete estimator must not be studentized by this
    quantity.
    """
    g = node_projection(net, effect)
    return float(np.mean(g * g))
