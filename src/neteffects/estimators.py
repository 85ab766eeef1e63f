"""Point estimators for the four network effects.

Each complete estimator is (mean of a motif kernel over all pairs or
triples) minus (mean edge weight squared), accumulated in O(n^2) from the
per-node summaries.  The reduced estimators average the 4-tuple kernel
over a with-replacement subsample of quadruples, which both restores
asymptotic normality under degeneracy and cuts computation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import TooFewNodesError, UnsupportedEffectError
from .kernels import quadruple_kernel_values
from .network import DirectedWeightedNetwork, EffectKind, row_col_summaries

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

# Quadruples whose sub-matrices reduced_estimate gathers at a time.  A block's
# (4, 4, 8192) gather is 1 MB, so it and its temporaries stay in a core's 2 MB
# L2 cache.  One cold call at n = 1000, lambda = 1.8, the median of 3 fresh
# processes on a 2-vCPU Xeon VM, took 0.124, 0.124, 0.136, 0.195 and 0.210 s
# with blocks of 4,096, 8,192, 16,384, 32,768 and 65,536.
KERNEL_BLOCK = 8_192


@dataclass(frozen=True)
class EffectEstimate:
    """A point estimate of one network effect."""

    effect: EffectKind
    value: float
    method: str  # "complete" or "reduced"


@dataclass(frozen=True, eq=False)
class QuadrupleSample:
    """A with-replacement sample of node quadruples.

    ``tuples`` is an (m, 4) integer array; each row has 4 distinct
    indices.  The sample holds it read-only.  It copies any array but a
    read-only one that owns its memory, such as :func:`sample_quadruples`
    hands over, so later writes to a caller's array never reach it.
    Samples drawn by :func:`sample_quadruples` are reproducible from (n,
    subsample_exponent, seed).
    """

    tuples: np.ndarray
    n: int

    def __post_init__(self) -> None:
        t = self.tuples
        if isinstance(t, np.ndarray) and t.flags.owndata and not t.flags.writeable:
            t = np.asarray(t, dtype=np.int64, order="C")
        else:
            t = np.array(t, dtype=np.int64, copy=True, order="C")
        if t.ndim != 2 or t.shape[1] != 4:
            raise ValueError(f"tuples must have shape (m, 4), got {t.shape}")
        if t.size and (t.min() < 0 or t.max() >= self.n):
            raise ValueError("tuple indices out of range")
        if _repeats_an_index(t).any():
            raise ValueError("each quadruple must have 4 distinct indices")
        t.setflags(write=False)
        object.__setattr__(self, "tuples", t)

    @property
    def m(self) -> int:
        return self.tuples.shape[0]


@dataclass(frozen=True)
class ReducedMoment:
    """Subsampled effect estimate with its studentizing scale.

    ``sigma_hat`` is the root mean squared deviation of the kernel values
    from their mean, normalized by m (not m - 1).
    """

    eta_hat: float
    sigma_hat: float
    m: int


def mean_edge(net: DirectedWeightedNetwork) -> float:
    """Average of all n(n-1) off-diagonal weights."""
    n = net.n
    return net.weight_sum / (n * (n - 1))


def complete_estimate(net: DirectedWeightedNetwork, effect: EffectKind) -> EffectEstimate:
    """The complete (all-tuples) estimator of one effect.

    The kernel's mean over all C(n, k) k-subsets, k the effect's arity,
    comes in closed form from :meth:`NodeSummaries.kernel_sum`, which
    agrees with brute-force enumeration.
    """
    net.require_nodes(3, "complete_estimate")
    moment = row_col_summaries(net).kernel_sum(effect) / math.comb(net.n, effect.arity)
    mu = mean_edge(net)
    return EffectEstimate(effect=effect, value=float(moment - mu * mu), method="complete")


def subsample_size(n: int, subsample_exponent: float) -> int:
    """Number of quadruples drawn: round(n ** exponent).

    n ** exponent is generally not an integer, so the nearest integer is
    used; the studentized statistic scales by sqrt(m) for the m actually
    drawn.
    """
    return max(1, int(round(n**subsample_exponent)))


def check_subsample_exponent(value: float, name: str = "subsample exponent") -> None:
    """Raise ValueError unless 1 <= value < 2 (so NaN fails): the one rule
    for the subsample exponent, whichever entry point receives it."""
    if not 1.0 <= value < 2.0:
        raise ValueError(f"{name} must be in [1, 2), got {value}")


def sample_quadruples(n: int, subsample_exponent: float, seed: int) -> QuadrupleSample:
    """Draw round(n ** exponent) quadruples uniformly, with replacement.

    Each draw is uniform over all C(n, 4) unordered quadruples, realized
    by rejection: sample 4 indices with replacement and redraw any row
    with a collision.  Deterministic given (n, subsample_exponent, seed).
    """
    if n < 4:
        raise TooFewNodesError(f"quadruple sampling needs n >= 4, got {n}")
    check_subsample_exponent(subsample_exponent)
    m = subsample_size(n, subsample_exponent)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    tuples = rng.integers(0, n, size=(m, 4), dtype=np.int64)
    # Only a redrawn row can still collide, so each round checks those alone.
    redraw = np.flatnonzero(_repeats_an_index(tuples))
    while redraw.size:
        tuples[redraw] = rng.integers(0, n, size=(redraw.size, 4), dtype=np.int64)
        redraw = redraw[_repeats_an_index(tuples[redraw])]
    tuples.setflags(write=False)  # no one else holds it, so the sample need not copy it
    return QuadrupleSample(tuples=tuples, n=n)


def _repeats_an_index(t: np.ndarray) -> np.ndarray:
    """Per row of an (m, 4) index array, whether two of its entries are equal."""
    a, b, c, d = t.T
    return (a == b) | (a == c) | (a == d) | (b == c) | (b == d) | (c == d)


def reduced_estimate(
    net: DirectedWeightedNetwork,
    sample: QuadrupleSample,
) -> dict[EffectKind, ReducedMoment]:
    """Each effect's mean and spread of the 4-tuple kernel over a quadruple sample.

    The kernel runs on ``KERNEL_BLOCK`` quadruples at a time, so beside the
    (4, m) kernel values only one block's gather and sums are alive.

    Zero spread is legal here (e.g. a constant network makes every kernel
    value identical); the test layer is responsible for rejecting it.
    """
    net.require_nodes(4, "reduced_estimate")
    if sample.n != net.n:
        raise ValueError(f"sample drawn for n={sample.n} but network has n={net.n}")
    rows = np.empty((len(EffectKind), sample.m))  # two reductions for the four effects
    for s in range(0, sample.m, KERNEL_BLOCK):
        block = quadruple_kernel_values(net, sample.tuples[s:s + KERNEL_BLOCK])
        rows[:, s:s + KERNEL_BLOCK] = list(block.values())
    eta = rows.mean(axis=1)
    # numpy.std's own steps, run in place: the same bits with no second (4, m) array
    rows -= eta[:, None]
    np.multiply(rows, rows, out=rows)
    sigma = np.sqrt(rows.mean(axis=1))
    return {effect: ReducedMoment(eta_hat=mean, sigma_hat=spread, m=sample.m)
            for effect, mean, spread in zip(EffectKind, eta.tolist(), sigma.tolist())}


def node_projection(net: DirectedWeightedNetwork, effect: EffectKind) -> np.ndarray:
    """Per-node leading (Hoeffding) projection of the complete estimator.

    Node i gets k * motif_i - 4 * mean_edge * pair_i, with k the effect's
    arity (the projection of an order-k U-statistic carries the factor
    k), pair_i the node's mean of (e[i,j] + e[j,i]) / 2 over j, and
    motif_i its mean reciprocal product (reciprocity) or two-path kernel
    (sender-receiver) over the pairs or triples containing it; each mean
    is centred by its grand mean, so the vector sums to zero up to
    rounding.  The two-path kernel summed over the triples containing i
    has the O(n) closed form

        [ c_i r_i - t_i + sum_b e[i,b] (r_b - e[b,i])
          + sum_b e[b,i] (c_b - e[i,b]) ] / 6,

    splitting the two-paths by whether i is the middle, first, or last
    node; the total cost is O(n^2).

    No projection is formed for the effects that are not
    :attr:`EffectKind.diagnosable`, whose tests always run on the
    subsampled branch.
    """
    net.require_nodes(3, "node_projection")
    if not effect.diagnosable:
        raise UnsupportedEffectError(
            f"no degeneracy diagnostic for {effect.value}: its test is always subsampled"
        )
    n = net.n
    s = row_col_summaries(net)
    r, c, t = s.out_sum, s.in_sum, s.reciprocal_sum
    mu = mean_edge(net)
    pair = (r + c) / (2.0 * (n - 1)) - mu
    if effect is EffectKind.SENDER_RECEIVER:
        w = net.weights
        per_node_sum = (c * r + w @ r + w.T @ c - 3.0 * t) / 6.0
        motif = per_node_sum / math.comb(n - 1, 2) - s.kernel_sum(effect) / math.comb(n, 3)
    else:
        motif = t / (n - 1) - t.sum() / (n * (n - 1))
    return effect.arity * motif - 4.0 * mu * pair


def projection_variance(net: DirectedWeightedNetwork, effect: EffectKind) -> float:
    """Estimated variance of the leading per-node projection of an estimator:
    the mean square of :func:`node_projection`.

    A value of zero against a diverging threshold signals degeneracy, in
    which case the complete estimator must not be studentized by this
    quantity.
    """
    g = node_projection(net, effect)
    return float(np.mean(g * g))
