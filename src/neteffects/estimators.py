"""Point estimators for the four network effects.

Each complete estimator is (mean of a motif kernel over all pairs or
triples) minus (mean edge weight squared), accumulated in O(n^2) from the
per-node summaries.  The reduced estimators average the 4-tuple kernel
over a with-replacement subsample of quadruples, which both restores
asymptotic normality under degeneracy and cuts computation.
"""

from __future__ import annotations

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
    "centered_pair_means",
    "centered_reciprocal_means",
    "centered_two_path_means",
    "projection_variance",
]


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
    indices.  Samples drawn by :func:`sample_quadruples` are reproducible
    from (n, subsample_exponent, seed).
    """

    tuples: np.ndarray
    n: int
    subsample_exponent: float | None = None
    seed: int | None = None

    def __post_init__(self) -> None:
        t = np.array(self.tuples, dtype=np.int64, copy=True, order="C")
        if t.ndim != 2 or t.shape[1] != 4:
            raise ValueError(f"tuples must have shape (m, 4), got {t.shape}")
        if t.size and (t.min() < 0 or t.max() >= self.n):
            raise ValueError("tuple indices out of range")
        if t.size and (np.diff(np.sort(t, axis=1), axis=1) == 0).any():
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

    effect: EffectKind
    eta_hat: float
    sigma_hat: float
    subsample_exponent: float | None
    m: int
    seed: int | None


def mean_edge(net: DirectedWeightedNetwork) -> float:
    """Average of all n(n-1) off-diagonal weights."""
    n = net.n
    return net.weight_sum / (n * (n - 1))


def _pairs(n: int) -> float:
    return n * (n - 1) / 2.0


def _triples(n: int) -> float:
    return n * (n - 1) * (n - 2) / 6.0


def complete_estimate(net: DirectedWeightedNetwork, effect: EffectKind) -> EffectEstimate:
    """The complete (all-tuples) estimator of one effect.

    The kernel's mean over all pairs (reciprocity) or triples comes in
    closed form from :meth:`NodeSummaries.kernel_sum`, which agrees with
    brute-force enumeration.
    """
    net.require_nodes(3, "complete_estimate")
    n = net.n
    count = _pairs(n) if effect is EffectKind.RECIPROCITY else _triples(n)
    moment = row_col_summaries(net).kernel_sum(effect) / count
    mu = mean_edge(net)
    return EffectEstimate(effect=effect, value=float(moment - mu * mu), method="complete")


def subsample_size(n: int, subsample_exponent: float) -> int:
    """Number of quadruples drawn: round(n ** exponent).

    n ** exponent is generally not an integer, so the nearest integer is
    used; the studentized statistic scales by sqrt(m) for the m actually
    drawn.
    """
    return max(1, int(round(n**subsample_exponent)))


def sample_quadruples(n: int, subsample_exponent: float, seed: int) -> QuadrupleSample:
    """Draw round(n ** exponent) quadruples uniformly, with replacement.

    Each draw is uniform over all C(n, 4) unordered quadruples, realized
    by rejection: sample 4 indices with replacement and redraw any row
    with a collision.  Deterministic given (n, subsample_exponent, seed).
    """
    if n < 4:
        raise TooFewNodesError(f"quadruple sampling needs n >= 4, got {n}")
    if not 1.0 <= subsample_exponent < 2.0:
        raise ValueError(f"subsample exponent must be in [1, 2), got {subsample_exponent}")
    m = subsample_size(n, subsample_exponent)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    tuples = rng.integers(0, n, size=(m, 4), dtype=np.int64)
    while True:
        collided = (np.diff(np.sort(tuples, axis=1), axis=1) == 0).any(axis=1)
        if not collided.any():
            break
        tuples[collided] = rng.integers(0, n, size=(int(collided.sum()), 4), dtype=np.int64)
    return QuadrupleSample(tuples=tuples, n=n, subsample_exponent=subsample_exponent, seed=seed)


def reduced_estimate(
    net: DirectedWeightedNetwork,
    effect: EffectKind,
    sample: QuadrupleSample,
) -> ReducedMoment:
    """Mean and spread of the 4-tuple kernel over a quadruple sample.

    Zero spread is legal here (e.g. a constant network makes every kernel
    value identical); the test layer is responsible for rejecting it.
    """
    net.require_nodes(4, "reduced_estimate")
    if sample.n != net.n:
        raise ValueError(f"sample drawn for n={sample.n} but network has n={net.n}")
    values = quadruple_kernel_values(net, sample.tuples, effect)
    eta = float(values.mean())
    sigma = float(np.sqrt(np.mean((values - eta) ** 2)))
    return ReducedMoment(
        effect=effect,
        eta_hat=eta,
        sigma_hat=sigma,
        subsample_exponent=sample.subsample_exponent,
        m=sample.m,
        seed=sample.seed,
    )


def centered_pair_means(net: DirectedWeightedNetwork) -> np.ndarray:
    """Per-node mean of (e[i,j] + e[j,i]) / 2 over j, centered globally.

    The vector sums to zero up to rounding.
    """
    n = net.n
    s = row_col_summaries(net)
    per_node = (s.out_sum + s.in_sum) / (2.0 * (n - 1))
    return per_node - mean_edge(net)


def centered_reciprocal_means(net: DirectedWeightedNetwork) -> np.ndarray:
    """Per-node mean of e[i,j] e[j,i] over j, centered globally."""
    n = net.n
    s = row_col_summaries(net)
    per_node = s.reciprocal_sum / (n - 1)
    return per_node - s.reciprocal_sum.sum() / (n * (n - 1))


def centered_two_path_means(net: DirectedWeightedNetwork) -> np.ndarray:
    """Per-node mean of the two-path kernel over triples containing the node.

    The sum of the kernel over triples containing i has the O(n) closed
    form

        [ c_i r_i - t_i + sum_b e[i,b] (r_b - e[b,i])
          + sum_b e[b,i] (c_b - e[i,b]) ] / 6,

    splitting the two-paths by whether i is the middle, first, or last
    node; the total cost is O(n^2).  The result is centered by the global
    triple mean and sums to zero up to rounding.
    """
    net.require_nodes(3, "centered_two_path_means")
    n = net.n
    w = net.weights
    s = row_col_summaries(net)
    r, c, t = s.out_sum, s.in_sum, s.reciprocal_sum
    per_node_sum = (c * r + w @ r + w.T @ c - 3.0 * t) / 6.0
    total = s.kernel_sum(EffectKind.SENDER_RECEIVER)
    return per_node_sum / ((n - 1) * (n - 2) / 2.0) - total / _triples(n)


def projection_variance(net: DirectedWeightedNetwork, effect: EffectKind) -> float:
    """Estimated variance of the leading per-node projection of an estimator.

    For the sender-receiver effect this is the mean over nodes of
    (3 * two-path centering - 4 * mean_edge * pair centering)^2; for
    reciprocity, (2 * reciprocal centering - 4 * mean_edge * pair
    centering)^2.  A value of zero against a diverging threshold signals
    degeneracy, in which case the complete estimator must not be
    studentized by this quantity.

    No such diagnostic exists for the same-sender and same-receiver
    effects, whose tests always run on the subsampled branch.
    """
    net.require_nodes(3, "projection_variance")
    g_pair = centered_pair_means(net)
    mu = mean_edge(net)
    if effect is EffectKind.SENDER_RECEIVER:
        g = 3.0 * centered_two_path_means(net) - 4.0 * mu * g_pair
    elif effect is EffectKind.RECIPROCITY:
        g = 2.0 * centered_reciprocal_means(net) - 4.0 * mu * g_pair
    else:
        raise UnsupportedEffectError(
            f"no degeneracy diagnostic for {effect.value}: its test is always subsampled"
        )
    return float(np.mean(g * g))
