"""The 4-tuple motif kernel, evaluated on many node quadruples at once.

A kernel value depends only on the sub-network induced by the quadruple
and on the global node count n, which enters the finite-sample
correction.  For each effect the kernel's average over all C(n, 4) node
quadruples reproduces the complete effect estimator *exactly*; the
subsampled tests evaluate it on random quadruples.  That identity pins
down the correction term below.  The test suite checks it, and checks
this vectorized form against a loop-by-loop reference kernel.

The within-quad node sums and motif closed forms are those of the complete
estimators: :class:`NodeSummaries`, applied to the induced sub-matrices,
which one gather serves to all four effects.  The gather is position-major,
with the quadruple on the last axis, so every sum over a quad's positions is
a vector operation along the m quadruples.
"""

from __future__ import annotations

import math

import numpy as np

from .network import DirectedWeightedNetwork, EffectKind, NodeSummaries

__all__ = ["quadruple_kernel_values"]


def quadruple_kernel_values(
    net: DirectedWeightedNetwork,
    quads: np.ndarray,
) -> dict[EffectKind, np.ndarray]:
    """Each effect's 4-tuple kernel on each row of an (m, 4) array of index
    quadruples: one (m,) array per :class:`EffectKind`.

    For reciprocity the kernel is the mean reciprocal product e[a,b] e[b,a]
    over the 6 pairs in the quad; for the other effects it is the mean of
    the matching 3-node product (same-sender, same-receiver or two-path)
    over the 4 triples.  Both then subtract the mean of e[a,b] e[c,d] over
    the 24 orderings of the quad and add the O(1/n) correction

        -[ P / (12 (n^2 - n)) + (n - 2) B / (4 (n^2 - n))
           + (6 - 4n) * disjoint / (n^2 - n) ],

    where P sums e[a,b] e[b,a] + e[a,b]^2 over the 12 ordered pairs and B
    sums same-sender + same-receiver + 2 * two-path over the 4 triples.

    Gathers the induced sub-matrices once, for all four effects, as a
    (4, 4, m) array whose [a, b] row holds e[quad[a], quad[b]] for every
    quad, and reduces it with within-quad node sums on its (m, 4, 4)
    transposed view.  Each sum and product then runs along m, making the
    cost O(m) with small constants.
    """
    w = net.weights
    n = net.n
    t = np.asarray(quads).T
    # g[a, b] = e[quad[a], quad[b]] for every quad at once: (4, 4, m), zero diagonal
    g = w.reshape(-1).take(t[:, None, :] * n + t[None, :, :])
    sums = NodeSummaries.of(g.transpose(2, 0, 1))
    # Kernel sums over the 6 pairs or the 4 triples inside each quad.
    kernel_sum = {e: sums.kernel_sum(e) for e in EffectKind}
    pair_sum = sums.reciprocal_sum.sum(axis=1) + sums.out_sq_sum.sum(axis=1)
    del sums  # five (m, 4) arrays; kept alive, they would raise the peak memory below

    def pair(a, b):  # e[a,b] + e[b,a], one value per quad
        return g[a, b] + g[b, a]

    disjoint = (pair(0, 1) * pair(2, 3) + pair(0, 2) * pair(1, 3) + pair(0, 3) * pair(1, 2)) / 12.0

    triple_sum = (
        kernel_sum[EffectKind.SAME_SENDER]
        + kernel_sum[EffectKind.SAME_RECEIVER]
        + 2.0 * kernel_sum[EffectKind.SENDER_RECEIVER]
    )
    nn = float(n * n - n)
    correction = -(
        pair_sum / (12.0 * nn)
        + (n - 2) * triple_sum / (4.0 * nn)
        + (6.0 - 4.0 * n) * disjoint / nn
    )

    # mean over the C(4, k) k-subsets of the quad, k the effect's arity
    return {e: kernel_sum[e] / math.comb(4, e.arity) - disjoint + correction for e in EffectKind}
