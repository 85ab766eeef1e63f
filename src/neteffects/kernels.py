"""The 4-tuple motif kernel, evaluated on many node quadruples at once.

A kernel value depends only on the sub-network induced by the quadruple and
on the global node count n, which enters the finite-sample correction.  For
each effect the kernel's average over all C(n, 4) node quadruples reproduces
the complete effect estimator *exactly*, which pins down the correction term
below; the subsampled tests evaluate it on random quadruples.  The test suite
checks that identity, and this vectorized form against a loop-by-loop kernel.

One gather of each quad's 12 off-diagonal entries, as (m,) rows, serves all
four effects.  Every later step adds or multiplies rows elementwise, in a fixed
order, so a quad's value has the same bits in any batch of quads.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .network import DirectedWeightedNetwork, EffectKind, NodeSummaries

__all__ = ["quadruple_kernel_values"]

_PAIRS = tuple(itertools.permutations(range(4), 2))  # (a, b), a != b, row-major


def quadruple_kernel_values(net: DirectedWeightedNetwork,
                            quads: np.ndarray) -> dict[EffectKind, np.ndarray]:
    """Each effect's 4-tuple kernel on each row of an (m, 4) array of index
    quadruples: one (m,) array per :class:`EffectKind`.

    For reciprocity the kernel is the mean reciprocal product e[a,b] e[b,a]
    over the 6 pairs in the quad; for the other effects it is the mean of
    the matching 3-node product (same-sender, same-receiver or two-path)
    over the 4 triples.  Both then subtract the mean of e[a,b] e[c,d] over
    the 24 orderings of the quad and add the O(1/n) correction

        -[ P / (12 nn) + (n - 2) B / (4 nn) + (6 - 4n) * disjoint / nn ],  nn = n^2 - n,

    where P sums e[a,b] e[b,a] + e[a,b]^2 over the 12 ordered pairs and B
    sums same-sender + same-receiver + 2 * two-path over the 4 triples.
    """
    n, t = net.n, np.asarray(quads).T
    base, idx = t * n, np.empty((len(_PAIRS), t.shape[1]), dtype=np.intp)
    for k, (a, b) in enumerate(_PAIRS):
        np.add(base[a], t[b], out=idx[k])
    x = dict(zip(_PAIRS, net.weights.take(idx)))  # x[a, b] = e[quad[a], quad[b]]
    del base, idx
    sums = _node_sums(x, t.shape[1])

    def over_quad(rows):  # the four positions' rows, added in order
        return rows[0] + rows[1] + rows[2] + rows[3]
    kernel_sum = {e: over_quad(sums.motif(e)) / math.factorial(e.arity) for e in EffectKind}
    pair_sum = over_quad(sums.reciprocal_sum) + over_quad(sums.out_sq_sum)
    del sums  # five (4, m) arrays; kept alive, they would raise the peak memory below

    def pair(a, b):  # e[a,b] + e[b,a], one value per quad
        return x[a, b] + x[b, a]
    disjoint = (pair(0, 1) * pair(2, 3) + pair(0, 2) * pair(1, 3) + pair(0, 3) * pair(1, 2)) / 12.0
    triple_sum = (kernel_sum[EffectKind.SAME_SENDER] + kernel_sum[EffectKind.SAME_RECEIVER]
                  + 2.0 * kernel_sum[EffectKind.SENDER_RECEIVER])
    nn = float(n * n - n)
    correction = -(pair_sum / (12.0 * nn) + (n - 2) * triple_sum / (4.0 * nn)
                   + (6.0 - 4.0 * n) * disjoint / nn)
    # mean over the C(4, k) k-subsets of the quad, k the effect's arity
    return {e: kernel_sum[e] / math.comb(4, e.arity) - disjoint + correction for e in EffectKind}


def _node_sums(x: dict, m: int) -> NodeSummaries:
    """:class:`NodeSummaries` of the quads' sub-matrices, as (4, m) arrays, each
    position's terms added up in increasing order of its partner."""
    table = np.zeros((5, 4, m))
    out_sum, in_sum, out_sq, in_sq, recip = (list(field) for field in table)
    for a, b in _PAIRS:
        sq = x[a, b] * x[a, b]
        out_sum[a] += x[a, b]
        in_sum[b] += x[a, b]
        out_sq[a] += sq
        in_sq[b] += sq
        recip[a] += x[a, b] * x[b, a]
    return NodeSummaries(*table)
