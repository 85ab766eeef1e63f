"""The 4-tuple motif kernel, evaluated on many node quadruples at once.

A kernel value depends only on the sub-network induced by the quadruple and
on the global node count n, which enters the finite-sample correction.  Its
average over all C(n, 4) quadruples is the complete effect estimator
*exactly*, which pins down that correction; the tests check this, and this
form against loop-by-loop and exact rational kernels.

The kernel is unchanged by a constant added to a quad's 12 weights x[a, b],
so each quad's are first shifted by its own x[0, 1]; its terms then scale
with the weights' spread, not their offset.  With p[ab] = x[a, b] + x[b, a]
(a < b), r[a] and c[a] node a's out- and in-sums in the quad, nn = n^2 - n,
T = 2 sum x[a, b] x[b, a], P2 = sum p[ab]^2, Q = P2 - T, RR, CC and CR the
sums of r[a]^2, c[a]^2 and c[a] r[a], and D = p[01] p[23] + p[02] p[13] +
p[03] p[12], the kernels are T / 12, (RR - Q) / 24, (CC - Q) / 24 and
(CR - T) / 24, in :class:`EffectKind` order, each plus
beta = -[P2 / (12 nn) + (n - 2) (RR + CC + 2 CR - 2 P2) / (24 nn) + (nn + 6 - 4n) D / (12 nn)].
Every step adds, multiplies or divides whole rows (one value per quad) in a
fixed order, so a quad's value has the same bits in any batch of quads.
"""

from __future__ import annotations

import numpy as np

from .network import DirectedWeightedNetwork

__all__ = ["quadruple_kernel_values"]

# The gather is 3 slabs, one per perfect matching of the quad: slab s holds x[a, a ^ (s + 1)]
# for nodes a = 2 h + l on a (2, 2) grid [h, l].  _FLIP[s] takes the grid's nodes to their
# partners, and _LOW[s] picks each of the matching's two pairs by its lower node.
_FLIP = (np.s_[:, ::-1], np.s_[::-1], np.s_[::-1, ::-1])
_LOW = (np.s_[:, 0], np.s_[0], np.s_[0])
# float64s per quad of working memory: the (12, m) gather, whose first 4 rows take the
# values last, and 12 work rows, which first hold the gather's index
BUFFER_ROWS = 24


def quadruple_kernel_values(net: DirectedWeightedNetwork, quads: np.ndarray) -> np.ndarray:
    """Each effect's 4-tuple kernel on each row of an (m, 4) array of index
    quadruples, as a (4, m) array whose rows are in :class:`EffectKind` order: the
    mean reciprocal or 3-node product over the quad's pairs or triples, minus the
    mean of e[a,b] e[c,d] over its 24 orderings, plus an O(1/n) correction; taken in
    the module's closed form after shifting the quad's weights by e[quad[0], quad[1]].

    It works in a new buffer of ``BUFFER_ROWS * m`` float64s and returns a view of
    its first 4 m, so the buffer lives as long as the values.  An index below 0 or at
    least n raises IndexError before anything is gathered.
    """
    n, m, quads = net.n, len(quads), np.asarray(quads)
    low, high = (quads.min(), quads.max()) if m else (0, 0)
    if low < 0 or high >= n:
        raise IndexError(f"quadruple index {low if low < 0 else high} is outside [0, {n})")
    buffer = np.empty(BUFFER_ROWS * m)
    g, w = buffer[:12 * m].reshape(3, 2, 2, m), buffer[12 * m:].reshape(12, m)
    t, idx = quads.T.reshape(2, 2, m), w.view(np.int64).reshape(3, 2, 2, m)
    base = np.multiply(t, n, out=idx[2])  # row offsets, overwritten last
    for s in range(3):
        np.add(base, t[_FLIP[s]], out=idx[s])
    net.weights.take(idx, out=g, mode="wrap")  # in range, checked above; mode "raise" copies ``out``
    x = g.reshape(12, m)
    x[1:] -= x[0]
    x[0] = 0.0
    for s, pair, recip in zip(range(3), w[:6].reshape(3, 2, m), w[6:].reshape(3, 2, m)):
        low, high = g[s][_LOW[s]], g[s][_FLIP[s]][_LOW[s]]  # x[a, b] with a < b, and x[b, a]
        np.add(low, high, out=pair)
        np.multiply(low, high, out=recip)
    half_t = _fold(w[6:])
    d = _fold(np.multiply(w[0:6:2], w[1:6:2], out=w[7:10]))  # each matching's product
    p2 = _fold(np.multiply(w[:6], w[:6], out=w[:6]))
    r, c = w[8:].reshape(2, 2, m), w[2:6].reshape(2, 2, m)
    np.add(np.add(g[0], g[1], out=r), g[2], out=r)
    np.add(np.add(g[0][_FLIP[0]], g[1][_FLIP[1]], out=c), g[2][_FLIP[2]], out=c)
    r, c, sq = r.reshape(4, m), c.reshape(4, m), g.reshape(3, 4, m)  # the gather is spent
    for k, (a, b) in enumerate(((r, r), (c, c), (c, r))):
        np.multiply(a, b, out=sq[k])
    rr, cc, cr = _fold(sq.swapaxes(0, 1))  # x[0], x[4] and x[8]
    nn, t2, q = float(n * n - n), 2.0 * half_t, p2 - 2.0 * half_t
    beta = -(p2 + (n - 2) / 2.0 * (rr + cc + 2.0 * (cr - p2)) + (nn + 6.0 - 4.0 * n) * d) / (12.0 * nn)
    for row, (a, b) in zip(x[1:4], ((rr, q), (cc, q), (cr, t2))):
        np.subtract(a, b, out=row)
    x[1:4] /= 24.0
    np.divide(t2, 12.0, out=x[0])
    x[:4] += beta
    return x[:4]


def _fold(rows: np.ndarray) -> np.ndarray:
    """Add the rows of a (k, ...) array into its first, halves onto halves, and return it."""
    while len(rows) > 1:
        half = (len(rows) + 1) // 2
        rows[:len(rows) - half] += rows[half:]
        rows = rows[:half]
    return rows[0]
