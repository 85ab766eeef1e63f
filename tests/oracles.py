"""Brute-force reference implementations used only by the tests.

Everything here is written directly from the defining sums with explicit
loops over index tuples, independently of the package's closed-form
accumulations, so agreement between the two is a real check.
"""

import csv
import itertools
import math

import numpy as np

from neteffects import (
    DirectedWeightedNetwork,
    DuplicateEdgeError,
    EffectKind,
    NonFiniteWeightError,
    SelfLoopError,
)


def pair_mean(w, i, j):
    return (w[i, j] + w[j, i]) / 2.0


def recip(w, i, j):
    return w[i, j] * w[j, i]


def sender(w, i, j, k):
    return (w[i, j] * w[i, k] + w[j, i] * w[j, k] + w[k, i] * w[k, j]) / 3.0


def receiver(w, i, j, k):
    return (w[i, j] * w[k, j] + w[j, i] * w[k, i] + w[i, k] * w[j, k]) / 3.0


def two_path(w, i, j, k):
    return sum(w[a, b] * w[b, c] for a, b, c in itertools.permutations((i, j, k))) / 6.0


def disjoint(w, quad):
    return sum(w[a, b] * w[c, d] for a, b, c, d in itertools.permutations(quad)) / 24.0


def correction(w, quad, n):
    """Literal ordered-tuple enumeration of the finite-sample correction."""
    pair_sum = sum(w[a, b] * w[b, a] + w[a, b] ** 2 for a, b in itertools.permutations(quad, 2))
    triple_sum = sum(
        sender(w, a, b, c) + receiver(w, a, b, c) + 2.0 * two_path(w, a, b, c)
        for a, b, c in itertools.permutations(quad, 3)
    )
    nn = n * n - n
    return -(
        pair_sum / (12.0 * nn)
        + (n - 2) * triple_sum / (24.0 * nn)
        + (6.0 - 4.0 * n) * disjoint(w, quad) / nn
    )


TRIPLE_KERNELS = {"same_sender": sender, "same_receiver": receiver, "sender_receiver": two_path}


def quadruple_kernel(effect, w, quad, n):
    """The 4-tuple kernel: the mean pair (reciprocity) or triple kernel over
    the quad, minus the disjoint-pair product, plus the correction."""
    if effect is EffectKind.RECIPROCITY:
        base = sum(recip(w, a, b) for a, b in itertools.combinations(quad, 2)) / 6.0
    else:
        triple = TRIPLE_KERNELS[effect.value]
        base = sum(triple(w, *t) for t in itertools.combinations(quad, 3)) / 4.0
    return base - disjoint(w, quad) + correction(w, quad, n)


def naive_mean_edge(w):
    n = w.shape[0]
    return sum(w[i, j] for i in range(n) for j in range(n) if i != j) / (n * (n - 1))


def naive_complete(w, effect_name):
    """Effect estimate by enumerating every pair or triple."""
    n = w.shape[0]
    mu = naive_mean_edge(w)
    if effect_name == "reciprocity":
        vals = [recip(w, i, j) for i, j in itertools.combinations(range(n), 2)]
    else:
        kernel = TRIPLE_KERNELS[effect_name]
        vals = [kernel(w, *t) for t in itertools.combinations(range(n), 3)]
    return float(np.mean(vals)) - mu * mu


def naive_two_path_node_means(w):
    """Per-node mean of the two-path kernel over triples containing the node,
    centered by the global triple mean."""
    n = w.shape[0]
    all_vals = [two_path(w, *t) for t in itertools.combinations(range(n), 3)]
    grand = float(np.mean(all_vals))
    out = np.zeros(n)
    for i in range(n):
        vals = [two_path(w, i, j, k) for j, k in itertools.combinations(range(n), 2)
                if i not in (j, k)]
        out[i] = float(np.mean(vals)) - grand
    return out


def naive_projection(w, effect_name):
    """Per-node leading projection by per-node enumeration: the combined
    centered kernel means, with no shared accumulation code."""
    n = w.shape[0]
    mu = naive_mean_edge(w)
    pair_vals = {frozenset((i, j)): pair_mean(w, i, j)
                 for i, j in itertools.combinations(range(n), 2)}
    grand_pair = float(np.mean(list(pair_vals.values())))
    g1 = np.array([
        np.mean([pair_vals[frozenset((i, j))] for j in range(n) if j != i]) - grand_pair
        for i in range(n)
    ])
    if effect_name == "reciprocity":
        rec_vals = {frozenset((i, j)): recip(w, i, j)
                    for i, j in itertools.combinations(range(n), 2)}
        grand = float(np.mean(list(rec_vals.values())))
        gk = np.array([
            np.mean([rec_vals[frozenset((i, j))] for j in range(n) if j != i]) - grand
            for i in range(n)
        ])
        return 2.0 * gk - 4.0 * mu * g1
    return 3.0 * naive_two_path_node_means(w) - 4.0 * mu * g1


def naive_projection_variance(w, effect_name):
    """Degeneracy statistic: the mean square of :func:`naive_projection`."""
    return float(np.mean(naive_projection(w, effect_name) ** 2))


def reference_node_summaries(w):
    """The five node sums of a matrix or a (..., k, k) stack, each as one
    whole-array expression with the node on its own axis: out, in, out
    squared, in squared and reciprocal."""
    return (
        w.sum(axis=-1),
        w.sum(axis=-2),
        np.einsum("...ij,...ij->...i", w, w),
        np.einsum("...ij,...ij->...j", w, w),
        np.einsum("...ij,...ji->...i", w, w),
    )


def naive_local_effects(w):
    """The four per-node local effects by double loops over the definitions."""
    n = w.shape[0]
    mu = naive_mean_edge(w)
    rec = np.zeros(n)
    ss = np.zeros(n)
    sr = np.zeros(n)
    srec = np.zeros(n)
    for i in range(n):
        rec[i] = sum((w[i, j] - mu) * (w[j, i] - mu) for j in range(n) if j != i) / (n - 1)
        pairs = [(j, k) for j in range(n) for k in range(n)
                 if len({i, j, k}) == 3]
        ss[i] = sum((w[i, j] - mu) * (w[i, k] - mu) for j, k in pairs) / ((n - 1) * (n - 2))
        srec[i] = sum((w[j, i] - mu) * (w[k, i] - mu) for j, k in pairs) / ((n - 1) * (n - 2))
        sr[i] = sum((w[j, i] - mu) * (w[i, k] - mu) for j, k in pairs) / ((n - 1) * (n - 2))
    return rec, ss, srec, sr


def reference_from_edge_list(records, node_universe=None):
    """Record-by-record network construction: a record that is not a triple
    or has an unparseable weight raises first, as in a CSV, then the first
    offending record."""
    parsed = []
    for record in map(tuple, records):  # shape, then weight, record by record, as a CSV reads
        if len(record) != 3:
            raise TypeError("each record must be a (source, target, weight) triple")
        source, target, weight = record
        try:
            parsed.append((source, target, float(weight)))
        except (TypeError, ValueError):
            raise NonFiniteWeightError(f"cannot parse weight {weight!r}") from None
    recs = parsed
    labels = {str(source) for source, _, _ in recs} | {str(target) for _, target, _ in recs}
    if node_universe is not None:
        labels |= {str(u) for u in node_universe}
    if not labels:
        raise ValueError("no records and no node universe: cannot size the network")
    ordered = tuple(sorted(labels))
    index = {lab: i for i, lab in enumerate(ordered)}

    n = len(ordered)
    weights = np.zeros((n, n), dtype=np.float64)
    seen = set()
    for source, target, weight in recs:
        if str(source) == str(target):
            raise SelfLoopError(f"self-loop record {source!r} -> {target!r}")
        if not math.isfinite(weight):
            raise NonFiniteWeightError(f"non-finite weight on {source!r} -> {target!r}")
        ij = (index[str(source)], index[str(target)])
        if ij in seen:
            raise DuplicateEdgeError(f"duplicate edge {source!r} -> {target!r}")
        seen.add(ij)
        weights[ij] = weight
    return DirectedWeightedNetwork(weights, labels=ordered)


def reference_read_edge_list(path):
    """Row-by-row CSV reader: one (source, target, weight) record per row, then
    the function above."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip().lower() for h in header[:3]] != ["source", "target", "weight"]:
            raise ValueError(f"{path}: expected CSV header 'source,target,weight'")
        records = []
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) < 3:
                raise ValueError(f"{path}:{lineno}: expected 3 columns, got {len(row)}")
            try:
                weight = float(row[2])
            except ValueError:
                raise NonFiniteWeightError(f"{path}:{lineno}: cannot parse weight {row[2]!r}") from None
            records.append((row[0].strip(), row[1].strip(), weight))
    return reference_from_edge_list(records)


def reference_sample_quadruples(n, subsample_exponent, seed):
    """The sort-based rejection sampler: each round sorts every row and
    redraws, in row order, the rows with a repeated index."""
    m = max(1, int(round(n**subsample_exponent)))
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    tuples = rng.integers(0, n, size=(m, 4), dtype=np.int64)
    while True:
        collided = (np.diff(np.sort(tuples, axis=1), axis=1) == 0).any(axis=1)
        if not collided.any():
            return tuples
        tuples[collided] = rng.integers(0, n, size=(int(collided.sum()), 4), dtype=np.int64)
