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


def naive_projection_variance(w, effect_name):
    """Degeneracy statistic by per-node enumeration: mean square of the
    combined centered kernel means, with no shared accumulation code."""
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
        combined = 2.0 * gk - 4.0 * mu * g1
    else:
        gk = naive_two_path_node_means(w)
        combined = 3.0 * gk - 4.0 * mu * g1
    return float(np.mean(combined**2))


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
    """Record-by-record network construction: the first offending record raises."""
    recs = [tuple(r) for r in records]
    if any(len(r) != 3 for r in recs):
        raise TypeError("each record must be a (source, target, weight) triple")
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
        w = float(weight)
        if not math.isfinite(w):
            raise NonFiniteWeightError(f"non-finite weight on {source!r} -> {target!r}")
        ij = (index[str(source)], index[str(target)])
        if ij in seen:
            raise DuplicateEdgeError(f"duplicate edge {source!r} -> {target!r}")
        seen.add(ij)
        weights[ij] = w
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
