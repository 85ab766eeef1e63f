"""Brute-force reference implementations used only by the tests.

Everything here is written directly from the defining sums with explicit
loops over index tuples, independently of the package's closed-form
accumulations, so agreement between the two is a real check.
"""

import csv
import itertools
import math
from fractions import Fraction

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


# The kernel's formulas below take integer constants only, so on an object array
# of Fractions they evaluate exactly; on floats they give the same bits as float
# constants would.
def recip(w, i, j):
    return w[i, j] * w[j, i]


def sender(w, i, j, k):
    return (w[i, j] * w[i, k] + w[j, i] * w[j, k] + w[k, i] * w[k, j]) / 3


def receiver(w, i, j, k):
    return (w[i, j] * w[k, j] + w[j, i] * w[k, i] + w[i, k] * w[j, k]) / 3


def two_path(w, i, j, k):
    return sum(w[a, b] * w[b, c] for a, b, c in itertools.permutations((i, j, k))) / 6


def disjoint(w, quad):
    return sum(w[a, b] * w[c, d] for a, b, c, d in itertools.permutations(quad)) / 24


def correction(w, quad, n):
    """Literal ordered-tuple enumeration of the finite-sample correction."""
    pair_sum = sum(w[a, b] * w[b, a] + w[a, b] ** 2 for a, b in itertools.permutations(quad, 2))
    triple_sum = sum(
        sender(w, a, b, c) + receiver(w, a, b, c) + 2 * two_path(w, a, b, c)
        for a, b, c in itertools.permutations(quad, 3)
    )
    nn = n * n - n
    return -(
        pair_sum / (12 * nn)
        + (n - 2) * triple_sum / (24 * nn)
        + (6 - 4 * n) * disjoint(w, quad) / nn
    )


TRIPLE_KERNELS = {"same_sender": sender, "same_receiver": receiver, "sender_receiver": two_path}


def motif_mean(effect, w, quad):
    """The mean pair (reciprocity) or triple kernel over the quad."""
    if effect is EffectKind.RECIPROCITY:
        return sum(recip(w, a, b) for a, b in itertools.combinations(quad, 2)) / 6
    triple = TRIPLE_KERNELS[effect.value]
    return sum(triple(w, *t) for t in itertools.combinations(quad, 3)) / 4


def quadruple_kernel(effect, w, quad, n):
    """The 4-tuple kernel: the mean pair (reciprocity) or triple kernel over
    the quad, minus the disjoint-pair product, plus the correction."""
    return motif_mean(effect, w, quad) - disjoint(w, quad) + correction(w, quad, n)


def exact_kernel_values(w, quads):
    """The four quadruple kernels, in :class:`EffectKind` order, of each row of
    an (m, 4) index array, as exact Fractions: :func:`quadruple_kernel`'s terms
    on the quad's sub-matrix of the float weights, each converted exactly, with
    the two terms that do not depend on the effect taken once per quad."""
    n, values = w.shape[0], []
    for quad in quads:
        sub = np.array([[Fraction(float(w[a, b])) for b in quad] for a in quad], dtype=object)
        shared = correction(sub, range(4), n) - disjoint(sub, range(4))
        values.append([motif_mean(effect, sub, range(4)) + shared for effect in EffectKind])
    return [list(column) for column in zip(*values)]


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


def dense_projection(w, effect):
    """:func:`naive_projection` in whole-matrix numpy, for networks too large to
    enumerate.  A node's mean kernel over the pairs or triples that hold it comes
    from sums over ordered tuples with the node in each place, less the mean over
    all of them; the pair-mean term is the same.  Two-paths a -> b -> c over
    distinct nodes are the entries of w @ w less its diagonal, i -> j -> i."""
    n = w.shape[0]
    mu = w.sum() / (n * (n - 1))
    pair = (w + w.T) / 2.0
    g1 = pair.sum(axis=1) / (n - 1) - pair.sum() / (n * (n - 1))
    if effect is EffectKind.RECIPROCITY:
        product = w * w.T
        gk = product.sum(axis=1) / (n - 1) - product.sum() / (n * (n - 1))
        return 2.0 * gk - 4.0 * mu * g1
    paths = w @ w
    back = np.diag(paths)
    first = paths.sum(axis=1) - back  # i -> b -> c
    middle = w.sum(axis=0) * w.sum(axis=1) - back  # a -> i -> c
    last = paths.sum(axis=0) - back  # a -> b -> i
    # each triple holding i is 6 ordered paths, C(n-1, 2) triples
    node = (first + middle + last) / (3.0 * (n - 1) * (n - 2))
    grand = (paths.sum() - back.sum()) / (n * (n - 1) * (n - 2))
    return 3.0 * (node - grand) - 4.0 * mu * g1


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


def stack_kernel_values(w, quads):
    """The four quadruple kernels, in :class:`EffectKind` order, on the
    C-ordered (m, 4, 4) stack of induced sub-matrices: the vectorized
    formula with the quad on the first axis and each within-quad sum along
    the last, an independent layout for the package's position-major one."""
    n = w.shape[0]
    s = w[quads[:, :, None], quads[:, None, :]]
    r, c, q, q_in, t = reference_node_summaries(s)
    motif = {
        EffectKind.RECIPROCITY: t,
        EffectKind.SAME_SENDER: r * r - q,
        EffectKind.SAME_RECEIVER: c * c - q_in,
        EffectKind.SENDER_RECEIVER: c * r - t,
    }
    kernel_sum = {e: m.sum(axis=1) / math.factorial(e.arity) for e, m in motif.items()}
    pair_sum = t.sum(axis=1) + q.sum(axis=1)

    def pair(a, b):
        return s[:, a, b] + s[:, b, a]

    disjoint_mean = (pair(0, 1) * pair(2, 3) + pair(0, 2) * pair(1, 3) + pair(0, 3) * pair(1, 2)) / 12.0
    triple_sum = (kernel_sum[EffectKind.SAME_SENDER] + kernel_sum[EffectKind.SAME_RECEIVER]
                  + 2.0 * kernel_sum[EffectKind.SENDER_RECEIVER])
    nn = float(n * n - n)
    corr = -(pair_sum / (12.0 * nn) + (n - 2) * triple_sum / (4.0 * nn)
             + (6.0 - 4.0 * n) * disjoint_mean / nn)
    return [kernel_sum[e] / math.comb(4, e.arity) - disjoint_mean + corr for e in EffectKind]


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
    offending record, quoted by the labels the network stores.  A string
    universe is one value, not a collection of labels."""
    if isinstance(node_universe, (str, bytes)):
        raise TypeError(f"node_universe must be a collection of labels, not a {type(node_universe).__name__}")
    parsed = []
    for record in records:  # shape, then weight, record by record, as a CSV reads
        try:
            record = () if isinstance(record, (str, bytes)) else tuple(record)  # a string is no triple
        except TypeError:  # not iterable
            record = ()
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
            raise SelfLoopError(f"self-loop record {str(source)!r} -> {str(target)!r}")
        if not math.isfinite(weight):
            raise NonFiniteWeightError(f"non-finite weight on {str(source)!r} -> {str(target)!r}")
        ij = (index[str(source)], index[str(target)])
        if ij in seen:
            raise DuplicateEdgeError(f"duplicate edge {str(source)!r} -> {str(target)!r}")
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


def reference_valid_rows(n, m, seed):
    """The first m rows with 4 distinct indices, in stream order, of one call
    ``default_rng(SeedSequence(seed)).integers(0, n, (k, 4))``, k doubled until
    the call holds m of them (a longer call starts with the same rows)."""
    k = 2 * m + 64
    while True:
        rows = np.random.default_rng(np.random.SeedSequence(seed)).integers(0, n, (k, 4), dtype=np.int64)
        valid = rows[[len(set(row)) == 4 for row in rows.tolist()]]
        if len(valid) >= m:
            return valid[:m]
        k *= 2


def reference_draw_latents(config, rng, n, want):
    """One latent block as ``rng.normal(loc, 1)`` or ``rng.poisson(1)`` draws it;
    a pair latent's upper triangle mirrored by ``np.triu``."""
    size = (n, n) if want in ("pair", "noise") else n
    if config == "normal":
        values = rng.normal(0.0, 1.0, size) if want == "noise" else rng.normal(1.0, 1.0, size)
    else:
        values = rng.poisson(1.0, size).astype(np.float64)
    if want == "pair":
        upper = np.triu(values, 1)
        values = upper + upper.T
    return values


def reference_generate(setting, config, n, c_squared, null_case, seed):
    """The weights of ``simulation.generate``'s network, each setting's formula as
    one out-of-place expression over its latents, drawn in order."""
    rng = np.random.default_rng(seed)
    c = 0.0 if null_case else math.sqrt(c_squared)
    if setting == "a":
        a = reference_draw_latents(config, rng, n, "node")
        b = reference_draw_latents(config, rng, n, "node")
        gamma = reference_draw_latents(config, rng, n, "pair")
        eps = reference_draw_latents(config, rng, n, "noise")
        w = a[:, None] + b[None, :] + c * gamma + eps
    elif setting == "b":
        a = reference_draw_latents(config, rng, n, "node")
        eps = reference_draw_latents(config, rng, n, "noise")
        w = c * a[:, None] + eps
    elif setting == "c":
        a = reference_draw_latents(config, rng, n, "node")
        eps = reference_draw_latents(config, rng, n, "noise")
        scale, shift = (1.0, 1.0) if null_case else (c, 0.0)
        centered = a - shift
        w = scale * np.outer(centered, centered) + eps
    else:
        x = reference_draw_latents("normal", rng, n, "node")
        gamma = reference_draw_latents("normal", rng, n, "pair")
        eps = reference_draw_latents("normal", rng, n, "noise")
        if setting == "degenerate_sender_receiver":
            w = x[:, None] + gamma + eps
        elif setting == "nondegenerate_sender_receiver":
            w = x[:, None] * (x[None, :] - 0.5) + eps
        elif setting == "degenerate_reciprocity":
            w = gamma + eps
        else:
            w = x[:, None] - x[None, :] + np.sqrt(2.0) * gamma + eps
    np.fill_diagonal(w, 0.0)
    return w


def gravity_counts(n, seed):
    """A null of sparse counts shaped like a faculty hiring network: w[i, j] ~
    Poisson(exp(a_i + b_j)), sender and receiver propensities a, b i.i.d.
    N(-1, 1) and independent of each other, so reciprocity and the
    sender-receiver effect are null."""
    rng = np.random.default_rng(seed)
    a = rng.normal(-1.0, 1.0, n)
    b = rng.normal(-1.0, 1.0, n)
    w = rng.poisson(np.exp(a[:, None] + b[None, :])).astype(np.float64)
    np.fill_diagonal(w, 0.0)
    return w
