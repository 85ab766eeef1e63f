"""Output checks behind ``failed_frac``.

``reference`` recomputes, with plain dense numpy and once per input, the
four complete estimates and the projection variances of eta2 and eta5
from their ordered-tuple definitions.  ``check_reports`` holds each test
report against it; ``check_monte_carlo`` holds a Monte Carlo summary to
its nominal size.  Each returns a list of problems, empty when the output
is correct.
"""

from __future__ import annotations

import math

import numpy as np

REL_TOL = 1e-9
REDUCED_SDS = 6.0  # reduced estimate within this many sigma_hat/sqrt(m) of the reference
# A null rejection count whose exact Binomial(reps, alpha) tail is below this
# fails.  A normal 4-SE band fails a correct program about 2e-4 of the time per
# setting at 200 replicates, because the binomial's upper tail is heavy.
SIZE_TAIL = 1e-6


def reference(w: np.ndarray) -> dict:
    """Complete estimates and projection variances of the network ``w``.

    Means run over ordered tuples of distinct nodes: N = n(n-1) ordered
    pairs and N(n-2) ordered triples.  With r, c the row and column sums
    and t[i] = sum_j w[i,j] w[j,i], the sum of w[i,j] w[i,k] over ordered
    triples is r.r - sum(w^2), and of the two-path w[i,j] w[j,k] it is
    c.r - sum(t).  Every value is invariant to relabelling the nodes.
    """
    n = w.shape[0]
    pairs = n * (n - 1)
    triples = pairs * (n - 2)
    mu = w.sum() / pairs
    r, c = w.sum(axis=1), w.sum(axis=0)
    t = np.einsum("ij,ji->i", w, w)
    sq = np.einsum("ij,ij->", w, w)
    moments = {
        "eta2": t.sum() / pairs,
        "eta3": (r @ r - sq) / triples,
        "eta4": (c @ c - sq) / triples,
        "eta5": (c @ r - t.sum()) / triples,
    }
    # Per-node centred means of the pair, reciprocal and two-path kernels.
    # Node i sits in c_i r_i - t_i two-paths as the middle node, in
    # (w r)_i - t_i as the first and in (w' c)_i - t_i as the last.
    pair = (r + c) / (2.0 * (n - 1)) - mu
    recip = t / (n - 1) - t.sum() / pairs
    through = (c * r - t) + (w @ r - t) + (w.T @ c - t)
    two_path = through / (3.0 * (n - 1) * (n - 2)) - moments["eta5"]
    return {
        "n": n,
        "mu_sq": mu * mu,
        "complete": {k: float(v - mu * mu) for k, v in moments.items()},
        "xi_squared": {
            "eta2": float(np.mean((2.0 * recip - 4.0 * mu * pair) ** 2)),
            "eta5": float(np.mean((3.0 * two_path - 4.0 * mu * pair) ** 2)),
        },
    }


def _close(value: float, ref: float, scale: float) -> bool:
    return abs(value - ref) <= REL_TOL * scale


def check_reports(reports: list[dict], ref: dict, n: int) -> list[str]:
    """Problems with one call's reports (eta2..eta5, then optional extras)."""
    problems = []
    effects = [r["effect"] for r in reports if r["effect"] != "local_effects"]
    if effects != ["eta2", "eta3", "eta4", "eta5"]:
        problems.append(f"expected reports for eta2..eta5, got {effects}")
    for r in reports:
        eff = r["effect"]
        if eff == "local_effects":
            if not r["finite"]:
                problems.append("local_effects: wrong shape or non-finite entries")
            continue
        if eff not in ref["complete"]:
            continue
        stat, p, est = r["statistic"], r["p_value"], r["estimate"]
        if not all(math.isfinite(v) for v in (stat, p, est)):
            problems.append(f"{eff}: non-finite statistic, p-value or estimate")
            continue
        if r["reject"] != (p < r["alpha"]):
            problems.append(f"{eff}: reject={r['reject']} but p={p} and alpha={r['alpha']}")
        expected_p = min(max(math.erfc(abs(stat) / math.sqrt(2.0)), 1e-300), 1.0)
        if not math.isclose(p, expected_p, rel_tol=1e-9):
            problems.append(f"{eff}: p={p} does not match statistic {stat}")
        d = r["diagnosis"]
        if eff in ("eta3", "eta4"):
            if r["branch"] != "reduced" or d is not None:
                problems.append(f"{eff}: must run the reduced branch without a diagnosis")
        else:
            if d is None:
                problems.append(f"{eff}: missing diagnosis")
                continue
            xi2_ref = ref["xi_squared"][eff]
            if not _close(d["xi_squared"], xi2_ref, abs(xi2_ref)):
                problems.append(f"{eff}: xi^2 {d['xi_squared']!r} vs reference {xi2_ref!r}")
            threshold = d["c_constant"] * math.sqrt(math.log(n) / n)
            if not math.isclose(d["threshold"], threshold, rel_tol=1e-12):
                problems.append(f"{eff}: threshold {d['threshold']} vs {threshold}")
            verdict = "non_degenerate" if d["xi_squared"] > d["threshold"] else "degenerate"
            branch = "studentized_complete" if verdict == "non_degenerate" else "reduced"
            if d["verdict"] != verdict or r["branch"] != branch:
                problems.append(f"{eff}: verdict {d['verdict']} / branch {r['branch']} "
                                f"inconsistent with xi^2 {d['xi_squared']} vs {d['threshold']}")
        truth = ref["complete"][eff]
        if r["branch"] == "studentized_complete":
            # Relative to the larger of |estimate| and mu^2, the term it
            # subtracts, so cancellation near zero is not counted as error.
            if r["method"] != "complete" or not _close(est, truth, max(abs(truth), ref["mu_sq"])):
                problems.append(f"{eff}: complete estimate {est!r} vs reference {truth!r}")
            elif not math.isclose(stat, math.sqrt(n) * est / math.sqrt(d["xi_squared"]),
                                  rel_tol=1e-9):
                problems.append(f"{eff}: statistic {stat} is not sqrt(n) est / xi")
        elif r["branch"] == "reduced":
            # statistic = sqrt(m) est / sigma_hat, so sigma_hat/sqrt(m) = est / statistic;
            # the average over all quadruples equals the complete estimate.
            if r["method"] != "reduced" or stat == 0.0:
                problems.append(f"{eff}: reduced report with method {r['method']}, stat {stat}")
            elif abs(est - truth) > REDUCED_SDS * abs(est / stat):
                problems.append(f"{eff}: reduced estimate {est} is more than "
                                f"{REDUCED_SDS} sigma_hat/sqrt(m) from {truth}")
        else:
            problems.append(f"{eff}: unknown branch {r['branch']!r}")
    return problems


def binomial_tails(k: int, n: int, p: float) -> tuple[float, float]:
    """P(X <= k) and P(X >= k) for X ~ Binomial(n, p)."""
    pmf = [math.comb(n, j) * p**j * (1.0 - p) ** (n - j) for j in range(n + 1)]
    return math.fsum(pmf[: k + 1]), math.fsum(pmf[k:])


def check_monte_carlo(summaries: list[dict], reps: int, alpha: float = 0.05) -> list[str]:
    """Null rejection count consistent with Binomial(reps, alpha), per setting."""
    problems = []
    for s in summaries:
        name = s["setting"]
        if s["reps"] != reps or sum(s["branch_counts"].values()) + s["zero_variance_count"] != reps:
            problems.append(f"setting {name}: replicate counts do not add up to {reps}")
        if s["zero_variance_count"] != 0:
            problems.append(f"setting {name}: {s['zero_variance_count']} zero-variance replicates")
        rate = s["rejection_rate"]
        count = round(rate * reps) if math.isfinite(rate) else -1
        if not 0 <= count <= reps or min(binomial_tails(count, reps, alpha)) < SIZE_TAIL:
            problems.append(f"setting {name}: null rejection rate {rate} over {reps} replicates "
                            f"has a Binomial tail below {SIZE_TAIL} at alpha {alpha}")
    return problems
