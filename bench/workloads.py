"""The four benchmark workloads: seeded inputs and one call each.

Each workload builds its inputs from the run seed, then exposes ``call``,
one closed-loop call through the package's public entry points;
``reports``, which turns that call's output into plain dicts; and
``check``, which holds those dicts against ``checks``.  A call takes an optional tracer; with one, the
benchmark opens its own spans around the work it starts (construction,
the first read of ``net.summaries``, ``cli.main``, ``monte_carlo``).
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import os

import numpy as np

from neteffects import cli, inference, network, simulation

import checks

EFFECTS = list(network.EffectKind)
ALPHA = 0.05

# Sizes per mode.  "full" is what the benchmark measures; "tiny" runs every
# workload in well under a second for the self-test.
SIZES = {
    "full": {
        "cli_edgelist": {"n": 750, "density": 0.2, "lam": 1.2},
        "api_dense_n5000": {"n": 5000, "lam": 1.2},
        "reduced_n1000_l1.8": {"n": 1000, "lam": 1.8},
        "montecarlo_n100": {"n": 100, "lam": 1.0, "reps": 500},
    },
    "tiny": {
        "cli_edgelist": {"n": 40, "density": 0.3, "lam": 1.2},
        "api_dense_n5000": {"n": 60, "lam": 1.2},
        "reduced_n1000_l1.8": {"n": 40, "lam": 1.8},
        "montecarlo_n100": {"n": 20, "lam": 1.0, "reps": 40},
    },
}
NAMES = tuple(SIZES["full"])


def _span(tracer, name):
    return contextlib.nullcontext() if tracer is None else tracer.span(name)


def _m(n: int, lam: float) -> int:
    return max(1, int(round(n**lam)))


@dataclasses.dataclass
class Workload:
    name: str
    edges_per_call: int  # off-diagonal weights analysed by one call
    record: dict  # sizes and computed byte counts, for the report
    call: object  # call(tracer=None) -> output
    reports: object  # reports(output) -> list[dict]
    fingerprint: object  # fingerprint(output) -> str, equal iff bit-identical
    check: object  # check(list[dict]) -> list[str] of problems


def build(name: str, seed: int, workdir: str, mode: str = "full") -> Workload:
    """Generate the inputs of workload ``name`` from ``seed`` under ``workdir``."""
    size = SIZES[mode][name]
    rng = np.random.default_rng(np.random.SeedSequence([seed, NAMES.index(name)]))
    test_seed = int(rng.integers(2**31))
    make = {
        "cli_edgelist": _cli_edgelist,
        "api_dense_n5000": _api_dense,
        "reduced_n1000_l1.8": _reduced,
        "montecarlo_n100": _montecarlo,
    }[name]
    return make(name, size, rng, test_seed, workdir)


def _size_record(n: int, lam: float) -> dict:
    m = _m(n, lam)
    return {
        "n": n,
        "lambda": lam,
        "m_per_reduced_effect": m,
        "matrix_bytes_computed": n * n * 8,
        "gather_bytes_computed_per_effect": m * 16 * 8,
    }


def _report_dicts(reports) -> list[dict]:
    """Flatten TestReport objects into the dicts the CLI JSON carries."""
    out = []
    for r in reports:
        d = r.diagnosis
        out.append({
            "effect": r.effect.short_name,
            "branch": r.branch,
            "statistic": r.statistic,
            "p_value": r.p_value,
            "reject": r.reject,
            "alpha": r.alpha,
            "estimate": r.estimate.value,
            "method": r.estimate.method,
            "diagnosis": None if d is None else {
                "xi_squared": d.xi_squared, "threshold": d.threshold,
                "c_constant": d.c_constant, "verdict": d.verdict,
            },
        })
    return out


def _cli_edgelist(name, size, rng, test_seed, workdir) -> Workload:
    n, density, lam = size["n"], size["density"], size["lam"]
    codes = rng.choice(16**12, size=n, replace=False)
    labels = [f"u{int(v):012x}" for v in codes]
    listed = rng.random((n, n)) < density
    listed[np.arange(n), (np.arange(n) + 1) % n] = True  # every node appears
    np.fill_diagonal(listed, False)
    src, dst = np.nonzero(listed)
    order = rng.permutation(src.size)  # file order is not index order
    src, dst = src[order], dst[order]
    weights = np.round(rng.lognormal(0.0, 1.0, src.size), 4)
    path = os.path.join(workdir, "edges.csv")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("source,target,weight\n")
        fh.writelines(
            f"{labels[a]},{labels[b]},{x!r}\n"
            for a, b, x in zip(src.tolist(), dst.tolist(), weights.tolist())
        )
    # repr round-trips exactly, so this is the matrix the CSV describes, up
    # to a relabelling that leaves every checked value unchanged.
    w = np.zeros((n, n))
    w[src, dst] = weights
    ref = checks.reference(w)
    del w
    out_path = os.path.join(workdir, "report.json")
    argv = ["test", "--effect", "all", "--input", path, "--output", out_path,
            "--alpha", repr(ALPHA), "--lambda", repr(lam), "--seed", str(test_seed)]

    def call(tracer=None):
        with _span(tracer, "cli.main"):
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"cli.main exited with {code}")
        with open(out_path, encoding="utf-8") as fh:
            return fh.read()

    def reports(text):
        out = []
        for r in json.loads(text)["results"]:
            d = r["diagnosis"]
            out.append({
                "effect": r["effect"], "branch": r["branch"], "statistic": r["statistic"],
                "p_value": r["p_value"], "reject": r["reject"], "alpha": r["alpha"],
                "estimate": r["estimate"]["value"], "method": r["estimate"]["method"],
                "diagnosis": None if d is None else {
                    k: d[k] for k in ("xi_squared", "threshold", "c_constant", "verdict")
                },
            })
        return out

    def fingerprint(text):
        doc = json.loads(text)
        doc.pop("timing_seconds")  # wall time, differs on every call
        return json.dumps(doc, sort_keys=True)

    record = _size_record(n, lam)
    record["rows"] = int(src.size)
    record["csv_bytes"] = os.path.getsize(path)
    return Workload(name, n * (n - 1), record, call, reports, fingerprint,
                    lambda rs: checks.check_reports(rs, ref, n))


def _dense_workload(name, n, lam, w, test_seed, with_local) -> Workload:
    ref = checks.reference(w)

    def call(tracer=None):
        with _span(tracer, "network.construct"):
            net = network.DirectedWeightedNetwork(w)
        if tracer is not None:
            tracer.fresh_network(net)
        reports = [
            inference.test_effect(net, e, alpha=ALPHA, subsample_exponent=lam, seed=test_seed)
            for e in EFFECTS
        ]
        local = inference.local_effects(net) if with_local else None
        return reports, local

    def reports(output):
        out = _report_dicts(output[0])
        local = output[1]
        if local is not None:
            arrays = [getattr(local, f.name) for f in dataclasses.fields(local)]
            ok = all(a.shape == (n,) and np.isfinite(a).all() for a in arrays)
            out.append({"effect": "local_effects", "finite": ok})
        return out

    def fingerprint(output):
        h = hashlib.sha256(repr(_report_dicts(output[0])).encode())
        if output[1] is not None:
            for f in dataclasses.fields(output[1]):
                h.update(getattr(output[1], f.name).tobytes())
        return h.hexdigest()

    record = _size_record(n, lam)
    return Workload(name, n * (n - 1), record, call, reports, fingerprint,
                    lambda rs: checks.check_reports(rs, ref, n))


def _api_dense(name, size, rng, test_seed, workdir) -> Workload:
    # Setting c under the null: e[i,j] = (a_i - 1)(a_j - 1) + eps[i,j].
    n = size["n"]
    a = rng.normal(1.0, 1.0, n) - 1.0
    w = rng.normal(0.0, 1.0, (n, n))
    w += np.outer(a, a)
    np.fill_diagonal(w, 0.0)
    return _dense_workload(name, n, size["lam"], w, test_seed, with_local=True)


def _reduced(name, size, rng, test_seed, workdir) -> Workload:
    # Setting b under the null: i.i.d. N(0, 1) noise.
    n = size["n"]
    w = rng.normal(0.0, 1.0, (n, n))
    np.fill_diagonal(w, 0.0)
    return _dense_workload(name, n, size["lam"], w, test_seed, with_local=False)


def _montecarlo(name, size, rng, test_seed, workdir) -> Workload:
    n, lam, reps = size["n"], size["lam"], size["reps"]
    specs = [
        simulation.SimulationSpec(setting=s, n=n, reps=reps, null_case=True, alpha=ALPHA,
                                  subsample_exponent=lam, master_seed=test_seed)
        for s in ("a", "b", "c")
    ]

    def call(tracer=None):
        out = []
        for spec in specs:
            with _span(tracer, "simulation.monte_carlo"):
                out.append(simulation.monte_carlo(spec, threads=1))
        return out

    def reports(summaries):
        return [
            {"setting": spec.setting, **dataclasses.asdict(s)}
            for spec, s in zip(specs, summaries)
        ]

    record = {**_size_record(n, lam), "reps_per_setting": reps, "settings": len(specs)}
    return Workload(name, n * (n - 1) * reps * len(specs), record, call, reports,
                    lambda s: repr(reports(s)),
                    lambda rs: checks.check_monte_carlo(rs, reps))
