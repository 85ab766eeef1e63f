"""neteffects benchmark: one workload, one run.

Run from the repository root:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

The run builds the workload's inputs from the seed, calls it in a closed
loop (one client, one call in flight) for S seconds, checks every output
and prints a report followed, on the last line, by one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
gives the end-to-end metrics; ``--trace 1`` alternates untraced calls
with calls wrapped by ``tracing.instrument`` and gives the per-layer
metrics.  The timed end-to-end metrics are wall times scaled to a nominal
host speed measured just before each sample (see ``hostspeed``); the
report keeps the wall times.  The program is imported from ``src/`` next to this directory;
without it the run exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc

import hostspeed

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")  # generated inputs, removed after each run
OUT = os.path.join(ROOT, ".bench_out")  # spans of the last traced run per workload

BLAS_THREADS = 1  # at most nproc; one thread keeps runs on a shared box steady
NPROC = len(os.sched_getaffinity(0))
SETUP_REPEATS = 7
MIN_CALLS = 3
DEADLINE_S = 120.0  # stop calling after this, whatever --seconds says
# Pause before each host-speed kernel.  For about 70 ms after a call that
# frees much memory (cli_edgelist) the kernel reads up to 2.5x slow; that
# is the call's own after-effect, not the host's speed.
SETTLE_S = 0.1


def _listed_metrics(kind: str) -> dict:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics in BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def prepare() -> None:
    """Pin BLAS threads and the process, and import the package from ``src/``, or exit 2."""
    if not os.path.isfile(os.path.join(SRC, "neteffects", "__init__.py")):
        print(f"error: no neteffects package under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    # One vCPU for the run and its set-up children, so that the host-speed
    # kernel runs where the sample it scales runs.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, SRC)
    import neteffects

    if not os.path.abspath(neteffects.__file__).startswith(SRC + os.sep):
        print(f"error: imported neteffects from {neteffects.__file__}, not {SRC}", file=sys.stderr)
        raise SystemExit(2)


def setup_time() -> float:
    """Wall time for a fresh interpreter to import ``neteffects.cli``."""
    # The child prints the system-wide monotonic clock once the import is
    # done, so neither interpreter teardown nor the parent's wait is timed.
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import neteffects.cli, time; "
            "assert neteffects.cli.__file__.startswith(sys.argv[1]); "
            "print(time.clock_gettime(time.CLOCK_MONOTONIC))")
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    done = subprocess.run([sys.executable, "-c", code, SRC], check=True, timeout=120,
                          cwd=ROOT, stdin=subprocess.DEVNULL, capture_output=True, text=True)
    return float(done.stdout) - t0


def _setup_sample() -> tuple[float, float]:
    """A set-up time and the host slowness just before it."""
    gc.collect()
    time.sleep(SETTLE_S)
    slow = hostspeed.slowness()
    return setup_time(), slow


class Calls:
    """Runs workload calls, times them and checks every output."""

    def __init__(self, workload, corrupt: bool = False):
        self.workload = workload
        self.corrupt = corrupt  # negative control: spoil the first report
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.fingerprints: list[str | None] = []

    def run(self, tracer=None) -> float:
        """One call; returns its wall time.  Failures are counted, not raised."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = self.workload.call(tracer)
        except Exception as exc:  # the loop must go on and count it
            duration = time.perf_counter() - t0
            self._fail([f"call raised {exc!r}"])
            return duration
        duration = time.perf_counter() - t0
        try:
            reports = self.workload.reports(out)
            if self.corrupt:
                self.corrupt = False
                _spoil(reports[0])
            problems = self.workload.check(reports)
            fingerprint = self.workload.fingerprint(out)
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            problems, fingerprint = [f"malformed output: {exc!r}"], None
        if problems:
            self._fail(problems)
        else:
            self.fingerprints.append(fingerprint)
        return duration

    def _fail(self, problems: list[str]) -> None:
        self.failed += 1
        self.problems.extend(problems[:5])

    def check_identical(self) -> None:
        """Every passing call on one input must give bit-identical output."""
        first = self.fingerprints[0] if self.fingerprints else None
        differing = sum(fp != first for fp in self.fingerprints)
        if differing:
            self.failed += differing
            self.problems.append(f"{differing} outputs differ from the first one")


def _spoil(report: dict) -> None:
    if "reject" in report:
        report["reject"] = not report["reject"]
    else:
        report["rejection_rate"] += 0.5


def _loop(run_one, seconds: float, started: float, minimum: int) -> None:
    """Call ``run_one(i, share of the window gone)`` until the window ends."""
    t0 = time.perf_counter()
    i = 0
    while i < minimum or time.perf_counter() - t0 < seconds:
        if i and time.perf_counter() - started > DEADLINE_S:
            break
        gc.collect()
        run_one(i, (time.perf_counter() - t0) / max(seconds, 1e-9))
        i += 1


def _peak_mb(run_one) -> float:
    """``tracemalloc`` peak of one call, above the memory in use before it."""
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        run_one()
        return (tracemalloc.get_traced_memory()[1] - base) / 1e6
    finally:
        tracemalloc.stop()


def tail(durations: list[float]) -> dict | None:
    """Highest of p50/p90/p99/p99.9 with at least ten calls beyond it."""
    ordered = sorted(durations)
    for p in (99.9, 99.0, 90.0, 50.0):
        if len(ordered) * (1.0 - p / 100.0) >= 10:
            return {"percentile": p, "s": ordered[math.ceil(p / 100.0 * len(ordered)) - 1]}
    return None


def environment() -> dict:
    import numpy
    import scipy

    src_lines = 0
    pkg = os.path.join(SRC, "neteffects")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), encoding="utf-8") as fh:
                src_lines += sum(1 for _ in fh)
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": NPROC,
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "hostspeed_nominal_s": hostspeed.NOMINAL_S,
        "blas_threads_pinned": BLAS_THREADS,
        "src_lines": src_lines,
    }


def _untraced(workload, seconds: float, started: float, corrupt: bool, setup_repeats: int):
    calls = Calls(workload, corrupt)
    peak = _peak_mb(calls.run)  # also the warm-up call
    # Wall times, each with the host slowness measured just before it.
    durations: list[tuple[float, float]] = []
    setup: list[tuple[float, float]] = []

    def one(i, gone):
        time.sleep(SETTLE_S)
        slow = hostspeed.slowness()
        durations.append((calls.run(), slow))
        # Set-up samples are spread over the window like the calls, so that
        # one slow spell of a shared host does not set all of them.
        while len(setup) < 1 + int((setup_repeats - 1) * min(gone, 1.0)):
            setup.append(_setup_sample())

    _loop(one, seconds, started, MIN_CALLS)
    while len(setup) < setup_repeats:
        setup.append(_setup_sample())
    calls.check_identical()
    scaled = [wall / slow for wall, slow in durations]
    walls = [wall for wall, _ in durations]
    attempted = max(calls.attempted, 1)
    metrics = {
        "setup_s": statistics.median(wall / slow for wall, slow in setup),
        "call_s": statistics.median(scaled),
        "edges_per_s": workload.edges_per_call * len(scaled) / sum(scaled),
        "peak_mem_mb": peak,
        "ok_frac": (attempted - calls.failed) / attempted,
    }
    detail = {
        "wall_setup_s": statistics.median(wall for wall, _ in setup),
        "wall_call_s": statistics.median(walls),
        "wall_edges_per_s": workload.edges_per_call * len(walls) / sum(walls),
        "setup_samples_s": [wall for wall, _ in setup],
        "setup_slowness": [slow for _, slow in setup],
        "call_samples_s": walls,
        "call_slowness": [slow for _, slow in durations],
        "call_tail": tail(scaled),
        "failed_frac": calls.failed / attempted,
    }
    return calls, metrics, detail


def _traced(workload, seconds: float, started: float, corrupt: bool):
    import tracing

    calls = Calls(workload, corrupt)
    saved = tracing.originals()
    restored = True

    def traced_call(tracer) -> float:
        nonlocal restored
        tracer.new_call()
        with tracing.instrument(tracer):
            duration = calls.run(tracer)
        restored = restored and tracing.restored(saved)
        return duration

    mem = tracing.Tracer(memory=True)
    _peak_mb(lambda: traced_call(mem))  # warm-up, and the per-span peaks
    spans = tracing.Tracer()
    plain: list[float] = []
    traced: list[float] = []
    _loop(lambda i, _: (traced.append(traced_call(spans)) if i % 2 else plain.append(calls.run())),
          seconds, started, 4)
    calls.check_identical()  # traced output equals untraced output, bit for bit
    if not restored:
        calls.problems.append("module attributes were not restored after tracing")
    os.makedirs(OUT, exist_ok=True)
    spans.dump(os.path.join(OUT, f"trace-{workload.name}.json"))

    rows = spans.per_call()
    peaks = mem.per_call()[0]
    metrics = {}
    for name in _listed_metrics("per_layer"):
        if name.endswith(".peak_mb"):
            metrics[name] = peaks.get(name, 0.0)
        elif not name.startswith("trace."):
            metrics[name] = statistics.median(row.get(name, 0.0) for row in rows)
    metrics["trace.call_s"] = statistics.median(traced)
    metrics["trace.untraced_call_s"] = statistics.median(plain)
    metrics["trace.overhead_frac"] = metrics["trace.call_s"] / metrics["trace.untraced_call_s"] - 1
    detail = {
        "traced_call_samples_s": traced,
        "untraced_call_samples_s": plain,
        "spans": len(spans.spans),
        "wrappers_restored": restored,
    }
    return calls, metrics, detail


def measure(name: str, seed: int, seconds: float, trace: bool,
            mode: str = "full", corrupt: bool = False, setup_repeats: int = SETUP_REPEATS) -> dict:
    """One benchmark run; returns the result object and the report."""
    import workloads

    started = time.perf_counter()
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=WORK)
    try:
        t0 = time.perf_counter()
        workload = workloads.build(name, seed, workdir, mode)
        input_s = time.perf_counter() - t0
        if trace:
            calls, metrics, detail = _traced(workload, seconds, started, corrupt)
        else:
            calls, metrics, detail = _untraced(workload, seconds, started, corrupt, setup_repeats)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass  # another run is using it
    listed = _listed_metrics("per_layer" if trace else "end_to_end")
    result = {
        "correct": calls.failed == 0 and not calls.problems,
        "attempted": calls.attempted,
        "failed": calls.failed,
        "metrics": {k: {"value": metrics[k], "unit": unit} for k, unit in listed.items()},
    }
    report = {
        "workload": name,
        "seed": seed,
        "mode": mode,
        "trace": int(trace),
        "sizes": workload.record,
        "edges_per_call": workload.edges_per_call,
        "input_generation_s": input_s,
        "run_s": time.perf_counter() - started,
        "environment": environment(),
        "problems": calls.problems[:20],
        **detail,
    }
    return {"result": result, "report": report}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    prepare()
    import workloads

    if args.workload not in workloads.NAMES:
        parser.error(f"--workload must be one of {', '.join(workloads.NAMES)}")
    out = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(out["report"], indent=1))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
