"""Self-test of the benchmark: every workload at tiny sizes, in seconds.

Run from the repository root:

    python3 bench/selftest.py

It checks that each run is correct and prints every metric that
``BENCHMARK.json`` names, with its unit; that each per-layer metric is
nonzero on some workload, so none is misnamed; that the tracing wrappers
are gone after the traced runs, leaving the original module attributes;
and, as a negative control, that a deliberately spoiled report is counted
as a failed call.  Exit status 0 means all held.
"""

from __future__ import annotations

import json
import os
import sys

import run

SECONDS = 0.2


def _check_metrics(result: dict, listed: list[dict], label: str) -> list[str]:
    problems = []
    printed = result["metrics"]
    for metric in listed:
        got = printed.get(metric["name"])
        if got is None or got.get("unit") != metric["unit"]:
            problems.append(f"{label}: {metric['name']} missing or not in {metric['unit']}")
    extra = set(printed) - {m["name"] for m in listed}
    if extra:
        problems.append(f"{label}: metrics not in BENCHMARK.json: {sorted(extra)}")
    return problems


def main() -> int:
    run.prepare()
    import tracing

    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    saved = tracing.originals()
    problems = []
    reached = set()  # per-layer metrics that are nonzero on some workload
    for workload in spec["workloads"]:
        name = workload["name"]
        for trace, listed in ((False, spec["end_to_end"]), (True, spec["per_layer"])):
            label = f"{name} trace={int(trace)}"
            out = run.measure(name, 1, SECONDS, trace, mode="tiny", setup_repeats=1)
            result = out["result"]
            if not result["correct"]:
                problems.append(f"{label}: not correct: {out['report']['problems']}")
            problems += _check_metrics(result, listed, label)
            if trace:
                reached |= {k for k, v in result["metrics"].items() if v["value"] != 0}
                if not out["report"]["wrappers_restored"]:
                    problems.append(f"{label}: wrappers still installed after the run")
            print(f"{label}: {result['attempted']} calls, {result['failed']} failed")
        spoiled = run.measure(name, 1, SECONDS, False, mode="tiny", corrupt=True,
                              setup_repeats=1)["result"]
        if spoiled["correct"] or spoiled["failed"] != 1 or spoiled["metrics"]["ok_frac"]["value"] >= 1:
            problems.append(f"{name}: spoiled report not counted as a failure: {spoiled}")
    never = sorted({m["name"] for m in spec["per_layer"]} - reached)
    if never:
        problems.append(f"per-layer metrics that are 0 on every workload: {never}")
    if not tracing.restored(saved):
        problems.append("module attributes differ from the originals after the runs")
    for problem in problems:
        print("FAIL", problem)
    print("selftest:", "ok" if not problems else f"{len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
