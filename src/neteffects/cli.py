"""Command-line interface.

Subcommands: ``test`` (run effect tests on a CSV edge list), ``diagnose``
(degeneracy check only), ``local-effects`` (per-node effect table as
CSV), and ``simulate`` (Monte Carlo rejection rates for the synthetic
settings).  Reports are JSON documents that echo every parameter needed
to reproduce them; exit status is 0 on success and 2 on input or
validation errors, including a statistic that is undefined (constant
network) or not finite (float64 overflow), and 1 when the reader of
standard output has gone.  A statistical rejection never changes it.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import os
import sys
import time

import numpy as np

from .inference import Settings, check_settings, derive_seed, diagnose_degeneracy, local_effects, test_effect
from .network import EffectKind, read_edge_list
from .simulation import CONFIGS, SimulationSpec, monte_carlo

SCHEMA_VERSION = 2

_EFFECT_CHOICES = [effect.short_name for effect in EffectKind] + ["all"]

# (flag, namespace attribute, inference.Settings field) of each setting a command may take
_SETTING_FLAGS = (("--alpha", "alpha", "alpha"),
                  ("--lambda", "subsample_exponent", "subsample_exponent"),
                  ("--seed", "seed", "seed"),
                  ("--diagnostic-c", "diagnostic_c", "c_constant"))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="neteffects",
        description="Nonparametric tests for network effects in weighted directed networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    threshold = argparse.ArgumentParser(add_help=False)  # the one setting of diagnose
    threshold.add_argument("--diagnostic-c", type=float, default=Settings.c_constant,
                           help="degeneracy threshold constant (default %(default)s)")
    settings = argparse.ArgumentParser(add_help=False, parents=[threshold])  # test and simulate
    settings.add_argument("--alpha", type=float, default=Settings.alpha,
                          help="significance level (default %(default)s)")
    settings.add_argument("--lambda", dest="subsample_exponent", type=float,
                          default=Settings.subsample_exponent,
                          help="subsample-size exponent in [1, 2) (default %(default)s)")
    settings.add_argument("--seed", type=int, default=Settings.seed,
                          help="seed of the random draws (default %(default)s)")
    p_test = sub.add_parser("test", parents=[settings], help="test one or all effects on an edge-list CSV")
    _add_input_output(p_test)
    p_test.add_argument("--effect", choices=_EFFECT_CHOICES, default="all")
    p_test.set_defaults(func=cmd_test)

    p_diag = sub.add_parser("diagnose", parents=[threshold], help="degeneracy diagnosis for one effect")
    _add_input_output(p_diag)
    p_diag.add_argument("--effect", required=True,
                        choices=[effect.short_name for effect in EffectKind if effect.diagnosable])
    p_diag.set_defaults(func=cmd_diagnose)

    p_local = sub.add_parser("local-effects", help="per-node local effects as CSV")
    _add_input_output(p_local)
    p_local.set_defaults(func=cmd_local_effects)

    p_sim = sub.add_parser("simulate", parents=[settings],
                           help="Monte Carlo rejection rate for a synthetic setting")
    p_sim.add_argument("--setting", choices=["a", "b", "c"], required=True)
    p_sim.add_argument("--config", choices=list(CONFIGS), default="normal")
    p_sim.add_argument("--n", type=int, required=True, help="nodes per replicate")
    p_sim.add_argument("--c2", type=float, default=0.0, help="squared signal strength")
    case = p_sim.add_mutually_exclusive_group()
    case.add_argument("--null", dest="null_case", action="store_true", default=None,
                      help="simulate under the null (default when --c2 is 0)")
    case.add_argument("--alt", dest="null_case", action="store_false",
                      help="simulate under the alternative (default when --c2 > 0)")
    p_sim.add_argument("--reps", type=int, default=1000)
    p_sim.add_argument("--threads", type=int, default=1)
    p_sim.add_argument("--emit-stats", metavar="FILE",
                       help="write per-replicate statistics, one per line")
    p_sim.add_argument("--output", help="write the JSON report here instead of stdout")
    p_sim.set_defaults(func=cmd_simulate)
    return parser


def _add_input_output(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--input", required=True, help="CSV edge list with header source,target,weight")
    parser.add_argument("--output", help="write the report here instead of stdout")


def _json_default(obj):
    """What ``json`` cannot encode itself: report dataclasses and effects."""
    if dataclasses.is_dataclass(obj):
        return dataclasses.asdict(obj)
    if isinstance(obj, EffectKind):
        return obj.short_name
    raise TypeError(f"cannot encode {type(obj).__name__} as JSON")


def _write(text: str, path: str | None) -> None:
    """Write ``text`` to the file ``path``, or to stdout when there is none."""
    if path:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _write_document(results, command_echo: dict, started: float, output: str | None) -> None:
    document = {
        "schema_version": SCHEMA_VERSION,
        "command": command_echo,
        "results": results,
        "timing_seconds": time.perf_counter() - started,
    }
    _write(json.dumps(document, indent=2, allow_nan=False, default=_json_default) + "\n", output)


def cmd_test(args) -> None:
    started = time.perf_counter()
    seed = derive_seed(args.seed)
    net = read_edge_list(args.input)
    effects = list(EffectKind) if args.effect == "all" else [args.effect]
    results = [
        test_effect(net, effect, alpha=args.alpha, subsample_exponent=args.subsample_exponent,
                    seed=seed, c_constant=args.diagnostic_c)
        for effect in effects
    ]
    echo = {
        "command": "test", "input": args.input, "effect": args.effect,
        "alpha": args.alpha, "lambda": args.subsample_exponent, "seed": args.seed,
        "derived_seed": seed, "diagnostic_c": args.diagnostic_c,
    }
    _write_document(results, echo, started, args.output)


def cmd_diagnose(args) -> None:
    started = time.perf_counter()
    net = read_edge_list(args.input)
    diagnosis = diagnose_degeneracy(net, args.effect, c_constant=args.diagnostic_c)
    echo = {"command": "diagnose", "input": args.input, "effect": args.effect,
            "diagnostic_c": args.diagnostic_c}
    _write_document(diagnosis, echo, started, args.output)


def cmd_local_effects(args) -> None:
    net = read_edge_list(args.input)
    table = local_effects(net)
    columns = {f.name: getattr(table, f.name).tolist() for f in dataclasses.fields(table)}
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow(["node", *columns])
    writer.writerows([label, *map(repr, row)] for label, *row in zip(net.labels, *columns.values()))
    _write(text.getvalue(), args.output)


def cmd_simulate(args) -> None:
    started = time.perf_counter()
    spec = SimulationSpec(
        setting=args.setting, config=args.config, n=args.n, c_squared=args.c2,
        null_case=args.null_case, reps=args.reps, alpha=args.alpha,
        subsample_exponent=args.subsample_exponent,
        diagnostic_constant=args.diagnostic_c, master_seed=args.seed,
    )
    summary = monte_carlo(spec, threads=args.threads)
    if args.emit_stats:
        _write("".join(f"{value!r}\n" for value in summary.statistics), args.emit_stats)
    echo = {
        "command": "simulate", "setting": args.setting, "config": args.config,
        "n": args.n, "c2": args.c2, "null": spec.null_case, "reps": args.reps,
        "lambda": args.subsample_exponent, "alpha": args.alpha, "seed": args.seed,
        "diagnostic_c": args.diagnostic_c, "threads": args.threads,
        "effect": spec.effect.short_name,
    }
    result = dataclasses.asdict(summary)
    del result["statistics"]  # the --emit-stats file's content, not the report's
    _write_document(result, echo, started, args.output)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        check_settings(*((flag, field, vars(args)[dest]) for flag, dest, field in _SETTING_FLAGS
                         if dest in vars(args)))
        for path in filter(None, (args.output, vars(args).get("emit_stats"))):
            # An output that cannot be written fails before any work, creating nothing.
            folder = os.path.dirname(os.path.abspath(path))
            target = path if os.path.exists(path) else folder
            if os.path.isdir(path) or not os.path.isdir(folder) or not os.access(target, os.W_OK):
                raise OSError(f"cannot write {path!r}")
        # numpy's overflow warnings would repeat the typed error that names it
        with np.errstate(over="ignore", invalid="ignore"):
            args.func(args)
        sys.stdout.flush()  # so that a closed stdout raises here, not at exit
        return 0
    except BrokenPipeError:
        # The reader left; point stdout at devnull so the flush at exit is silent.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ValueError, OSError) as exc:  # NetworkEffectsError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
