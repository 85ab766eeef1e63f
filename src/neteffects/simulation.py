"""Synthetic network generators and a Monte Carlo test harness.

Settings "a", "b", and "c" are additive/multiplicative latent-variable
models with unit-variance latents, so their tested effect has a known
population value (zero under the null, c_squared under the alternative),
used to measure empirical type-I error rate and power.  Four further
generators produce known degenerate and non-degenerate cases for the two
diagnosable effects, used to exercise the degeneracy diagnostic.
"""

from __future__ import annotations

import math
import os
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import InvalidSpecError, ZeroVarianceError
from .estimators import check_integer, check_subsample_exponent, is_real
from .inference import check_alpha, check_c_constant, test_effect
from .network import DirectedWeightedNetwork, EffectKind

__all__ = [
    "SETTINGS",
    "CONFIGS",
    "SimulationSpec",
    "MonteCarloSummary",
    "default_effect",
    "generate",
    "monte_carlo",
]

# Generators for measuring size and power (tested effect in parentheses):
#   a: e[i,j] = a_i + b_j + c * gamma_{ij} + eps[i,j]   (reciprocity; null c=0)
#   b: e[i,j] = c * a_i + eps[i,j]                      (same-sender; null c=0)
#   c: e[i,j] = c (a_i - d)(a_j - d) + eps[i,j]         (sender-receiver;
#      null c=d=1, alternative d=0)
# Generators for exercising the degeneracy diagnostic:
#   degenerate_sender_receiver:     e = X_i + gamma_{ij} + eps
#   nondegenerate_sender_receiver:  e = X_i (X_j - 1/2) + eps
#   degenerate_reciprocity:         e = gamma_{ij} + eps
#   nondegenerate_reciprocity:      e = X_i - X_j + sqrt(2) gamma_{ij} + eps
_DEFAULT_EFFECT = {
    "a": EffectKind.RECIPROCITY,
    "b": EffectKind.SAME_SENDER,
    "c": EffectKind.SENDER_RECEIVER,
    "degenerate_sender_receiver": EffectKind.SENDER_RECEIVER,
    "nondegenerate_sender_receiver": EffectKind.SENDER_RECEIVER,
    "degenerate_reciprocity": EffectKind.RECIPROCITY,
    "nondegenerate_reciprocity": EffectKind.RECIPROCITY,
}
SETTINGS = tuple(_DEFAULT_EFFECT)
CONFIGS = ("normal", "poisson")


def default_effect(setting: str) -> EffectKind:
    """The effect each setting is designed to exercise."""
    return _DEFAULT_EFFECT[setting]


@dataclass(frozen=True)
class SimulationSpec:
    """One Monte Carlo experiment: a generator plus a test configuration."""

    setting: str
    n: int
    reps: int
    config: str = "normal"
    c_squared: float = 0.0
    null_case: bool | None = None  # None: the null exactly when c_squared is 0
    effect: EffectKind | str | None = None  # None: the setting's default_effect
    alpha: float = 0.05
    subsample_exponent: float = 1.2
    diagnostic_constant: float = 1.0
    master_seed: int = 0

    def __post_init__(self) -> None:
        _check_design(self.setting, self.config, self.n, self.c_squared)
        check_integer(self.reps, "reps", 1, InvalidSpecError)
        if self.null_case is None:
            object.__setattr__(self, "null_case", self.c_squared == 0)
        if self.null_case and self.c_squared > 0:
            raise InvalidSpecError(
                f"c_squared is {self.c_squared} but null_case=True simulates no signal; "
                "set null_case=False for the alternative, or c_squared=0"
            )
        try:
            check_alpha(self.alpha)
            check_subsample_exponent(self.subsample_exponent, "subsample_exponent")
            check_c_constant(self.diagnostic_constant, "diagnostic_constant")
            check_integer(self.master_seed, "master_seed")
            effect = default_effect(self.setting) if self.effect is None else EffectKind.parse(self.effect)
        except ValueError as exc:
            raise InvalidSpecError(str(exc)) from None
        object.__setattr__(self, "effect", effect)


@dataclass(frozen=True)
class MonteCarloSummary:
    """Empirical rejection rate over independent replicates."""

    rejection_rate: float
    reps: int
    standard_error: float
    branch_counts: dict[str, int]
    zero_variance_count: int = 0
    statistics: tuple[float, ...] = ()


def _check_design(setting: str, config: str, n: int, c_squared: float) -> None:
    """The one check of a generator's setting, latent config, size and signal."""
    if setting not in SETTINGS:
        raise InvalidSpecError(f"unknown setting {setting!r}; expected one of {SETTINGS}")
    if config not in CONFIGS:
        raise InvalidSpecError(f"unknown config {config!r}; expected one of {CONFIGS}")
    check_integer(n, "n", 4, InvalidSpecError)
    if not is_real(c_squared) or not 0.0 <= c_squared < np.inf:
        raise InvalidSpecError(f"c_squared must be finite and nonnegative, got {c_squared!r}")


def _draw_latents(config: str, rng: np.random.Generator, n: int, want: str) -> np.ndarray:
    """One i.i.d. latent block: node vector or symmetric/full matrix."""
    size = (n, n) if want in ("pair", "noise") else n
    if config == "normal":
        values = rng.normal(0.0, 1.0, size) if want == "noise" else rng.normal(1.0, 1.0, size)
    else:
        values = rng.poisson(1.0, size).astype(np.float64)
    if want == "pair":  # symmetric pair-level latent: draw upper triangle, mirror
        upper = np.triu(values, 1)
        values = upper + upper.T
    return values


def generate(
    setting: str,
    config: str,
    n: int,
    c_squared: float,
    null_case: bool,
    seed: int | np.random.SeedSequence,
) -> DirectedWeightedNetwork:
    """Draw one synthetic network; deterministic given the seed (an integer or a SeedSequence).

    The degeneracy-case generators always use the normal-configuration
    latent laws (node and pair latents N(1, 1), noise N(0, 1)); the
    ``config`` argument selects normal or Poisson latents for settings
    a, b, and c only.
    """
    _check_design(setting, config, n, c_squared)
    if not isinstance(seed, np.random.SeedSequence):
        check_integer(seed, "seed", 0, InvalidSpecError)
    rng = np.random.default_rng(seed)
    c = 0.0 if null_case else math.sqrt(c_squared)

    if setting == "a":
        a = _draw_latents(config, rng, n, "node")
        b = _draw_latents(config, rng, n, "node")
        gamma = _draw_latents(config, rng, n, "pair")
        eps = _draw_latents(config, rng, n, "noise")
        w = a[:, None] + b[None, :] + c * gamma + eps
    elif setting == "b":
        a = _draw_latents(config, rng, n, "node")
        eps = _draw_latents(config, rng, n, "noise")
        w = c * a[:, None] + eps
    elif setting == "c":
        a = _draw_latents(config, rng, n, "node")
        eps = _draw_latents(config, rng, n, "noise")
        scale, shift = (1.0, 1.0) if null_case else (c, 0.0)
        centered = a - shift
        w = scale * np.outer(centered, centered) + eps
    else:
        x = _draw_latents("normal", rng, n, "node")
        gamma = _draw_latents("normal", rng, n, "pair")
        eps = _draw_latents("normal", rng, n, "noise")
        if setting == "degenerate_sender_receiver":
            w = x[:, None] + gamma + eps
        elif setting == "nondegenerate_sender_receiver":
            w = x[:, None] * (x[None, :] - 0.5) + eps
        elif setting == "degenerate_reciprocity":
            w = gamma + eps
        else:  # nondegenerate_reciprocity
            w = x[:, None] - x[None, :] + np.sqrt(2.0) * gamma + eps
    np.fill_diagonal(w, 0.0)
    return DirectedWeightedNetwork(w)


def _run_replicate(spec: SimulationSpec, rep: int) -> tuple[bool, str, float] | None:
    """One replicate: generate, test, report (reject, branch, statistic).

    Returns None when the studentized statistic was undefined.  Each
    replicate owns RNG streams derived from (master_seed, rep), so
    results do not depend on execution order or thread count.
    """
    root = np.random.SeedSequence((spec.master_seed, rep))
    net_stream, subsample_stream = root.spawn(2)
    net = generate(spec.setting, spec.config, spec.n, spec.c_squared, spec.null_case, net_stream)
    try:
        report = test_effect(
            net,
            spec.effect,
            alpha=spec.alpha,
            subsample_exponent=spec.subsample_exponent,
            seed=int(subsample_stream.generate_state(1)[0]),
            c_constant=spec.diagnostic_constant,
        )
    except ZeroVarianceError:
        return None
    return report.reject, report.branch, report.statistic


_CHUNK = 32  # replicates per task sent to a pool worker


def _available_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):  # not on every platform
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def monte_carlo(spec: SimulationSpec, threads: int = 1) -> MonteCarloSummary:
    """Estimate the rejection rate of the tested effect over ``spec.reps``
    independent replicates.

    Replicates where the studentized statistic was undefined are tallied
    in ``zero_variance_count`` and count as non-rejections (none occur
    under the settings above); the others' statistics are kept in order.
    With ``threads`` > 1, replicates run in a process pool of at most
    ``threads`` workers, no more than the CPUs available or the chunks of
    replicates; the result is identical to the serial run.
    """
    check_integer(threads, "threads", 1, InvalidSpecError)
    reps = spec.reps
    if threads == 1:
        outcomes = [_run_replicate(spec, rep) for rep in range(reps)]
    else:
        from concurrent.futures import ProcessPoolExecutor  # a serial run never imports it
        # The pool may start every worker at once, so never ask for more than can run.
        workers = min(threads, _available_cpus(), -(-reps // _CHUNK))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_run_replicate, [spec] * reps, range(reps), chunksize=_CHUNK))

    kept = [outcome for outcome in outcomes if outcome is not None]
    rate = sum(int(reject) for reject, _, _ in kept) / reps
    return MonteCarloSummary(
        rejection_rate=rate,
        reps=reps,
        standard_error=float(np.sqrt(rate * (1.0 - rate) / reps)),
        branch_counts=dict(Counter(branch for _, branch, _ in kept)),
        zero_variance_count=reps - len(kept),
        statistics=tuple(statistic for _, _, statistic in kept),
    )
