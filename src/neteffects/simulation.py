"""Synthetic network generators and a Monte Carlo test harness.

Settings "a", "b", and "c" are additive/multiplicative latent-variable
models with unit-variance latents, so their tested effect has a known
population value (zero under the null, c_squared under the alternative),
used to measure empirical type-I error rate and power.  Four further
generators produce known degenerate and non-degenerate cases for the two
diagnosable effects, used to exercise the degeneracy diagnostic.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import InvalidSpecError, ZeroVarianceError
from .estimators import check_subsample_exponent
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
SETTINGS = (
    "a",
    "b",
    "c",
    "degenerate_sender_receiver",
    "nondegenerate_sender_receiver",
    "degenerate_reciprocity",
    "nondegenerate_reciprocity",
)
CONFIGS = ("normal", "poisson")

_DEFAULT_EFFECT = {
    "a": EffectKind.RECIPROCITY,
    "b": EffectKind.SAME_SENDER,
    "c": EffectKind.SENDER_RECEIVER,
    "degenerate_sender_receiver": EffectKind.SENDER_RECEIVER,
    "nondegenerate_sender_receiver": EffectKind.SENDER_RECEIVER,
    "degenerate_reciprocity": EffectKind.RECIPROCITY,
    "nondegenerate_reciprocity": EffectKind.RECIPROCITY,
}


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
    null_case: bool = True
    effect: EffectKind | None = None
    alpha: float = 0.05
    subsample_exponent: float = 1.2
    diagnostic_constant: float = 1.0
    master_seed: int = 0

    def __post_init__(self) -> None:
        if self.setting not in SETTINGS:
            raise InvalidSpecError(f"unknown setting {self.setting!r}; expected one of {SETTINGS}")
        if self.config not in CONFIGS:
            raise InvalidSpecError(f"unknown config {self.config!r}; expected one of {CONFIGS}")
        if self.n < 4:
            raise InvalidSpecError(f"n must be at least 4, got {self.n}")
        if self.reps < 1:
            raise InvalidSpecError(f"reps must be at least 1, got {self.reps}")
        if self.c_squared < 0:
            raise InvalidSpecError(f"c_squared must be nonnegative, got {self.c_squared}")
        try:
            check_alpha(self.alpha)
            check_subsample_exponent(self.subsample_exponent, "subsample_exponent")
            check_c_constant(self.diagnostic_constant, "diagnostic_constant")
        except ValueError as exc:
            raise InvalidSpecError(str(exc)) from None
        if self.effect is None:
            object.__setattr__(self, "effect", default_effect(self.setting))


@dataclass(frozen=True)
class MonteCarloSummary:
    """Empirical rejection rate over independent replicates."""

    rejection_rate: float
    reps: int
    standard_error: float
    branch_counts: dict[str, int]
    zero_variance_count: int = 0
    statistics: tuple[float, ...] | None = None


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
    seed,
) -> DirectedWeightedNetwork:
    """Draw one synthetic network; deterministic given the seed.

    The degeneracy-case generators always use the normal-configuration
    latent laws (node and pair latents N(1, 1), noise N(0, 1)); the
    ``config`` argument selects normal or Poisson latents for settings
    a, b, and c only.
    """
    if setting not in SETTINGS:
        raise InvalidSpecError(f"unknown setting {setting!r}")
    if config not in CONFIGS:
        raise InvalidSpecError(f"unknown config {config!r}")
    if n < 4:
        raise InvalidSpecError(f"n must be at least 4, got {n}")
    rng = np.random.default_rng(seed)
    c = np.sqrt(c_squared)

    if setting == "a":
        a = _draw_latents(config, rng, n, "node")
        b = _draw_latents(config, rng, n, "node")
        gamma = _draw_latents(config, rng, n, "pair")
        eps = _draw_latents(config, rng, n, "noise")
        scale = 0.0 if null_case else c
        w = a[:, None] + b[None, :] + scale * gamma + eps
    elif setting == "b":
        a = _draw_latents(config, rng, n, "node")
        eps = _draw_latents(config, rng, n, "noise")
        scale = 0.0 if null_case else c
        w = scale * a[:, None] + eps
    elif setting == "c":
        a = _draw_latents(config, rng, n, "node")
        eps = _draw_latents(config, rng, n, "noise")
        scale, shift = (1.0, 1.0) if null_case else (c, 0.0)
        centered = a - shift
        w = scale * np.outer(centered, centered) + eps
    else:
        x = rng.normal(1.0, 1.0, n)
        upper = np.triu(rng.normal(1.0, 1.0, (n, n)), 1)
        gamma = upper + upper.T
        eps = rng.normal(0.0, 1.0, (n, n))
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


def monte_carlo(
    spec: SimulationSpec,
    threads: int = 1,
    collect_statistics: bool = False,
) -> MonteCarloSummary:
    """Estimate the rejection rate of the tested effect over ``spec.reps``
    independent replicates.

    Replicates where the studentized statistic was undefined are tallied
    in ``zero_variance_count`` and count as non-rejections (none occur
    under the settings above).  With ``threads`` > 1, replicates run in a
    process pool; the result is identical to the serial run.
    """
    if threads < 1:
        raise InvalidSpecError(f"threads must be at least 1, got {threads}")
    reps = spec.reps
    if threads == 1:
        outcomes = [_run_replicate(spec, rep) for rep in range(reps)]
    else:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            outcomes = list(pool.map(_run_replicate, [spec] * reps, range(reps), chunksize=32))

    rejections = 0
    zero_variance = 0
    branch_counts: dict[str, int] = {}
    statistics: list[float] = []
    for outcome in outcomes:
        if outcome is None:
            zero_variance += 1
            continue
        reject, branch, statistic = outcome
        rejections += int(reject)
        branch_counts[branch] = branch_counts.get(branch, 0) + 1
        if collect_statistics:
            statistics.append(statistic)
    rate = rejections / reps
    return MonteCarloSummary(
        rejection_rate=rate,
        reps=reps,
        standard_error=float(np.sqrt(rate * (1.0 - rate) / reps)),
        branch_counts=branch_counts,
        zero_variance_count=zero_variance,
        statistics=tuple(statistics) if collect_statistics else None,
    )
