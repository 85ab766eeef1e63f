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
from .estimators import check_integer, is_real
from .inference import Settings, check_settings, test_effect
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
    """One Monte Carlo experiment: a generator plus test settings that ``inference.Settings`` checks."""

    setting: str
    n: int
    reps: int
    config: str = "normal"
    c_squared: float = 0.0
    null_case: bool | None = None  # None: the null exactly when c_squared is 0
    effect: EffectKind | str | None = None  # None: the setting's default_effect
    alpha: float = Settings.alpha
    subsample_exponent: float = Settings.subsample_exponent
    diagnostic_constant: float = Settings.c_constant
    master_seed: int = Settings.seed

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
            check_settings(("alpha", "alpha", self.alpha),
                           ("subsample_exponent", "subsample_exponent", self.subsample_exponent),
                           ("diagnostic_constant", "c_constant", self.diagnostic_constant),
                           ("master_seed", "seed", self.master_seed))
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


def _draw_latents(config: str, rng: np.random.Generator, n: int, want: str,
                  out: np.ndarray | None = None) -> np.ndarray:
    """One i.i.d. latent block: a node vector, or an n x n pair latent or noise,
    written to ``out`` when it is given.  Node and pair latents are N(1, 1) and
    the noise N(0, 1) under the normal config; all are Poisson(1) otherwise.

    A normal block is ``standard_normal`` with the location added in place: the
    bits of ``rng.normal(loc, 1.0, size)``, except that a noise draw of exactly
    -0.0 stays -0.0.  A matrix latent consumes n^2 draws, the pair latent's lower
    triangle included though only its upper one is used, so that seeds keep
    their networks.
    """
    size = n if want == "node" else (n, n)
    if config == "normal":
        values = rng.standard_normal(size, out=out)
        if want != "noise":
            values += 1.0
        return values
    if out is None:
        return rng.poisson(1.0, size).astype(np.float64)
    np.copyto(out, rng.poisson(1.0, size))
    return out


def _add_pair(base, pair: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``base`` plus the symmetric pair latent, written to ``out``: entries (i, j) and
    (j, i) both take pair[min(i, j), max(i, j)], its upper triangle mirrored, by two
    masked sums and no copy of a triangle.  Each sum covers the diagonal, which the
    caller zeroes."""
    lower = np.tri(len(pair), dtype=bool)  # i >= j
    np.add(base, pair.T, out=out, where=lower)
    np.add(base, pair, out=out, where=lower.T)
    return out


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
    a, b, and c only.  Node latents are drawn first, then the pair latent
    (which every degeneracy case draws, even where its formula does not use
    it), then the noise; each matrix latent takes n^2 draws (see
    ``_draw_latents``), so that a seed keeps its network.  The weights are
    built in place, in each formula's order of operations, beside at most one
    n x n latent buffer.
    """
    _check_design(setting, config, n, c_squared)
    if not isinstance(seed, np.random.SeedSequence):
        check_integer(seed, "seed", 0, InvalidSpecError)
    rng = np.random.default_rng(seed)
    c = 0.0 if null_case else math.sqrt(c_squared)

    if setting == "b":  # the noise is the weights' own buffer
        a = _draw_latents(config, rng, n, "node")
        w = _draw_latents(config, rng, n, "noise")
        w += (c * a)[:, None]
    else:
        latent = None  # the n x n buffer the noise reuses
        if setting == "a":
            a = _draw_latents(config, rng, n, "node")
            w = np.add.outer(a, _draw_latents(config, rng, n, "node"))  # a_i + b_j
            latent = _draw_latents(config, rng, n, "pair")
            latent *= c
            _add_pair(w, latent, w)
        elif setting == "c":
            a = _draw_latents(config, rng, n, "node")
            scale, shift = (1.0, 1.0) if null_case else (c, 0.0)
            centered = a - shift
            w = np.multiply.outer(centered, centered)
            w *= scale
        else:
            config = "normal"  # for the noise too
            x = _draw_latents(config, rng, n, "node")
            latent = _draw_latents(config, rng, n, "pair")
            if setting == "degenerate_sender_receiver":
                w = _add_pair(x[:, None], latent, np.empty((n, n)))
            elif setting == "nondegenerate_sender_receiver":
                w = np.multiply.outer(x, x - 0.5)
            elif setting == "degenerate_reciprocity":
                w = _add_pair(0.0, latent, np.empty((n, n)))
            else:  # nondegenerate_reciprocity
                w = np.subtract.outer(x, x)
                latent *= np.sqrt(2.0)
                _add_pair(w, latent, w)
        w += _draw_latents(config, rng, n, "noise", out=latent)
    np.fill_diagonal(w, 0.0)
    return DirectedWeightedNetwork(w)


def _run_replicate(spec: SimulationSpec, rep: int) -> tuple[bool, str, float] | None:
    """One replicate: generate, test, report (reject, branch, statistic).

    Returns None when the studentized statistic was undefined.  Each
    replicate owns RNG streams derived from (master_seed, rep), so
    results do not depend on execution order or thread count.
    """
    # SeedSequence((master_seed, rep)).spawn(2), without mixing the root's own pool
    net_stream, subsample_stream = (np.random.SeedSequence((spec.master_seed, rep), spawn_key=(k,))
                                    for k in range(2))
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
