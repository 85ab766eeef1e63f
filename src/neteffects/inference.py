"""Hypothesis tests for network effects, with degeneracy-aware routing.

Routing summary: the same-sender and same-receiver estimators are always
degenerate under their nulls, so those effects go straight to the
subsampled (reduced) test.  The reciprocity and sender-receiver
estimators (the :attr:`EffectKind.diagnosable` ones) may or may not be
degenerate; a diagnostic compares the estimated projection variance
against a vanishing threshold and picks the complete estimator
studentized by that variance (non-degenerate) or the reduced test
(degenerate) accordingly.  Each branch is calibrated only under its own
verdict, so both are reached only through :func:`test_effect`.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteStatisticError, ZeroVarianceError
from .estimators import (
    EffectEstimate,
    check_integer,
    check_subsample_exponent,
    complete_estimate,
    is_real,
    mean_edge,  # not called; bench/tracing.py wraps it here until ROADMAP item 4
    projection_variance,
    reduced_estimate,
    sample_quadruples,
)
from .network import DirectedWeightedNetwork, EffectKind

__all__ = [
    "DegeneracyDiagnosis",
    "TestReport",
    "LocalEffects",
    "diagnose_degeneracy",
    "test_effect",
    "derive_seed",
    "local_effects",
]

MIN_P_VALUE = 1e-300

BRANCH_REDUCED = "reduced"
BRANCH_COMPLETE = "studentized_complete"


@dataclass(frozen=True)
class Settings:
    """A test's level, subsample exponent, seed and degeneracy threshold constant, each
    default written once.  Building one is the one check of all four (ValueError)."""

    alpha: float = 0.05
    subsample_exponent: float = 1.2
    seed: int = 0
    c_constant: float = 1.0

    def __post_init__(self) -> None:
        if not is_real(self.alpha) or not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {self.alpha!r}")
        check_subsample_exponent(self.subsample_exponent)
        check_integer(self.seed, "seed")
        _check_c_constant(self.c_constant)


def check_settings(*named: tuple[str, str, object]) -> None:
    """Check each (caller's name, :class:`Settings` field, value) by a :class:`Settings` of that
    field alone, in order; the message is Settings', after ``<name>: `` where the names differ."""
    for name, field, value in named:
        try:
            Settings(**{field: value})
        except ValueError as exc:
            raise ValueError(str(exc) if name == field else f"{name}: {exc}") from None


def _check_c_constant(value: float) -> None:
    """C's rule: one of :class:`Settings`' four checks, and all that diagnose_degeneracy needs."""
    if not is_real(value) or not 0.0 < value < math.inf:
        raise ValueError(f"c_constant must be positive and finite, got {value!r}")


@dataclass(frozen=True)
class DegeneracyDiagnosis:
    """Outcome of the degeneracy check for one effect.

    ``verdict`` is "non_degenerate" exactly when ``xi_squared`` exceeds
    ``threshold`` = c_constant * n^(-1/2) * sqrt(log n) (natural log).
    Both numbers are reported so borderline calls can be audited.
    """

    effect: EffectKind
    xi_squared: float
    threshold: float
    c_constant: float
    verdict: str

    @property
    def non_degenerate(self) -> bool:
        return self.verdict == "non_degenerate"


@dataclass(frozen=True)
class TestReport:
    """Result of testing one effect at level alpha.

    ``reject`` holds exactly when ``p_value`` < ``alpha``; the p-value is
    two-sided.  ``subsample_exponent`` and ``seed`` are set on the
    reduced branch only, and ``diagnosis`` is present exactly for the two
    effects whose pipeline starts with a degeneracy check.
    """

    effect: EffectKind
    n: int
    alpha: float
    branch: str
    statistic: float
    p_value: float
    reject: bool
    estimate: EffectEstimate
    subsample_exponent: float | None = None
    seed: int | None = None
    diagnosis: DegeneracyDiagnosis | None = None


@dataclass(frozen=True, eq=False)
class LocalEffects:
    """Per-node empirical effect analogues for exploratory use."""

    reciprocity: np.ndarray
    same_sender: np.ndarray
    same_receiver: np.ndarray
    sender_receiver: np.ndarray


def _require_finite(value: float, what: str, effect: EffectKind) -> float:
    if not math.isfinite(value):
        raise NonFiniteStatisticError(
            f"the {effect.value} {what} is {value}: products of the weights "
            "overflow float64; rescale the weights"
        )
    return value


def _two_sided_p(statistic: float, effect: EffectKind) -> float:
    _require_finite(statistic, "test statistic", effect)
    return max(math.erfc(abs(statistic) / math.sqrt(2.0)), MIN_P_VALUE)


def diagnose_degeneracy(
    net: DirectedWeightedNetwork,
    effect: EffectKind | str,
    c_constant: float = Settings.c_constant,
) -> DegeneracyDiagnosis:
    """Decide whether the complete estimator of an effect is degenerate.

    The projection-variance estimate concentrates at rate n^(-1/2) sqrt(log n) around
    its population value, which is zero in the degenerate case and bounded away from
    zero otherwise, so comparing against c_constant times that rate separates the two;
    :class:`Settings` holds c_constant's default and its rule.  Supported for the
    :attr:`EffectKind.diagnosable` effects only, given as members or by any name
    :meth:`EffectKind.parse` accepts.
    """
    effect = EffectKind.parse(effect)
    _check_c_constant(c_constant)
    net.require_nodes(3, "diagnose_degeneracy")
    xi2 = _require_finite(projection_variance(net, effect), "projection variance", effect)
    n = net.n
    threshold = c_constant * math.sqrt(math.log(n) / n)
    verdict = "non_degenerate" if xi2 > threshold else "degenerate"
    return DegeneracyDiagnosis(effect=effect, xi_squared=xi2, threshold=threshold,
                               c_constant=c_constant, verdict=verdict)


def test_effect(
    net: DirectedWeightedNetwork,
    effect: EffectKind | str,
    alpha: float = Settings.alpha,
    subsample_exponent: float = Settings.subsample_exponent,
    seed: int = Settings.seed,
    c_constant: float = Settings.c_constant,
) -> TestReport:
    """Run the full pipeline for one effect.

    Effects that are not :attr:`EffectKind.diagnosable` go straight to
    the reduced test (their estimators are always degenerate under the
    null).  Reciprocity and sender-receiver are first diagnosed, with the
    diagnosis attached to the report.  The non-degenerate verdict routes
    to the complete estimator studentized by the diagnosed projection
    variance xi^2: sqrt(n) * estimate / xi.  That statistic is valid only
    when xi^2 stays away from zero, so this verdict is the only way to
    reach it.  The degenerate verdict routes to the reduced test: with
    m = round(n ** subsample_exponent) quadruples, sqrt(m) * mean / spread
    of the kernel values, the standardized subsample mean, which is
    calibrated only under degeneracy.  At n = 4 every quadruple is the one
    node set, so that branch raises :class:`ZeroVarianceError`.  Both
    statistics are compared against standard normal quantiles (two-sided).

    ``effect`` may be any member or name :meth:`EffectKind.parse` accepts.  It and the
    other four arguments, by one :class:`Settings`, are checked here before any pass over
    the weights, whichever branch runs.
    """
    net.require_nodes(4, "test_effect")
    effect = EffectKind.parse(effect)
    Settings(alpha, subsample_exponent, seed, c_constant)
    diagnosis = diagnose_degeneracy(net, effect, c_constant) if effect.diagnosable else None
    if diagnosis is not None and diagnosis.non_degenerate:
        return _studentized(net, complete_estimate(net, effect), alpha, BRANCH_COMPLETE,
                            net.n, math.sqrt(diagnosis.xi_squared), diagnosis=diagnosis)
    if net.n == 4:  # C(4, 4) = 1: the kernel values differ by rounding alone
        raise ZeroVarianceError(f"the reduced test of {effect.value} needs at least 5 nodes: "
                                "at n = 4 every quadruple is the one node set")
    moment = _reduced_moments(net, subsample_exponent, seed)[effect]
    _require_finite(moment.sigma_hat, "kernel spread", effect)
    if moment.sigma_hat == 0.0:
        raise ZeroVarianceError(
            f"all {moment.m} kernel values are identical for {effect.value}; "
            "the studentized statistic is undefined (constant network?)"
        )
    estimate = EffectEstimate(effect=effect, value=moment.eta_hat, method="reduced")
    return _studentized(net, estimate, alpha, BRANCH_REDUCED, moment.m, moment.sigma_hat,
                        subsample_exponent=subsample_exponent, seed=seed, diagnosis=diagnosis)


_LAST_REDUCED = weakref.WeakKeyDictionary()  # network -> ((exponent, seed), moments)


def _reduced_moments(net: DirectedWeightedNetwork, subsample_exponent: float, seed: int) -> dict:
    """Every effect's kernel moments on the sample for (subsample_exponent, seed), kept while
    ``net`` lives so its effects at one key share one draw; a thread race only repeats work."""
    key = (subsample_exponent, seed)
    last = _LAST_REDUCED.get(net)
    if last is None or last[0] != key:
        last = key, reduced_estimate(net, sample_quadruples(net.n, subsample_exponent, seed))
        _LAST_REDUCED[net] = last
    return last[1]


def _studentized(net, estimate: EffectEstimate, alpha: float, branch: str,
                 count: int, spread: float, **fields) -> TestReport:
    """The report for statistic sqrt(count) * estimate / spread and its
    two-sided p-value; ``fields`` fill the branch's remaining report fields."""
    statistic = math.sqrt(count) * estimate.value / spread
    p = _two_sided_p(statistic, estimate.effect)
    return TestReport(
        effect=estimate.effect,
        n=net.n,
        alpha=alpha,
        branch=branch,
        statistic=statistic,
        p_value=p,
        reject=p < alpha,
        estimate=estimate,
        **fields,
    )


def derive_seed(seed: int) -> int:
    """The subsample seed that the CLI and the facade derive from a user seed: the first
    child of ``SeedSequence(seed)``.  The draw seeds through ``SeedSequence`` itself, so
    nearby user seeds would give unrelated quadruple samples without it; it stays because
    every CLI report and :class:`NetworkEffectTest` fit is drawn from the seed it gives.
    """
    check_integer(seed, "seed")
    return int(np.random.SeedSequence(seed).spawn(1)[0].generate_state(1)[0])


def local_effects(net: DirectedWeightedNetwork) -> LocalEffects:
    """Per-node effect analogues around the grand mean.

    With d[i,j] = e[i,j] - mean_edge on off-diagonal entries, node i gets

    * reciprocity:      sum_j d[i,j] d[j,i] / (n-1)
    * same-sender:      sum_{j != k} d[i,j] d[i,k] / ((n-1)(n-2))
    * same-receiver:    sum_{j != k} d[j,i] d[k,i] / ((n-1)(n-2))
    * sender-receiver:  sum_{j != k} d[j,i] d[i,k] / ((n-1)(n-2))

    with j, k ranging over ordered pairs of nodes distinct from i.  All
    four are motif sums of d's cached node sums, ``net.summaries``.

    Raises NonFiniteStatisticError when products of the weights overflow.
    """
    net.require_nodes(3, "local_effects")
    n, sums = net.n, net.summaries
    columns = {}
    for effect in EffectKind:
        # ordered (arity - 1)-tuples of the other n - 1 nodes
        values = sums.motif(effect) / math.perm(n - 1, effect.arity - 1)
        # argmin finds the first non-finite value, if there is one
        _require_finite(float(values[np.isfinite(values).argmin()]), "local effect", effect)
        columns[effect.value] = values
    return LocalEffects(**columns)
