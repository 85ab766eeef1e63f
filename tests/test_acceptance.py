"""Acceptance suite.

One test per criterion, each printing a PASS line with the measured
numbers (run with ``pytest tests/test_acceptance.py -v -s``).  Monte
Carlo targets use fixed master seeds; tolerances are wide enough for
seed-to-seed variation at the stated replicate counts.
"""

import itertools
import time

import numpy as np
import pytest
from scipy.special import ndtr
from scipy.stats import binom

from neteffects import (
    DirectedWeightedNetwork,
    EffectKind,
    SimulationSpec,
    complete_estimate,
    diagnose_degeneracy,
    generate,
    monte_carlo,
    projection_variance,
    sample_quadruples,
)
from neteffects import test_effect as run_effect_test
from neteffects.estimators import node_projection
from neteffects.kernels import quadruple_kernel_values
from neteffects.inference import local_effects
from . import oracles
from .conftest import make_random_net, reduced_statistic

ALL_EFFECTS = list(EffectKind)


def _report(name: str, detail: str) -> None:
    print(f"PASS {name}: {detail}")


def test_criterion_01_quadruple_kernel_average_identity():
    """Mean of the 4-tuple kernel over all quadruples equals the complete
    estimator, for 50 random networks and every effect (rel tol 1e-9)."""
    start = time.perf_counter()
    worst = 0.0
    for case in range(50):
        n = 5 + case % 5
        net = make_random_net(n, seed=1000 + case)
        quads = np.array(list(itertools.combinations(range(n), 4)))
        for effect in ALL_EFFECTS:
            target = complete_estimate(net, effect).value
            mean_psi = float(quadruple_kernel_values(net, quads)[effect].mean())
            err = abs(mean_psi - target) / max(abs(target), 1e-12)
            worst = max(worst, err)
            assert mean_psi == pytest.approx(target, rel=1e-9, abs=1e-12)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report("criterion 1 (kernel-average identity)",
            f"50 networks x 4 effects, worst rel err {worst:.2e}, {elapsed:.2f}s")


def test_criterion_02_closed_forms_match_brute_force():
    """Complete estimators, per-node projections, and local effects
    match naive enumeration to 1e-10 relative."""
    start = time.perf_counter()
    for case in range(10):
        n = 5 + case % 5
        net = make_random_net(n, seed=2000 + case)
        w = net.weights
        for effect in ALL_EFFECTS:
            assert complete_estimate(net, effect).value == pytest.approx(
                oracles.naive_complete(w, effect.value), rel=1e-10, abs=1e-12
            )
        for effect in (EffectKind.RECIPROCITY, EffectKind.SENDER_RECEIVER):
            np.testing.assert_allclose(
                node_projection(net, effect), oracles.naive_projection(w, effect.value),
                rtol=1e-10, atol=1e-12,
            )
        table = local_effects(net)
        rec, same_s, same_r, send_r = oracles.naive_local_effects(w)
        np.testing.assert_allclose(table.reciprocity, rec, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(table.same_sender, same_s, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(table.same_receiver, same_r, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(table.sender_receiver, send_r, rtol=1e-10, atol=1e-12)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report("criterion 2 (closed form vs brute force)",
            f"10 networks, all estimators + local effects, {elapsed:.2f}s")


TYPE_I_TARGETS = [("a", 0.048), ("b", 0.050), ("c", 0.047)]


@pytest.mark.parametrize("setting,target", TYPE_I_TARGETS)
def test_criterion_03_type_i_error(setting, target):
    """Null rejection rates at n=100, subsample exponent 1, 1000 reps,
    within +/- 0.02 of the reference values."""
    start = time.perf_counter()
    spec = SimulationSpec(setting=setting, n=100, reps=1000, null_case=True,
                          subsample_exponent=1.0, master_seed=42)
    summary = monte_carlo(spec)
    elapsed = time.perf_counter() - start
    assert summary.zero_variance_count == 0
    assert abs(summary.rejection_rate - target) <= 0.02
    _report(f"criterion 3 (type-I error, setting {setting})",
            f"rate {summary.rejection_rate:.3f} vs target {target} +/- 0.02, "
            f"branches {summary.branch_counts}, {elapsed:.1f}s")


POWER_TARGETS = [
    ("b", 0.2, 0.923, 0.983),   # reference 0.953 +/- 0.03
    ("a", 1.0, 0.970, 1.0),     # reference 0.995, require >= 0.97
    ("c", 0.5, 0.990, 1.0),     # reference 1.000, require >= 0.99
]


@pytest.mark.parametrize("setting,c2,low,high", POWER_TARGETS)
def test_criterion_04_power(setting, c2, low, high):
    """Alternative rejection rates at n=100, subsample exponent 1, 1000 reps."""
    spec = SimulationSpec(setting=setting, n=100, reps=1000, c_squared=c2,
                          null_case=False, subsample_exponent=1.0, master_seed=7)
    summary = monte_carlo(spec)
    assert low <= summary.rejection_rate <= high
    _report(f"criterion 4 (power, setting {setting}, c2={c2})",
            f"rate {summary.rejection_rate:.3f} in [{low}, {high}]")


def test_criterion_05_subsample_exponent_power_tradeoff():
    """At n=50 under setting b with c2=0.05, power must increase across
    subsample exponents 1 -> 1.2 -> 1.6 and land within +/- 0.04 of the
    reference values 0.144, 0.232, 0.727."""
    targets = {1.0: 0.144, 1.2: 0.232, 1.6: 0.727}
    rates = {}
    for lam, target in targets.items():
        spec = SimulationSpec(setting="b", n=50, reps=1000, c_squared=0.05,
                              null_case=False, subsample_exponent=lam, master_seed=11)
        rates[lam] = monte_carlo(spec).rejection_rate
        assert abs(rates[lam] - target) <= 0.04
    assert rates[1.0] < rates[1.2] < rates[1.6]
    _report("criterion 5 (power vs subsample exponent)",
            f"rates {rates[1.0]:.3f} < {rates[1.2]:.3f} < {rates[1.6]:.3f} "
            f"vs targets 0.144/0.232/0.727 +/- 0.04")


def test_criterion_06_null_statistic_normality():
    """KS distance between 2000 null statistics (setting b, n=100,
    subsample exponent 1) and the standard normal is below 0.06."""
    spec = SimulationSpec(setting="b", n=100, reps=2000, null_case=True,
                          subsample_exponent=1.0, master_seed=99)
    summary = monte_carlo(spec)
    stats = np.sort(np.asarray(summary.statistics))
    m = len(stats)
    assert m == 2000
    cdf = ndtr(stats)
    ks = max(np.abs(np.arange(1, m + 1) / m - cdf).max(),
             np.abs(np.arange(0, m) / m - cdf).max())
    assert ks < 0.06
    _report("criterion 6 (null normality)", f"KS distance {ks:.4f} < 0.06 over {m} reps")


DEGENERACY_CASES = [
    ("degenerate_sender_receiver", EffectKind.SENDER_RECEIVER, False),
    ("nondegenerate_sender_receiver", EffectKind.SENDER_RECEIVER, True),
    ("degenerate_reciprocity", EffectKind.RECIPROCITY, False),
    ("nondegenerate_reciprocity", EffectKind.RECIPROCITY, True),
]


@pytest.mark.parametrize("setting,effect,want_nondegenerate", DEGENERACY_CASES)
def test_criterion_07_degeneracy_diagnosis(setting, effect, want_nondegenerate):
    """Known degenerate / non-degenerate generators at n=200 are
    classified correctly in at least 95% of 200 replicates."""
    correct = 0
    for rep in range(200):
        net = generate(setting, "normal", 200, 0.0, True,
                       seed=np.random.SeedSequence((13, rep)))
        diag = diagnose_degeneracy(net, effect, c_constant=1.0)
        correct += int(diag.non_degenerate == want_nondegenerate)
    assert correct >= 190
    _report(f"criterion 7 (degeneracy diagnosis, {setting})",
            f"{correct}/200 correct (need >= 190)")


def test_criterion_08_consistency_of_same_sender_estimator():
    """Under setting b with c2=1 at n=400, the complete same-sender
    estimate averages within 0.05 of the population value 1."""
    values = []
    for rep in range(100):
        net = generate("b", "normal", 400, 1.0, False,
                       seed=np.random.SeedSequence((17, rep)))
        values.append(complete_estimate(net, EffectKind.SAME_SENDER).value)
    mean = float(np.mean(values))
    assert abs(mean - 1.0) <= 0.05
    _report("criterion 8 (consistency oracle)",
            f"mean estimate {mean:.4f} within 0.05 of 1 over 100 reps at n=400")


def test_criterion_09_performance():
    """Complete estimators plus both degeneracy diagnostics at n=5000 in
    under 5s; a reduced test at n=10000 with exponent 1.2 in under 2s."""
    rng = np.random.default_rng(0)
    w = rng.normal(size=(5000, 5000))
    np.fill_diagonal(w, 0.0)
    net = DirectedWeightedNetwork(w)
    start = time.perf_counter()
    for effect in ALL_EFFECTS:
        complete_estimate(net, effect)
    projection_variance(net, EffectKind.RECIPROCITY)
    projection_variance(net, EffectKind.SENDER_RECEIVER)
    complete_elapsed = time.perf_counter() - start
    assert complete_elapsed < 5.0
    del net, w

    rng = np.random.default_rng(1)
    w = rng.normal(size=(10000, 10000))
    np.fill_diagonal(w, 0.0)
    big = DirectedWeightedNetwork(w)
    del w
    start = time.perf_counter()
    report = run_effect_test(big, EffectKind.SAME_SENDER, subsample_exponent=1.2, seed=0)
    reduced_elapsed = time.perf_counter() - start
    assert reduced_elapsed < 2.0
    m = sample_quadruples(10000, 1.2, seed=0).m
    assert m == round(10000 ** 1.2)
    assert np.isfinite(report.statistic)
    _report("criterion 9 (performance)",
            f"n=5000 complete+diagnostics {complete_elapsed:.2f}s < 5s; "
            f"n=10000 reduced test ({m} quadruples) {reduced_elapsed:.2f}s < 2s")


def _criterion_10_networks():
    """Criterion 10's five random networks, each with its seed and a random
    relabelling, drawn in the criterion's order."""
    rng = np.random.default_rng(5)
    for seed in range(5):
        n = int(rng.integers(8, 16))
        net = make_random_net(n, seed=3000 + seed)
        yield seed, net, rng.permutation(n)


def test_criterion_10_property_suite():
    """Relabeling invariance, transpose dualities, scale invariance of
    the reduced statistic, determinism, and centering of the per-node
    projection vectors, on randomized inputs."""
    for seed, net, perm in _criterion_10_networks():
        n = net.n
        relabeled = DirectedWeightedNetwork(net.weights[np.ix_(perm, perm)])
        for effect in ALL_EFFECTS:
            assert complete_estimate(relabeled, effect).value == pytest.approx(
                complete_estimate(net, effect).value, rel=1e-12, abs=1e-14
            )
        for effect in (EffectKind.RECIPROCITY, EffectKind.SENDER_RECEIVER):
            assert projection_variance(relabeled, effect) == pytest.approx(
                projection_variance(net, effect), rel=1e-12
            )

        flipped = DirectedWeightedNetwork(net.weights.T)
        assert complete_estimate(flipped, EffectKind.SAME_SENDER).value == pytest.approx(
            complete_estimate(net, EffectKind.SAME_RECEIVER).value, rel=1e-12, abs=1e-14
        )
        for effect in (EffectKind.RECIPROCITY, EffectKind.SENDER_RECEIVER):
            assert complete_estimate(flipped, effect).value == pytest.approx(
                complete_estimate(net, effect).value, rel=1e-12, abs=1e-14
            )

        scaled = DirectedWeightedNetwork(4.0 * net.weights)
        for effect in ALL_EFFECTS:
            assert reduced_statistic(scaled, effect, seed=seed) == pytest.approx(
                reduced_statistic(net, effect, seed=seed), rel=1e-10
            )
            assert run_effect_test(net, effect, seed=seed) == run_effect_test(net, effect, seed=seed)

        scale = float(np.abs(net.weights).max() ** 2) + 1.0
        for effect in (EffectKind.RECIPROCITY, EffectKind.SENDER_RECEIVER):
            assert abs(node_projection(net, effect).sum()) <= n * 1e-12 * scale
    _report("criterion 10 (property suite)",
            "relabeling, transpose, scaling, determinism, centering on 5 random networks")


@pytest.mark.xfail(strict=True, reason="ROADMAP item 3: routing depends on scale")
def test_routing_ignores_scale():
    """test_effect's branch and verdict are unchanged when criterion 10's
    networks are scaled by 4."""
    for seed, net, _ in _criterion_10_networks():
        scaled = DirectedWeightedNetwork(4.0 * net.weights)
        for effect in ALL_EFFECTS:
            a = run_effect_test(net, effect, seed=seed)
            b = run_effect_test(scaled, effect, seed=seed)
            assert (b.branch, b.reject) == (a.branch, a.reject), (seed, effect)


# ROADMAP item 2: the reduced branch's studentizer leaves out the complete
# estimator's own variance, which for eta2 grows with m = n^lambda.
ETA2_AT_LAMBDA_1_5 = SimulationSpec(setting="b", n=100, reps=1000, null_case=True,
                                    effect=EffectKind.RECIPROCITY, subsample_exponent=1.5,
                                    master_seed=777)


@pytest.fixture(scope="module")
def eta2_at_lambda_1_5():
    return monte_carlo(ETA2_AT_LAMBDA_1_5)


def test_eta2_at_lambda_1_5_runs_on_the_reduced_branch(eta2_at_lambda_1_5):
    """The premise of the size test below: every replicate is subsampled."""
    assert eta2_at_lambda_1_5.branch_counts == {"reduced": ETA2_AT_LAMBDA_1_5.reps}


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2: eta2 over-rejects as lambda grows")
def test_eta2_null_size_at_lambda_1_5(eta2_at_lambda_1_5):
    """The null rejection count has both Binomial(reps, 0.05) tails at
    least 1e-6, the band of the benchmark's size check."""
    reps = ETA2_AT_LAMBDA_1_5.reps
    k = round(eta2_at_lambda_1_5.rejection_rate * reps)
    assert min(binom.cdf(k, reps, 0.05), binom.sf(k - 1, reps, 0.05)) >= 1e-6
