import concurrent.futures
import os
from fractions import Fraction

import numpy as np
import pytest

from neteffects import (
    EffectKind,
    InvalidSpecError,
    SimulationSpec,
    ZeroVarianceError,
    complete_estimate,
    generate,
    monte_carlo,
)
from neteffects.simulation import _draw_latents, _run_replicate, default_effect


class TestSimulationSpec:
    def test_defaults_effect_from_setting(self):
        spec = SimulationSpec(setting="b", n=50, reps=10)
        assert spec.effect is EffectKind.SAME_SENDER
        assert default_effect("a") is EffectKind.RECIPROCITY
        assert default_effect("c") is EffectKind.SENDER_RECEIVER

    def test_effect_by_member_or_name(self):
        spec = SimulationSpec(setting="b", n=20, reps=3, effect="eta3")
        assert spec.effect is EffectKind.SAME_SENDER
        assert SimulationSpec(setting="b", n=20, reps=3, effect="eta2").effect is EffectKind.RECIPROCITY
        # a name runs, and runs as its member does
        member = SimulationSpec(setting="b", n=20, reps=3, effect=EffectKind.SAME_SENDER)
        assert repr(monte_carlo(spec)) == repr(monte_carlo(member))

    def test_null_case_defaults_to_no_signal(self):
        assert SimulationSpec(setting="b", n=25, reps=5).null_case is True
        assert SimulationSpec(setting="b", n=25, reps=5, c_squared=0.5).null_case is False
        assert SimulationSpec(setting="b", n=25, reps=5, c_squared=0.5, null_case=False).null_case is False

    @pytest.mark.parametrize("kwargs", [
        dict(setting="z", n=50, reps=10),
        dict(setting="a", n=50, reps=10, config="uniform"),
        dict(setting="a", n=3, reps=10),
        dict(setting="a", n=50, reps=0),
        dict(setting="a", n=50, reps=10, c_squared=-1.0),
        dict(setting="b", n=20, reps=3, c_squared=float("nan")),
        dict(setting="b", n=20, reps=3, c_squared=float("inf")),
        dict(setting="b", n=20, reps=3, c_squared=float("inf"), null_case=False),
        dict(setting="b", n=20, reps=3, effect="eta9"),
        dict(setting="b", n=20, reps=3, effect=3),
        dict(setting="a", n=50, reps=10, alpha=0.0),
        dict(setting="a", n=50, reps=10, alpha=float("nan")),
        dict(setting="a", n=50, reps=10, subsample_exponent=2.0),
        dict(setting="a", n=50, reps=10, subsample_exponent=float("nan")),
        dict(setting="a", n=50, reps=10, diagnostic_constant=float("nan")),
        dict(setting="a", n=50, reps=10, diagnostic_constant=0.0),
        dict(setting="b", n=50, reps=10, c_squared=0.5, null_case=True),
        dict(setting="a", n=50, reps=10, master_seed=-1),
        dict(setting="a", n=50, reps=10, master_seed=2.0),
        dict(setting="a", n=20, reps=3, master_seed=True),
        dict(setting="a", n=20, reps=3, master_seed=False),
        dict(setting="b", n=50.5, reps=3),
        dict(setting="b", n=np.float64(50.0), reps=3),
        dict(setting="b", n=50, reps=2.5),
        dict(setting="b", n=50, reps=True),
        dict(setting="b", n=50, reps=3, alpha="0.05"),
        dict(setting="b", n=50, reps=3, alpha=None),
        dict(setting="b", n=50, reps=3, subsample_exponent=None),
        dict(setting="b", n=50, reps=3, subsample_exponent=True),
        dict(setting="b", n=50, reps=3, diagnostic_constant=True),
        dict(setting="b", n=50, reps=3, diagnostic_constant="1"),
        dict(setting="b", n=20, reps=3, c_squared="0.5"),
        dict(setting="b", n=20, reps=3, c_squared=None),
        dict(setting="b", n=20, reps=3, c_squared=True),
    ])
    def test_invalid_specs(self, kwargs):
        with pytest.raises(InvalidSpecError):
            SimulationSpec(**kwargs)


class TestIntegerInputs:
    """Sizes and counts follow the seeds' rule: a Python or numpy integer, not
    a bool, at least a minimum; a bad one fails before any draw or pool."""

    @pytest.mark.parametrize("n", [10.5, np.float64(12.0), True])
    def test_generate_rejects_a_non_integer_size_before_any_draw(self, n, monkeypatch):
        def no_draw(*args, **kwargs):
            raise AssertionError("a draw ran before the check")

        monkeypatch.setattr(np.random, "default_rng", no_draw)
        with pytest.raises(InvalidSpecError, match="^n must be an integer of at least 4"):
            generate("b", "normal", n, 0.0, True, seed=0)

    @pytest.mark.parametrize("seed", [1.5, np.float64(2.0), True, -1, None, [1, 2],
                                      np.random.default_rng(0)])
    def test_generate_rejects_a_seed_outside_the_rule_before_any_draw(self, seed, monkeypatch):
        def no_draw(*args, **kwargs):
            raise AssertionError("a draw ran before the check")

        monkeypatch.setattr(np.random, "default_rng", no_draw)
        with pytest.raises(InvalidSpecError, match="^seed must be a non-negative integer"):
            generate("b", "normal", 10, 0.0, True, seed=seed)

    def test_generate_takes_a_seed_sequence_or_an_integer(self):
        # default_rng(k) seeds from SeedSequence(k), so all three draw the same network
        nets = [generate("a", "poisson", 12, 1.0, False, seed=s)
                for s in (5, np.int64(5), np.random.SeedSequence(5))]
        assert all(np.array_equal(net.weights, nets[0].weights) for net in nets)

    def test_numpy_integer_sizes_and_counts_are_accepted(self):
        spec = SimulationSpec(setting="b", n=np.int64(20), reps=np.int32(3),
                              master_seed=np.uint8(2))
        plain = SimulationSpec(setting="b", n=20, reps=3, master_seed=2)
        assert monte_carlo(spec, threads=np.int64(1)) == monte_carlo(plain)
        assert np.array_equal(generate("c", "poisson", np.int16(12), 0.0, True, seed=4).weights,
                              generate("c", "poisson", 12, 0.0, True, seed=4).weights)


class TestGenerate:
    @pytest.mark.parametrize("c_squared", [float("inf"), float("nan"), -1.0])
    def test_signal_outside_its_range_is_rejected(self, c_squared):
        with pytest.raises(InvalidSpecError, match="^c_squared must be finite and nonnegative"):
            generate("b", "normal", 20, c_squared, False, 0)

    @pytest.mark.parametrize("c_squared", ["0.5", None, True])
    def test_signal_outside_the_real_number_rule_fails_before_any_draw(self, c_squared,
                                                                       monkeypatch):
        # True passed as 1.0 and ran the alternative; a str or None raised a bare TypeError
        def no_draw(*args, **kwargs):
            raise AssertionError("a draw ran before the check")

        monkeypatch.setattr(np.random, "default_rng", no_draw)
        with pytest.raises(InvalidSpecError, match="^c_squared must be finite and nonnegative"):
            generate("b", "normal", 10, c_squared, False, seed=0)

    @pytest.mark.parametrize("c_squared", [np.float64(0.5), Fraction(1, 2)])
    def test_numpy_and_fraction_signals_draw_the_float_network(self, c_squared):
        expected = generate("c", "normal", 12, 0.5, False, seed=3).weights
        assert np.array_equal(generate("c", "normal", 12, c_squared, False, seed=3).weights,
                              expected)

    def test_deterministic_given_seed(self):
        a = generate("a", "normal", 20, 0.5, False, seed=42)
        b = generate("a", "normal", 20, 0.5, False, seed=42)
        assert np.array_equal(a.weights, b.weights)
        c = generate("a", "normal", 20, 0.5, False, seed=43)
        assert not np.array_equal(a.weights, c.weights)

    @pytest.mark.parametrize("setting", ["a", "b", "c", "degenerate_sender_receiver",
                                         "nondegenerate_sender_receiver",
                                         "degenerate_reciprocity",
                                         "nondegenerate_reciprocity"])
    @pytest.mark.parametrize("config", ["normal", "poisson"])
    def test_valid_network(self, setting, config):
        net = generate(setting, config, 12, 1.0, False, seed=0)
        assert net.n == 12
        assert np.all(np.diag(net.weights) == 0.0)
        assert np.isfinite(net.weights).all()

    def test_setting_b_null_is_pure_noise(self):
        # under the null the same-sender signal is absent: columns of the
        # weight matrix are i.i.d., so row means concentrate at the noise mean
        net = generate("b", "normal", 300, 1.0, True, seed=1)
        row_means = net.weights.sum(axis=1) / (net.n - 1)
        assert abs(row_means.mean()) < 0.05
        assert row_means.std() < 3.0 / np.sqrt(net.n)

    def test_setting_b_null_entries_uncorrelated(self):
        # lag covariance across replicates: entries sharing a sender are
        # independent under the null, so their covariance vanishes
        e01, e02 = [], []
        for seed in range(400):
            net = generate("b", "normal", 6, 1.0, True, seed=seed)
            e01.append(net.weights[0, 1])
            e02.append(net.weights[0, 2])
        cov = np.cov(e01, e02)[0, 1]
        assert abs(cov) < 4.0 / np.sqrt(400)

    def test_latent_moments_normal(self):
        # the node latents shift edges by mean 1 in setting b's alternative
        draws = []
        for seed in range(50):
            net = generate("b", "normal", 45, 1.0, False, seed=seed)
            draws.append(net.weights[net.weights != 0].mean())
        # population mean is E[a] + E[eps] = 1
        assert np.mean(draws) == pytest.approx(1.0, abs=0.05)

    def test_latent_moments_poisson(self):
        draws = []
        for seed in range(50):
            net = generate("b", "poisson", 45, 1.0, False, seed=seed)
            draws.append(net.weights[np.triu_indices(45, 1)].mean())
        # population mean is E[a] + E[eps] = 2 (Poisson noise has mean 1)
        assert np.mean(draws) == pytest.approx(2.0, abs=0.1)

    @pytest.mark.parametrize("config", ["normal", "poisson"])
    def test_latent_block_moments(self, config):
        # node latents have mean 1 in both configurations
        rng = np.random.default_rng(123)
        draws = _draw_latents(config, rng, 100_000, "node")
        se = draws.std() / np.sqrt(draws.size)
        assert abs(draws.mean() - 1.0) < 4 * se

    def test_node_latent_mean_tight(self):
        # mean of ~1e5 node latents recovered from setting b signal scale:
        # e[i,j] - eps has conditional mean a_i, so row means estimate a_i
        nets = [generate("b", "normal", 100, 1.0, False, seed=s) for s in range(10)]
        a_hat = np.concatenate([net.weights.sum(axis=1) / (net.n - 1) for net in nets])
        se = a_hat.std() / np.sqrt(a_hat.size)
        assert abs(a_hat.mean() - 1.0) < 4 * max(se, 1e-3)

    def test_pair_latent_symmetry_exact(self):
        # the pair latent is exactly symmetric, so it cancels from w - w.T
        # no matter how large the signal: the residual asymmetry stays at
        # the O(1) scale of the node latents and noise
        net = generate("a", "normal", 30, 1e16, False, seed=3)
        w = net.weights
        assert np.abs(w).max() > 1e6
        assert np.abs(w - w.T).max() < 100.0

    def test_population_effect_matches_large_n(self):
        # empirical covariance of same-sender pairs under setting b
        net = generate("b", "normal", 400, 1.0, False, seed=5)
        est = complete_estimate(net, EffectKind.SAME_SENDER).value
        assert est == pytest.approx(1.0, abs=0.2)

    def test_invalid_arguments(self):
        with pytest.raises(InvalidSpecError):
            generate("q", "normal", 10, 0.0, True, seed=0)
        with pytest.raises(InvalidSpecError):
            generate("a", "cauchy", 10, 0.0, True, seed=0)
        with pytest.raises(InvalidSpecError):
            generate("a", "normal", 3, 0.0, True, seed=0)


class TestMonteCarlo:
    def test_reproducible(self):
        spec = SimulationSpec(setting="b", n=30, reps=40, subsample_exponent=1.0,
                              master_seed=9)
        assert monte_carlo(spec) == monte_carlo(spec)

    def test_summary_consistency(self):
        spec = SimulationSpec(setting="b", n=30, reps=50, master_seed=2)
        summary = monte_carlo(spec)
        assert 0.0 <= summary.rejection_rate <= 1.0
        assert summary.reps == 50
        assert summary.standard_error == pytest.approx(
            np.sqrt(summary.rejection_rate * (1 - summary.rejection_rate) / 50)
        )
        assert sum(summary.branch_counts.values()) + summary.zero_variance_count == 50
        assert summary.zero_variance_count == 0

    def test_matches_per_replicate_runs(self):
        # the summary is a pure reduction of independent per-replicate outcomes,
        # so recomputing them individually (in any order) gives the same tally
        spec = SimulationSpec(setting="c", n=25, reps=30, master_seed=4)
        summary = monte_carlo(spec)
        outcomes = [_run_replicate(spec, rep) for rep in reversed(range(30))]
        assert sum(int(o[0]) for o in outcomes if o) == round(summary.rejection_rate * 30)

    def test_collect_statistics(self):
        spec = SimulationSpec(setting="b", n=25, reps=15, master_seed=1)
        summary = monte_carlo(spec)
        assert len(summary.statistics) == 15
        assert all(np.isfinite(s) for s in summary.statistics)

    def test_threads_do_not_change_results(self):
        spec = SimulationSpec(setting="a", n=25, reps=20, master_seed=6)
        serial = monte_carlo(spec, threads=1)
        parallel = monte_carlo(spec, threads=2)
        assert serial == parallel

    def test_zero_variance_tally(self, monkeypatch):
        from neteffects import simulation as sim

        def always_raises(*args, **kwargs):
            raise ZeroVarianceError("forced")

        monkeypatch.setattr(sim, "test_effect", always_raises)
        spec = SimulationSpec(setting="b", n=25, reps=5, master_seed=0)
        summary = monte_carlo(spec)
        assert summary.zero_variance_count == 5
        assert summary.rejection_rate == 0.0

    def test_four_node_replicates_have_zero_variance(self):
        # the reduced test is undefined at n = 4, where every quadruple is one node set
        summary = monte_carlo(SimulationSpec(setting="b", n=4, reps=5, master_seed=0))
        assert summary.zero_variance_count == 5
        assert summary.rejection_rate == 0.0
        assert summary.statistics == ()

    def test_pool_is_bounded_by_cpus_and_chunks(self, monkeypatch):
        from neteffects import simulation as sim

        sizes = []

        class RecordingPool:
            """Records the pool size and runs the tasks here, starting no process."""

            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables, chunksize=1):
                return map(fn, *iterables)

        assert 1 <= sim._available_cpus() <= (os.cpu_count() or 1)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(sim, "_available_cpus", lambda: 3)
        spec = SimulationSpec(setting="b", n=12, reps=40, master_seed=2)
        serial = monte_carlo(spec)
        # 40 replicates make 2 chunks of at most 32
        assert monte_carlo(spec, threads=5000) == serial
        assert monte_carlo(spec, threads=2) == serial
        wide = SimulationSpec(setting="b", n=12, reps=100, master_seed=2)
        monte_carlo(wide, threads=5000)
        monte_carlo(SimulationSpec(setting="b", n=12, reps=5, master_seed=2), threads=4)
        assert sizes == [2, 2, 3, 1]

    def test_invalid_threads(self, monkeypatch):
        from neteffects import simulation as sim

        def no_run(*args, **kwargs):
            raise AssertionError("a replicate or a pool ran before the check")

        monkeypatch.setattr(sim, "_run_replicate", no_run)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_run)
        spec = SimulationSpec(setting="b", n=25, reps=5)
        for threads in (0, 1.5, True):
            with pytest.raises(InvalidSpecError, match="^threads must be an integer of at least 1"):
                monte_carlo(spec, threads=threads)

    def test_null_rate_sane(self):
        # coarse level check; the acceptance suite pins the exact targets
        spec = SimulationSpec(setting="b", n=60, reps=200, subsample_exponent=1.0,
                              master_seed=3)
        summary = monte_carlo(spec)
        assert 0.01 <= summary.rejection_rate <= 0.12

    def test_power_rises_with_signal(self):
        weak = SimulationSpec(setting="b", n=60, reps=120, c_squared=0.05,
                              null_case=False, subsample_exponent=1.0, master_seed=5)
        strong = SimulationSpec(setting="b", n=60, reps=120, c_squared=1.0,
                                null_case=False, subsample_exponent=1.0, master_seed=5)
        assert monte_carlo(strong).rejection_rate > monte_carlo(weak).rejection_rate
        assert monte_carlo(strong).rejection_rate > 0.9


class TestReferenceRates:
    """Further reference rejection rates and population values beyond the
    acceptance grid."""

    def test_setting_c_full_signal_power_on_complete_branch(self):
        # at full signal the diagnostic flags non-degeneracy, so the
        # studentized complete test carries the (essentially perfect) power
        spec = SimulationSpec(setting="c", n=100, reps=200, c_squared=1.0,
                              null_case=False, subsample_exponent=1.0, master_seed=31)
        summary = monte_carlo(spec)
        assert summary.rejection_rate >= 0.98
        assert summary.branch_counts.get("studentized_complete", 0) >= 190

    def test_setting_a_reciprocity_population_value(self):
        # the pair latent has unit variance, so the reciprocity effect
        # equals c_squared; the complete estimate concentrates there
        vals = [
            complete_estimate(
                generate("a", "normal", 400, 1.0, False,
                         seed=np.random.SeedSequence((41, rep))),
                EffectKind.RECIPROCITY,
            ).value
            for rep in range(30)
        ]
        assert abs(np.mean(vals) - 1.0) < 0.1

    def test_setting_a_small_network_null_rate(self):
        spec = SimulationSpec(setting="a", n=50, reps=1000, null_case=True,
                              subsample_exponent=1.0, master_seed=21)
        summary = monte_carlo(spec)
        assert abs(summary.rejection_rate - 0.067) <= 0.025

    def test_setting_c_moderate_signal_power(self):
        # borderline signal: the diagnostic genuinely splits between branches
        spec = SimulationSpec(setting="c", n=100, reps=1000, c_squared=0.2,
                              null_case=False, subsample_exponent=1.0, master_seed=22)
        summary = monte_carlo(spec)
        assert abs(summary.rejection_rate - 0.860) <= 0.04
        assert set(summary.branch_counts) == {"reduced", "studentized_complete"}
