import gc
import math
import os
import subprocess
import sys
import tracemalloc
import weakref
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy.special import ndtr

from neteffects import (
    DirectedWeightedNetwork,
    EffectKind,
    NodeSummaries,
    NonFiniteStatisticError,
    UnsupportedEffectError,
    ZeroVarianceError,
    diagnose_degeneracy,
    local_effects,
)
from neteffects import estimators, inference, network
from neteffects import test_effect as run_effect_test
from neteffects.inference import derive_seed
from neteffects.simulation import generate
from . import oracles
from .conftest import (constant_net, make_random_net, reduced_statistic, traced_peak,
                       two_path_offset_term)

DIAGNOSABLE = [EffectKind.RECIPROCITY, EffectKind.SENDER_RECEIVER]
ALWAYS_REDUCED = [EffectKind.SAME_SENDER, EffectKind.SAME_RECEIVER]


class TestDiagnoseDegeneracy:
    @pytest.mark.parametrize("effect", DIAGNOSABLE)
    def test_constant_network_is_degenerate(self, effect):
        diag = diagnose_degeneracy(constant_net(10, 2.0), effect, c_constant=0.5)
        assert diag.verdict == "degenerate"
        assert diag.xi_squared == 0.0
        assert not diag.non_degenerate

    def test_threshold_formula(self):
        diag = diagnose_degeneracy(make_random_net(50, 0), EffectKind.RECIPROCITY, c_constant=2.0)
        assert diag.threshold == pytest.approx(2.0 * np.sqrt(np.log(50) / 50))
        assert diag.c_constant == 2.0

    def test_verdict_consistent_with_threshold(self):
        for seed in range(5):
            net = make_random_net(30, seed)
            for effect in DIAGNOSABLE:
                diag = diagnose_degeneracy(net, effect)
                assert diag.non_degenerate == (diag.xi_squared > diag.threshold)

    @pytest.mark.parametrize("effect", ALWAYS_REDUCED)
    def test_unsupported_effect(self, effect):
        with pytest.raises(UnsupportedEffectError):
            diagnose_degeneracy(make_random_net(10, 0), effect)

    @pytest.mark.parametrize("c_constant", [0.0, -1.0, float("nan"), float("inf")])
    def test_bad_constant(self, c_constant):
        with pytest.raises(ValueError, match="c_constant must be positive and finite"):
            diagnose_degeneracy(make_random_net(10, 0), EffectKind.RECIPROCITY, c_constant=c_constant)

    def test_known_nondegenerate_generator(self):
        # additive reciprocity-style model with node heterogeneity keeps
        # the projection variance bounded away from zero
        net = generate("nondegenerate_reciprocity", "normal", 200, 0.0, True, seed=0)
        assert diagnose_degeneracy(net, EffectKind.RECIPROCITY).non_degenerate

    def test_known_degenerate_generator(self):
        net = generate("degenerate_reciprocity", "normal", 200, 0.0, True, seed=0)
        assert not diagnose_degeneracy(net, EffectKind.RECIPROCITY).non_degenerate

    @pytest.mark.parametrize("name, effect", [
        ("eta2", EffectKind.RECIPROCITY), ("reciprocity", EffectKind.RECIPROCITY),
        ("eta5", EffectKind.SENDER_RECEIVER), ("sender_receiver", EffectKind.SENDER_RECEIVER),
    ])
    def test_effect_by_name(self, name, effect):
        net = make_random_net(30, seed=2)
        assert diagnose_degeneracy(net, name) == diagnose_degeneracy(net, effect)

    def test_unknown_effect_name(self, monkeypatch):
        def no_pass(*args):
            raise AssertionError("a pass over the weights ran before the check")

        monkeypatch.setattr(inference, "projection_variance", no_pass)
        with pytest.raises(ValueError, match="^unknown effect 'eta9'"):
            diagnose_degeneracy(make_random_net(10, 0), "eta9")


class TestStudentizedCompleteTest:
    """The complete branch, reached through test_effect's diagnosis."""

    def test_constant_network_raises(self):
        # xi^2 = 0 is a degenerate verdict, and every kernel value is equal
        with pytest.raises(ZeroVarianceError):
            run_effect_test(constant_net(8), EffectKind.RECIPROCITY)

    def test_report_fields(self):
        net = generate("a", "normal", 60, 1.0, False, seed=1)
        report = run_effect_test(net, EffectKind.RECIPROCITY, alpha=0.05)
        assert report.branch == "studentized_complete"
        assert report.diagnosis.non_degenerate
        assert report.subsample_exponent is None and report.seed is None
        assert report.estimate.method == "complete"
        assert report.statistic == (
            np.sqrt(60) * report.estimate.value / np.sqrt(report.diagnosis.xi_squared)
        )
        assert 0.0 <= report.p_value <= 1.0
        assert report.reject == (report.p_value < report.alpha)

    def test_strong_signal_rejects(self):
        net = generate("a", "normal", 100, 5.0, False, seed=2)
        report = run_effect_test(net, EffectKind.RECIPROCITY)
        assert report.branch == "studentized_complete"
        assert report.reject

    def test_alpha_validation(self):
        net = generate("a", "normal", 60, 1.0, False, seed=1)
        with pytest.raises(ValueError, match="alpha"):
            run_effect_test(net, EffectKind.RECIPROCITY, alpha=1.5)


class TestReducedTest:
    """The reduced branch, reached through test_effect: directly for the
    always-degenerate effects, after a degenerate verdict for the others."""

    def test_constant_network_raises(self):
        with pytest.raises(ZeroVarianceError):
            run_effect_test(constant_net(8), EffectKind.SAME_SENDER, seed=0)

    def test_four_nodes_raise_before_any_draw(self, monkeypatch):
        # C(4, 4) = 1: every quadruple is the one node set, so the kernel values
        # differ by rounding alone and their spread would studentize noise
        def no_draw(*args, **kwargs):
            raise AssertionError("a quadruple draw ran at n = 4")

        monkeypatch.setattr(inference, "sample_quadruples", no_draw)
        complete = 0
        for seed in range(50):
            net = make_random_net(4, seed)
            for effect in EffectKind:
                if effect.diagnosable and diagnose_degeneracy(net, effect).non_degenerate:
                    assert run_effect_test(net, effect).branch == "studentized_complete"
                    complete += 1
                    continue
                with pytest.raises(ZeroVarianceError, match="at least 5 nodes"):
                    run_effect_test(net, effect)
        assert complete > 0

    def test_report_fields(self):
        net = make_random_net(40, seed=3)
        report = run_effect_test(net, EffectKind.SAME_SENDER, alpha=0.1,
                                 subsample_exponent=1.3, seed=5)
        assert report.branch == "reduced"
        assert report.subsample_exponent == 1.3
        assert report.seed == 5
        assert report.diagnosis is None
        assert report.estimate.method == "reduced"
        assert report.reject == (report.p_value < 0.1)

    def test_statistic_is_standardized_subsample_mean(self):
        from neteffects import reduced_estimate, sample_quadruples

        net = make_random_net(30, seed=9)
        sample = sample_quadruples(30, 1.2, seed=4)
        moment = reduced_estimate(net, sample)[EffectKind.SENDER_RECEIVER]
        report = run_effect_test(net, EffectKind.SENDER_RECEIVER,
                                 subsample_exponent=1.2, seed=4)
        assert report.branch == "reduced"
        assert report.statistic == pytest.approx(
            np.sqrt(moment.m) * moment.eta_hat / moment.sigma_hat, rel=1e-14
        )
        assert reduced_statistic(net, EffectKind.SENDER_RECEIVER, seed=4) == report.statistic

    @pytest.mark.parametrize("effect", list(EffectKind))
    def test_scale_invariance(self, effect):
        # all four quadruple kernels are degree-2 homogeneous, so the
        # studentized statistic ignores a global rescaling (test_effect's
        # routing does not yet: ROADMAP item 3)
        net = make_random_net(25, seed=10)
        scaled = DirectedWeightedNetwork(7.5 * net.weights)
        a = reduced_statistic(net, effect, seed=2)
        b = reduced_statistic(scaled, effect, seed=2)
        assert b == pytest.approx(a, rel=1e-10)

    def test_deterministic(self):
        net = make_random_net(30, seed=11)
        a = run_effect_test(net, EffectKind.SAME_RECEIVER, seed=21)
        b = run_effect_test(net, EffectKind.SAME_RECEIVER, seed=21)
        assert a == b

    def test_first_call_keeps_no_sample_array(self):
        # m = 251,189: the (m, 4) sample and the (4, m) kernel values take 8 MB
        # each; holding both, the first call peaked at 19.5 MB, and at 11.2 MB
        # holding the values alone
        net = make_random_net(1000, seed=1)
        net.summaries
        peak = traced_peak(lambda: run_effect_test(net, "eta3", subsample_exponent=1.8, seed=3))
        assert peak < 5e6


class TestSharedReducedSample:
    """The effects tested on one network at one (subsample_exponent, seed)
    share one quadruple draw and one kernel gather, and every report equals
    the one a fresh network gives."""

    KEYS = [(1.2, 0), (1.2, 7), (1.5, 0), (1.5, 7)]

    @staticmethod
    def counted(monkeypatch, module, attr, calls):
        original = getattr(module, attr)

        def counting(*args, **kwargs):
            calls[attr] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, attr, counting)

    def test_one_draw_and_one_gather_per_key(self, monkeypatch):
        calls = {"sample_quadruples": 0, "quadruple_kernel_values": 0}
        self.counted(monkeypatch, inference, "sample_quadruples", calls)
        self.counted(monkeypatch, estimators, "quadruple_kernel_values", calls)
        net = make_random_net(60, seed=0)  # every effect takes the reduced branch
        for seed, expected in ((3, 1), (4, 2)):
            reports = [run_effect_test(net, effect, seed=seed) for effect in EffectKind]
            assert [r.branch for r in reports] == ["reduced"] * 4
            assert calls == {"sample_quadruples": expected, "quadruple_kernel_values": expected}

    @pytest.mark.parametrize("routed", ["complete", "reduced"])
    @pytest.mark.parametrize("order", ["forward", "reversed", "interleaved"])
    def test_reports_equal_those_of_a_fresh_network(self, routed, order):
        w = TestParametersCheckedAtEntry.NETWORKS[routed]().weights
        effects = list(EffectKind)
        if order == "interleaved":  # the key changes at every call
            calls = [(effect, key) for effect in effects for key in self.KEYS]
        else:
            effects = effects if order == "forward" else effects[::-1]
            calls = [(effect, key) for key in self.KEYS for effect in effects]
        net = DirectedWeightedNetwork(w)
        for effect, (lam, seed) in calls:
            shared = run_effect_test(net, effect, subsample_exponent=lam, seed=seed)
            fresh = run_effect_test(DirectedWeightedNetwork(w), effect,
                                    subsample_exponent=lam, seed=seed)
            assert shared == fresh, (effect, lam, seed)

    def test_threads_sharing_a_network(self):
        # Small samples keep each call short, so the two threads often store
        # and read the shared entry within microseconds of each other.
        w = make_random_net(60, seed=1).weights
        jobs = [(effect, seed) for effect in EffectKind for seed in (0, 1, 2)] * 100
        expected = {job: run_effect_test(DirectedWeightedNetwork(w), job[0], seed=job[1])
                    for job in set(jobs)}
        net = DirectedWeightedNetwork(w)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads between almost any two bytecodes
        try:
            with ThreadPoolExecutor(max_workers=2) as pool:
                got = list(pool.map(lambda job: run_effect_test(net, job[0], seed=job[1]), jobs,
                                    timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert got == [expected[job] for job in jobs]

    def test_nothing_outlives_the_network_and_no_sample_is_kept(self):
        net = make_random_net(1000, seed=2)
        net.summaries  # the network's own cache, built before tracing starts
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            for effect in EffectKind:
                run_effect_test(net, effect, subsample_exponent=1.8, seed=5)
            kept = tracemalloc.get_traced_memory()[0] - start
        finally:
            tracemalloc.stop()
        assert kept < 1e6  # the sample alone is 8 MB
        ref = weakref.ref(net)
        del net
        gc.collect()
        assert ref() is None


class TestParametersCheckedAtEntry:
    """test_effect checks alpha, lambda and C before any pass over the
    weights, for every effect, whichever branch the data would pick."""

    # eta2 and eta5 take the complete branch on the first, the reduced on the second
    NETWORKS = {
        "complete": lambda: generate("a", "normal", 60, 1.0, False, seed=1),
        "reduced": lambda: make_random_net(60, seed=0),
    }

    @pytest.mark.parametrize("routed", list(NETWORKS))
    def test_networks_take_the_named_branch(self, routed):
        net = self.NETWORKS[routed]()
        for effect in DIAGNOSABLE:
            assert run_effect_test(net, effect).branch == (
                "studentized_complete" if routed == "complete" else "reduced"
            )

    @pytest.mark.parametrize("routed", list(NETWORKS))
    @pytest.mark.parametrize("name, value, message", [
        ("alpha", 1.5, "alpha"),
        ("alpha", float("nan"), "alpha"),
        ("subsample_exponent", 7.0, "subsample exponent"),
        ("subsample_exponent", -1.0, "subsample exponent"),
        ("subsample_exponent", float("nan"), "subsample exponent"),
        ("c_constant", float("nan"), "c_constant"),
        ("c_constant", float("inf"), "c_constant"),
        ("c_constant", 0.0, "c_constant"),
        ("seed", -1, "seed"),
        ("seed", 1.5, "seed"),
        ("seed", True, "seed"),
        ("seed", False, "seed"),
        ("seed", np.True_, "seed"),
        # not a real number: a str, None or a bool, as the integer rule reads it
        ("alpha", "0.05", "alpha"),
        ("alpha", None, "alpha"),
        ("alpha", True, "alpha"),
        ("subsample_exponent", "1.2", "subsample exponent"),
        ("subsample_exponent", None, "subsample exponent"),
        ("subsample_exponent", True, "subsample exponent"),
        ("c_constant", "1", "c_constant"),
        ("c_constant", None, "c_constant"),
        ("c_constant", True, "c_constant"),
    ])
    def test_bad_parameter_raises_before_any_pass(self, routed, name, value, message,
                                                  monkeypatch):
        net = self.NETWORKS[routed]()
        self._forbid_passes(monkeypatch)
        for effect in EffectKind:
            with pytest.raises(ValueError, match=f"^{message} must be"):
                run_effect_test(net, effect, **{name: value})

    @pytest.mark.parametrize("routed", list(NETWORKS))
    def test_unknown_effect_name_raises_before_any_pass(self, routed, monkeypatch):
        net = self.NETWORKS[routed]()
        self._forbid_passes(monkeypatch)
        with pytest.raises(ValueError, match="^unknown effect 'eta9'"):
            run_effect_test(net, "eta9")

    @staticmethod
    def _forbid_passes(monkeypatch):
        def no_pass(*args, **kwargs):
            raise AssertionError("a pass over the weights ran before the check")

        for attr in ("diagnose_degeneracy", "complete_estimate", "sample_quadruples",
                     "reduced_estimate"):
            monkeypatch.setattr(inference, attr, no_pass)

    @pytest.mark.parametrize("routed", list(NETWORKS))
    def test_numpy_and_fraction_reals_are_accepted(self, routed):
        net = self.NETWORKS[routed]()
        for effect in EffectKind:
            assert (run_effect_test(net, effect, alpha=np.float64(0.05), subsample_exponent=np.float64(1.2),
                                    c_constant=Fraction(1))
                    == run_effect_test(net, effect, alpha=0.05, subsample_exponent=1.2, c_constant=1.0))

    def test_numpy_integer_seed_is_accepted(self):
        net = self.NETWORKS["reduced"]()
        for effect in EffectKind:
            assert run_effect_test(net, effect, seed=np.int64(3)) == run_effect_test(net, effect, seed=3)
        assert derive_seed(np.uint32(3)) == derive_seed(3)


class TestTestEffectRouting:
    @pytest.mark.parametrize("effect", ALWAYS_REDUCED)
    def test_always_reduced_effects_have_no_diagnosis(self, effect):
        net = make_random_net(30, seed=1)
        report = run_effect_test(net, effect, seed=3)
        assert report.branch == "reduced"
        assert report.diagnosis is None

    @pytest.mark.parametrize("effect", DIAGNOSABLE)
    def test_diagnosable_effects_carry_diagnosis(self, effect):
        net = make_random_net(30, seed=1)
        report = run_effect_test(net, effect, seed=3)
        assert report.diagnosis is not None
        expected_branch = "studentized_complete" if report.diagnosis.non_degenerate else "reduced"
        assert report.branch == expected_branch

    def test_nondegenerate_case_routes_to_complete(self):
        net = generate("nondegenerate_sender_receiver", "normal", 150, 0.0, True, seed=4)
        report = run_effect_test(net, EffectKind.SENDER_RECEIVER, seed=0)
        assert report.branch == "studentized_complete"

    def test_degenerate_case_routes_to_reduced(self):
        net = generate("degenerate_reciprocity", "normal", 150, 0.0, True, seed=4)
        report = run_effect_test(net, EffectKind.RECIPROCITY, seed=0)
        assert report.branch == "reduced"

    @pytest.mark.parametrize("name, effect", [
        ("eta2", EffectKind.RECIPROCITY), ("reciprocity", EffectKind.RECIPROCITY),
        ("eta3", EffectKind.SAME_SENDER), ("same_receiver", EffectKind.SAME_RECEIVER),
        ("eta5", EffectKind.SENDER_RECEIVER),
    ])
    def test_effect_by_name_gives_the_members_report(self, name, effect):
        net = make_random_net(30, seed=1)
        report = run_effect_test(net, name, seed=3)
        assert report.effect is effect
        assert report == run_effect_test(net, effect, seed=3)

    def test_deterministic_reports(self):
        net = make_random_net(40, seed=5)
        for effect in EffectKind:
            assert run_effect_test(net, effect, seed=9) == run_effect_test(net, effect, seed=9)

    def test_blas_thread_count_keeps_every_bit(self):
        # OpenBLAS reads its thread count when numpy loads, so each count runs in
        # its own process.  At n = 600, setting a routes eta2 and eta5 to the
        # complete branch, whose eta5 projection takes two matrix-vector products.
        script = "\n".join([
            "import hashlib",
            "from neteffects import EffectKind, test_effect",
            "from neteffects.simulation import generate",
            "net = generate('a', 'normal', 600, 0.0, True, seed=3)",
            "for effect in EffectKind:",
            "    print(repr(test_effect(net, effect, seed=1)))",
            "for values in vars(net.summaries).values():",
            "    print(hashlib.sha256(values.tobytes()).hexdigest())",
        ])
        src = str(Path(__file__).resolve().parents[1] / "src")
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
            proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                                  env=env, timeout=300)
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
        assert "studentized_complete" in outputs[0] and "reduced" in outputs[0]
        assert outputs[0] == outputs[1]

    def test_propagates_zero_variance(self):
        with pytest.raises(ZeroVarianceError):
            run_effect_test(constant_net(10), EffectKind.SAME_SENDER)

    @pytest.mark.parametrize("setting, effect, branch", [
        ("nondegenerate_reciprocity", EffectKind.RECIPROCITY, "studentized_complete"),
        ("degenerate_reciprocity", EffectKind.RECIPROCITY, "reduced"),
        ("nondegenerate_sender_receiver", EffectKind.SENDER_RECEIVER, "studentized_complete"),
        ("degenerate_sender_receiver", EffectKind.SENDER_RECEIVER, "reduced"),
    ])
    def test_projection_variance_computed_once(self, setting, effect, branch, monkeypatch):
        calls = []
        original = inference.projection_variance

        def counted(net, kind):
            calls.append(kind)
            return original(net, kind)

        monkeypatch.setattr(inference, "projection_variance", counted)
        net = generate(setting, "normal", 150, 0.0, True, seed=4)
        report = run_effect_test(net, effect, seed=0)
        assert report.branch == branch
        assert calls == [effect]


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid value:RuntimeWarning")
class TestNonFiniteStatistic:
    # At 1e80 the squares of the products overflow, so spreads and variances
    # are infinite and the statistic would read 0; at 1e160 everything is NaN.
    @staticmethod
    def overflowing_net(scale):
        rng = np.random.default_rng(0)
        w = rng.normal(size=(60, 60)) * scale
        np.fill_diagonal(w, 0.0)
        return DirectedWeightedNetwork(w)

    @pytest.mark.parametrize("scale", [1e80, 1e160])
    @pytest.mark.parametrize("effect", list(EffectKind))
    def test_test_effect_raises(self, effect, scale):
        with pytest.raises(NonFiniteStatisticError):
            run_effect_test(self.overflowing_net(scale), effect, seed=0)

    @pytest.mark.parametrize("scale", [1e80, 1e160])
    @pytest.mark.parametrize("effect", DIAGNOSABLE)
    def test_diagnose_raises(self, effect, scale):
        with pytest.raises(NonFiniteStatisticError):
            diagnose_degeneracy(self.overflowing_net(scale), effect)

    @pytest.mark.parametrize("effect", ALWAYS_REDUCED)
    def test_reduced_raises_on_infinite_spread(self, effect):
        with pytest.raises(NonFiniteStatisticError, match="kernel spread is inf"):
            run_effect_test(self.overflowing_net(1e80), effect, seed=0)

    def test_local_effects_raise(self):
        with pytest.raises(NonFiniteStatisticError, match="local effect is nan"):
            local_effects(self.overflowing_net(1e160))


class TestDeriveSeed:
    @pytest.mark.parametrize("seed, derived", [
        (0, 3757552657), (1, 1641411168), (7, 1201125462), (2**31, 1025242703),
    ])
    def test_pinned_values(self, seed, derived):
        assert derive_seed(seed) == derived
        assert type(derive_seed(seed)) is int

    @pytest.mark.parametrize("seed", [True, False, np.True_])
    def test_a_bool_is_not_a_seed(self, seed):
        with pytest.raises(ValueError, match="^seed must be a non-negative integer"):
            derive_seed(seed)


class TestLocalEffects:
    def test_constant_network_all_zero(self):
        table = local_effects(constant_net(6, 2.0))
        for arr in (table.reciprocity, table.same_sender,
                    table.same_receiver, table.sender_receiver):
            np.testing.assert_allclose(arr, 0.0, atol=1e-12)

    def test_worked_reciprocity_value(self, worked_net):
        table = local_effects(worked_net)
        assert table.reciprocity[0] == pytest.approx(-0.5)

    @pytest.mark.parametrize("n", [5, 6])
    def test_matches_double_loop(self, n):
        net = make_random_net(n, seed=n * 3)
        table = local_effects(net)
        rec, same_s, same_r, send_r = oracles.naive_local_effects(net.weights)
        np.testing.assert_allclose(table.reciprocity, rec, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(table.same_sender, same_s, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(table.same_receiver, same_r, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(table.sender_receiver, send_r, rtol=1e-12, atol=1e-12)

    def test_one_matrix_temporary(self):
        # the sums stream in blocks of rows: a centred copy alone would be 8 MB at n = 1000
        net = make_random_net(1000, seed=2)
        assert traced_peak(local_effects, net) < 2e6

    # local_effects divides the motif sums of the network's node-sum pass, which
    # are the centred copy's bit for bit up to one tile (TestRowColSummaries)
    @pytest.mark.parametrize("n", [3, 27, 64, 65, 95, 1025])
    def test_bit_identical_to_the_sums_of_the_centred_copy(self, n):
        base = make_random_net(n, seed=n).weights
        for scale in (1.0, 1e-3, 1e5):
            for offset in (0.0, 1e3, 1e8):
                w = base * scale + offset
                np.fill_diagonal(w, 0.0)
                net = DirectedWeightedNetwork(w)
                d = net.weights - estimators.mean_edge(net)
                np.fill_diagonal(d, 0.0)
                sums = NodeSummaries.of(d) if n <= network.SUMMARY_TILE else net.summaries
                table = local_effects(net)
                for effect in EffectKind:
                    expected = sums.motif(effect) / math.perm(n - 1, effect.arity - 1)
                    assert np.array_equal(getattr(table, effect.value), expected), (scale, offset, effect)


class TestShiftInvariance:
    """Adding a constant to every edge leaves the complete estimates, eta2's
    projection variance and eta2's verdict unchanged, and eta5's projection
    variance too once its one offset term, 4 mu pair / (n - 2), is added
    back.  The weights are multiples of 2**-10 below 2**5 in size, so every
    shift up to 2**26 is exact in float64 and only the package's own
    arithmetic can differ.  eta5's own projection variance and verdict
    still depend on the offset through that term (ROADMAP item 3)."""

    SETTINGS = ["a", "b", "c", "degenerate_reciprocity", "nondegenerate_reciprocity"]
    SHIFTS = [2.0**10, 2.0**16, 2.0**20, 2.0**26]

    @staticmethod
    def networks(setting):
        for seed in range(20):
            w = generate(setting, "normal", 30 + seed, 0.0, True, seed=seed).weights
            w = np.round(w * 2.0**10) / 2.0**10
            assert np.abs(w).max() < 2.0**5
            yield w

    @staticmethod
    def shifted(w, shift):
        v = w + shift
        np.fill_diagonal(v, 0.0)
        return DirectedWeightedNetwork(v)

    @pytest.mark.parametrize("setting", SETTINGS)
    def test_complete_estimates(self, setting):
        for w in self.networks(setting):
            net = DirectedWeightedNetwork(w)
            d = net.weights - estimators.mean_edge(net)
            np.fill_diagonal(d, 0.0)
            edge_variance = (d * d).sum() / (net.n * (net.n - 1))
            for effect in EffectKind:
                base = estimators.complete_estimate(net, effect).value
                scale = max(abs(base), edge_variance)
                for shift in self.SHIFTS:
                    value = estimators.complete_estimate(self.shifted(w, shift), effect).value
                    assert abs(value - base) <= 1e-12 * scale, (net.n, effect, shift)

    @pytest.mark.parametrize("setting", SETTINGS)
    def test_reciprocity_diagnosis(self, setting):
        for w in self.networks(setting):
            base = diagnose_degeneracy(DirectedWeightedNetwork(w), EffectKind.RECIPROCITY)
            for shift in self.SHIFTS:
                shifted = diagnose_degeneracy(self.shifted(w, shift), EffectKind.RECIPROCITY)
                assert shifted.verdict == base.verdict, (len(w), shift)
                if shift <= 2.0**20:
                    assert shifted.xi_squared == pytest.approx(base.xi_squared, rel=1e-9), (len(w), shift)

    @staticmethod
    def two_path_xi_squared_without_offset_term(net):
        g = estimators.node_projection(net, EffectKind.SENDER_RECEIVER) + two_path_offset_term(net)
        return float(np.mean(g * g))

    @pytest.mark.parametrize("setting", SETTINGS)
    def test_two_path_projection_without_its_offset_term(self, setting):
        for w in self.networks(setting):
            base = self.two_path_xi_squared_without_offset_term(DirectedWeightedNetwork(w))
            for shift, rel in [(2.0**10, 1e-9), (2.0**16, 1e-9), (2.0**20, 1e-8)]:
                value = self.two_path_xi_squared_without_offset_term(self.shifted(w, shift))
                assert value == pytest.approx(base, rel=rel), (len(w), shift)


class TestPValue:
    def test_matches_the_normal_tail(self):
        # 2 Phi(-z) from scipy, floored as reports are; the floor takes over near z = 37
        z = np.concatenate([[0.0], np.linspace(1e-6, 38.5, 20001)])
        reference = np.clip(2.0 * ndtr(-z), inference.MIN_P_VALUE, 1.0)
        for statistic, expected in zip(z, reference):
            for signed in (statistic, -statistic):
                p = inference._two_sided_p(signed, EffectKind.RECIPROCITY)
                assert p <= 1.0
                assert abs(p - expected) <= 3e-16
                assert abs(p - expected) <= 1e-12 * expected
                for alpha in (0.01, 0.05, 0.1):
                    assert (p < alpha) == (expected < alpha)
        assert inference._two_sided_p(0.0, EffectKind.RECIPROCITY) == 1.0


class TestNullDistribution:
    """The routed pipeline statistic should be close to standard normal
    under each null generator; checked at coarse resolution here (the
    acceptance suite runs the full-size version).

    Note the raw subsampled statistic is only normal in the degenerate
    case; setting "a" has a non-degenerate null, which is exactly why
    the pipeline sends it to the studentized complete branch.
    """

    # Setting "a" routes to the studentized complete branch, whose
    # finite-n error is larger (systematic KS ~ 0.05 at n=100 from an
    # O(1/n) centering shift, measured over 10000 replicates), so it
    # gets a looser bound; the subsampled branch settings meet 0.06.
    @pytest.mark.parametrize("setting,bound", [("a", 0.10), ("b", 0.06), ("c", 0.06)])
    def test_pipeline_statistic_close_to_normal(self, setting, bound):
        from neteffects import SimulationSpec, monte_carlo

        spec = SimulationSpec(setting=setting, n=100, reps=2000, null_case=True,
                              subsample_exponent=1.0, master_seed=101)
        summary = monte_carlo(spec)
        stats = np.sort(np.asarray(summary.statistics))
        m = len(stats)
        grid = ndtr(stats)
        upper = np.arange(1, m + 1) / m
        lower = np.arange(0, m) / m
        ks = max(np.abs(upper - grid).max(), np.abs(lower - grid).max())
        assert ks < bound
