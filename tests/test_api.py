import inspect

import numpy as np
import pytest

from neteffects import (
    EffectKind,
    NetworkEffectTest,
    NonFiniteWeightError,
    SelfLoopError,
    as_network,
)
from neteffects import test_effect as run_effect_test
from neteffects.inference import derive_seed
from neteffects.simulation import generate
from .conftest import make_random_net


def random_matrix(n=40, seed=0):
    rng = np.random.default_rng(seed)
    w = rng.normal(size=(n, n))
    np.fill_diagonal(w, 0.0)
    return w


class TestAsNetwork:
    def test_accepts_lists(self):
        out = as_network([[0.0, 1.0], [2.0, 0.0]]).weights
        assert out.dtype == np.float64

    def test_rejects_rectangular(self):
        with pytest.raises(ValueError):
            as_network(np.zeros((3, 4)))

    def test_rejects_nan(self):
        w = random_matrix(5)
        w[1, 2] = np.nan
        with pytest.raises(NonFiniteWeightError):
            as_network(w)

    def test_rejects_nonzero_diagonal(self):
        w = random_matrix(5)
        w[2, 2] = 1.0
        with pytest.raises(SelfLoopError):
            as_network(w)

    def test_as_network_passthrough(self):
        net = make_random_net(6, 0)
        assert as_network(net) is net


class TestNetworkEffectTest:
    def test_get_set_params_round_trip(self):
        est = NetworkEffectTest(effect="eta5", alpha=0.01, random_state=3)
        params = est.get_params()
        assert params["effect"] == "eta5"
        assert params["alpha"] == 0.01
        assert params["random_state"] == 3
        clone = NetworkEffectTest().set_params(**params)
        assert clone.get_params() == params

    def test_set_params_rejects_unknown(self):
        with pytest.raises(ValueError):
            NetworkEffectTest().set_params(bogus=1)

    def test_fit_sets_attributes(self):
        w = random_matrix()
        est = NetworkEffectTest(effect="same_sender", random_state=7).fit(w)
        assert est.n_nodes_ == 40
        assert est.branch_ == "reduced"
        assert est.diagnosis_ is None
        assert 0.0 <= est.p_value_ <= 1.0
        assert est.reject_ == (est.p_value_ < 0.05)
        assert est.report_.effect.value == "same_sender"

    def test_fit_matches_functional_pipeline(self):
        w = random_matrix(seed=3)
        for effect in ("eta2", "eta3", "eta4", "eta5"):
            for s in (0, 11):
                report = NetworkEffectTest(effect=effect, random_state=s).fit(w).report_
                assert report == run_effect_test(as_network(w), EffectKind.parse(effect),
                                                 seed=derive_seed(s))

    @pytest.mark.parametrize("params", [
        dict(effect="eta3", diagnostic_constant=float("nan")),
        dict(effect="eta2", subsample_exponent=7.0),
    ])
    def test_fit_rejects_bad_parameters_whatever_the_branch(self, params):
        # eta2 takes the complete branch on this network
        w = generate("a", "normal", 60, 1.0, False, seed=1).weights
        with pytest.raises(ValueError):
            NetworkEffectTest(**params).fit(w)

    def test_refit_is_deterministic(self):
        w = random_matrix(seed=9)
        a = NetworkEffectTest(effect="eta4", random_state=1).fit(w).report_
        b = NetworkEffectTest(effect="eta4", random_state=1).fit(w).report_
        assert a == b

    def test_accepts_effect_enum(self):
        est = NetworkEffectTest(effect=EffectKind.SENDER_RECEIVER).fit(random_matrix())
        assert est.report_.effect is EffectKind.SENDER_RECEIVER

    def test_repr_shows_params(self):
        text = repr(NetworkEffectTest(effect="eta2", alpha=0.1))
        assert "effect='eta2'" in text and "alpha=0.1" in text


    def test_parameters_are_the_constructors_and_nothing_else(self):
        defaults = {"effect": "reciprocity", "alpha": 0.05, "subsample_exponent": 1.2,
                    "random_state": 0, "diagnostic_constant": 1.0}
        signature = inspect.signature(NetworkEffectTest).parameters
        assert {name: p.default for name, p in signature.items()} == defaults
        est = NetworkEffectTest(effect="eta2", alpha=0.1).fit(random_matrix())
        assert est.get_params() == {**defaults, "effect": "eta2", "alpha": 0.1}
        assert repr(est) == ("NetworkEffectTest(effect='eta2', alpha=0.1, subsample_exponent=1.2,"
                             " random_state=0, diagnostic_constant=1.0)")

    def test_equality_is_identity(self):
        est = NetworkEffectTest()
        assert est == est and est != NetworkEffectTest()
        assert len({est, NetworkEffectTest()}) == 2
