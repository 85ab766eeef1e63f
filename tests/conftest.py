import math

import numpy as np
import pytest

from neteffects import DirectedWeightedNetwork, reduced_estimate, sample_quadruples


@pytest.fixture
def worked_net() -> DirectedWeightedNetwork:
    """3-node network with e12=1, e13=2, e21=3, e23=4, e31=5, e32=6.

    Small enough that every estimator value below was computed by hand.
    """
    return DirectedWeightedNetwork(np.array([
        [0.0, 1.0, 2.0],
        [3.0, 0.0, 4.0],
        [5.0, 6.0, 0.0],
    ]))


def make_random_net(n: int, seed: int, integers: bool = False) -> DirectedWeightedNetwork:
    rng = np.random.default_rng(seed)
    if integers:
        w = rng.integers(-4, 5, size=(n, n)).astype(float)
    else:
        w = rng.normal(size=(n, n))
    np.fill_diagonal(w, 0.0)
    return DirectedWeightedNetwork(w)


def constant_net(n: int, value: float = 2.0) -> DirectedWeightedNetwork:
    w = np.full((n, n), value)
    np.fill_diagonal(w, 0.0)
    return DirectedWeightedNetwork(w)


def reduced_statistic(net: DirectedWeightedNetwork, effect, seed: int,
                      subsample_exponent: float = 1.2) -> float:
    """sqrt(m) * mean / spread of the quadruple kernel: the reduced branch's
    statistic, computed whatever branch test_effect would pick."""
    sample = sample_quadruples(net.n, subsample_exponent, seed)
    moment = reduced_estimate(net, effect, sample)
    return math.sqrt(moment.m) * moment.eta_hat / moment.sigma_hat
