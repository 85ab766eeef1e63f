import math
import tracemalloc

import numpy as np
import pytest

from neteffects import DirectedWeightedNetwork, EffectKind, reduced_estimate, sample_quadruples


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


# The row of each effect in quadruple_kernel_values' (4, m) output
KERNEL_ROW = {effect: row for row, effect in enumerate(EffectKind)}


def traced_peak(fn, *args) -> int:
    """Peak bytes that ``fn(*args)`` allocates, as ``tracemalloc`` sees them."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def constant_net(n: int, value: float = 2.0) -> DirectedWeightedNetwork:
    w = np.full((n, n), value)
    np.fill_diagonal(w, 0.0)
    return DirectedWeightedNetwork(w)


def reduced_statistic(net: DirectedWeightedNetwork, effect, seed: int,
                      subsample_exponent: float = 1.2) -> float:
    """sqrt(m) * mean / sigma of the quadruple kernel, computed whatever branch
    test_effect would pick: the reduced branch's statistic for an effect with no
    diagnosis (eta3, eta4), whose spread has no xi^2 / n term."""
    sample = sample_quadruples(net.n, subsample_exponent, seed)
    moment = reduced_estimate(net, sample)[effect]
    return math.sqrt(moment.m) * moment.eta_hat / moment.sigma_hat


def two_path_offset_term(net: DirectedWeightedNetwork) -> np.ndarray:
    """The term by which eta5's node projection depends on the weights' offset,
    4 mu pair_i / (n - 2) with pair_i = (r_i + c_i) / (2(n - 1)), r and c the
    out- and in-sums of the weights centred by their mean off the diagonal (mu,
    then the centred copy's own mean); mu the mean edge.  Adding it back gives
    3 (S_i / C(n-1, 2) - U) of the centred weights alone."""
    n = net.n
    mu = net.weights.sum() / (n * (n - 1))
    d = net.weights - mu
    np.fill_diagonal(d, 0.0)
    d -= d.sum() / (n * (n - 1))
    np.fill_diagonal(d, 0.0)
    pair = (d.sum(axis=1) + d.sum(axis=0)) / (2.0 * (n - 1))
    return 4.0 * mu * pair / (n - 2)
