"""Scikit-learn style estimator facade.

:class:`NetworkEffectTest` follows the sklearn API conventions (constructor stores
hyperparameters verbatim, ``fit`` consumes a square weight matrix and
returns ``self``, fitted attributes get a trailing underscore, and
``get_params``/``set_params`` support cloning and grid composition)
without requiring scikit-learn itself.
"""

from __future__ import annotations

import dataclasses

from . import inference
from .network import EffectKind, as_network

__all__ = ["NetworkEffectTest"]


@dataclasses.dataclass(eq=False)
class NetworkEffectTest:
    """Test one network effect on a weighted directed adjacency matrix.

    Parameters
    ----------
    effect : str or EffectKind, default "reciprocity"
        One of "reciprocity", "same_sender", "same_receiver",
        "sender_receiver" (or the short forms eta2..eta5).
    alpha : float, default ``inference.Settings.alpha``
        Two-sided significance level.
    subsample_exponent : float, default ``inference.Settings.subsample_exponent``
        Quadruple subsample size is round(n ** subsample_exponent);
        larger values buy power at some cost in size accuracy and time.
    random_state : int, default ``inference.Settings.seed``
        Seed for quadruple subsampling on the reduced branch; the test
        runs with ``inference.derive_seed(random_state)``, as the CLI does.
    diagnostic_constant : float, default ``inference.Settings.c_constant``
        Multiplier on the degeneracy threshold (reciprocity and
        sender-receiver only).

    Attributes (after ``fit``)
    --------------------------
    report_ : TestReport with the full outcome, plus the convenience
    mirrors ``statistic_``, ``p_value_``, ``reject_``, ``branch_``,
    ``estimate_`` and ``diagnosis_`` (None for the always-degenerate
    effects).

    Examples
    --------
    >>> import numpy as np
    >>> rng = np.random.default_rng(0)
    >>> w = rng.normal(size=(60, 60)); np.fill_diagonal(w, 0.0)
    >>> test = NetworkEffectTest(effect="same_sender").fit(w)
    >>> bool(test.reject_)
    False
    """

    effect: str | EffectKind = "reciprocity"
    alpha: float = inference.Settings.alpha
    subsample_exponent: float = inference.Settings.subsample_exponent
    random_state: int = inference.Settings.seed
    diagnostic_constant: float = inference.Settings.c_constant

    def fit(self, X, y=None):
        """Run the degeneracy-aware test pipeline on weight matrix X."""
        net = as_network(X)
        report = inference.test_effect(
            net,
            self.effect,
            alpha=self.alpha,
            subsample_exponent=self.subsample_exponent,
            seed=inference.derive_seed(self.random_state),
            c_constant=self.diagnostic_constant,
        )
        self.n_nodes_ = net.n
        self.report_ = report
        self.statistic_ = report.statistic
        self.p_value_ = report.p_value
        self.reject_ = report.reject
        self.branch_ = report.branch
        self.estimate_ = report.estimate.value
        self.diagnosis_ = report.diagnosis
        return self

    def get_params(self, deep: bool = True) -> dict:
        return {field.name: getattr(self, field.name) for field in dataclasses.fields(self)}

    def set_params(self, **params):
        valid = self.get_params()
        for name, value in params.items():
            if name not in valid:
                raise ValueError(f"invalid parameter {name!r} for {type(self).__name__}")
            setattr(self, name, value)
        return self
