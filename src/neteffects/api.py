"""Scikit-learn style estimator facade.

:class:`NetworkEffectTest` follows the sklearn API conventions (constructor stores
hyperparameters verbatim, ``fit`` consumes a square weight matrix and
returns ``self``, fitted attributes get a trailing underscore, and
``get_params``/``set_params`` support cloning and grid composition)
without requiring scikit-learn itself.
"""

from __future__ import annotations

import inspect

from . import inference
from .network import EffectKind, as_network

__all__ = ["NetworkEffectTest"]


class NetworkEffectTest:
    """Test one network effect on a weighted directed adjacency matrix.

    Parameters
    ----------
    effect : str or EffectKind, default "reciprocity"
        One of "reciprocity", "same_sender", "same_receiver",
        "sender_receiver" (or the short forms eta2..eta5).
    alpha : float, default 0.05
        Two-sided significance level.
    subsample_exponent : float, default 1.2
        Quadruple subsample size is round(n ** subsample_exponent);
        larger values buy power at some cost in size accuracy and time.
    random_state : int, default 0
        Seed for quadruple subsampling on the reduced branch; the test
        runs with ``inference.derive_seed(random_state)``, as the CLI does.
    diagnostic_constant : float, default 1.0
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

    def __init__(
        self,
        effect: str | EffectKind = "reciprocity",
        alpha: float = 0.05,
        subsample_exponent: float = 1.2,
        random_state: int = 0,
        diagnostic_constant: float = 1.0,
    ):
        self.effect = effect
        self.alpha = alpha
        self.subsample_exponent = subsample_exponent
        self.random_state = random_state
        self.diagnostic_constant = diagnostic_constant

    def fit(self, X, y=None):
        """Run the degeneracy-aware test pipeline on weight matrix X."""
        net = as_network(X)
        report = inference.test_effect(
            net,
            EffectKind.parse(self.effect),
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

    @classmethod
    def _param_names(cls) -> list[str]:
        sig = inspect.signature(cls.__init__)
        return [name for name in sig.parameters if name != "self"]

    def get_params(self, deep: bool = True) -> dict:
        return {name: getattr(self, name) for name in self._param_names()}

    def set_params(self, **params):
        valid = set(self._param_names())
        for name, value in params.items():
            if name not in valid:
                raise ValueError(f"invalid parameter {name!r} for {type(self).__name__}")
            setattr(self, name, value)
        return self

    def __repr__(self) -> str:
        args = ", ".join(f"{k}={v!r}" for k, v in self.get_params().items())
        return f"{type(self).__name__}({args})"

