"""Common interface for the baseline fairness methods of Table 1.

Each baseline declares which fairness metrics and which model families it
supports; requesting an unsupported combination raises
:class:`NotSupportedError` — reproducing the NA(1)/NA(2) structure of the
paper's Table 5 (NA(2) = "classifier not supported").
"""

from __future__ import annotations

import numpy as np

from ..core.exceptions import OmniFairError
from ..core.spec import FairnessSpec, bind_specs
from ..ml.metrics import accuracy_score

__all__ = ["NotSupportedError", "FairnessMethod"]


class NotSupportedError(OmniFairError):
    """The baseline does not support this metric or model (NA in Table 5)."""


class FairnessMethod:
    """Base class for baseline fairness-enforcement methods.

    Subclasses set the class attributes and implement ``_fit``:

    * ``NAME`` — display name used in benchmark tables;
    * ``SUPPORTED_METRICS`` — metric names the method can enforce;
    * ``MODEL_AGNOSTIC`` — False when the method only works with its own
      model family (``check_estimator`` then restricts the estimator);
    * ``STAGE`` — "preprocessing" or "in-processing" (Table 1 column).
    """

    NAME = "abstract"
    SUPPORTED_METRICS = ()
    MODEL_AGNOSTIC = True
    STAGE = "in-processing"

    def __init__(self, estimator=None, metric="SP", epsilon=0.03):
        self.estimator = estimator
        self.metric = metric.upper() if isinstance(metric, str) else metric
        self.epsilon = float(epsilon)
        self._fitted = False

    # -- capability checks ---------------------------------------------------

    def check_metric(self):
        if self.metric not in self.SUPPORTED_METRICS:
            raise NotSupportedError(
                f"{self.NAME} does not support metric {self.metric!r} "
                f"(supported: {sorted(self.SUPPORTED_METRICS)})"
            )

    def check_estimator(self):
        """Hook for model-specific baselines; default accepts anything."""

    # -- fitting ---------------------------------------------------------------

    def fit(self, train, val=None):
        """Fit on a Dataset; tune internal knobs on ``val`` when given."""
        self.check_metric()
        self.check_estimator()
        self._fit(train, val)
        self._fitted = True
        return self

    def _fit(self, train, val):  # pragma: no cover - abstract
        raise NotImplementedError

    # -- prediction / evaluation ----------------------------------------------

    def predict(self, X):
        if not self._fitted:
            raise RuntimeError(f"{self.NAME} is not fitted")
        return self.model_.predict(X)

    def predict_proba(self, X):
        if not self._fitted:
            raise RuntimeError(f"{self.NAME} is not fitted")
        return self.model_.predict_proba(X)

    def evaluate(self, dataset):
        """Accuracy + disparity of the fitted model on a Dataset."""
        spec = FairnessSpec(self.metric, self.epsilon)
        constraints = bind_specs([spec], dataset)
        pred = self.predict(dataset.X)
        return {
            "accuracy": accuracy_score(dataset.y, pred),
            "disparities": {
                c.label: c.disparity(dataset.y, pred) for c in constraints
            },
        }
