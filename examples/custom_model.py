"""Plugging a custom MLE model into BlinkML.

BlinkML's estimators only need the model-class-specification interface
(paper Section 2.2): the per-example gradients of the negative
log-likelihood and a prediction-difference function.  The difference is
declared, not written: ``diff_kind`` names one of the three metrics of the
paper's Appendix C, and the base class derives the scalar, batched and
streamed diffs from it and ``predict``.  This example defines a
model BlinkML does not ship — exponential regression, where
``y ~ Exponential(rate = exp(-θᵀx))`` models positive waiting times — and
trains it under an approximation contract without touching any library
internals.

Run with::

    python examples/custom_model.py

Set ``REPRO_EXAMPLES_SMOKE=1`` for the scaled-down CI configuration.
"""

from __future__ import annotations

import os

import numpy as np

from repro import BlinkML, ModelClassSpec
from repro.data import Dataset, train_holdout_test_split

SMOKE = bool(os.environ.get("REPRO_EXAMPLES_SMOKE"))


class ExponentialRegressionSpec(ModelClassSpec):
    """MLE for exponentially distributed waiting times with log-linear mean.

    The mean waiting time is ``exp(θᵀx)``; the per-example negative
    log-likelihood is ``θᵀx + y·exp(−θᵀx)`` with gradient
    ``(1 − y·exp(−θᵀx)) x``.
    """

    task = "regression"
    name = "exponential"
    # RMS gap between predicted mean waiting times, divided by the holdout
    # label standard deviation.
    diff_kind = "rms"
    normalize_difference = True

    def n_parameters(self, dataset: Dataset) -> int:
        return dataset.n_features

    def loss(self, theta: np.ndarray, dataset: Dataset) -> float:
        eta = np.clip(dataset.X @ theta, -30, 30)
        data_term = float(np.mean(eta + dataset.y * np.exp(-eta)))
        return data_term + 0.5 * self.regularization * float(theta @ theta)

    def per_example_gradients(self, theta: np.ndarray, dataset: Dataset) -> np.ndarray:
        eta = np.clip(dataset.X @ theta, -30, 30)
        return (1.0 - dataset.y * np.exp(-eta))[:, None] * dataset.X

    def predict(self, theta: np.ndarray, X: np.ndarray) -> np.ndarray:
        return np.exp(np.clip(np.asarray(X) @ theta, -30, 30))


def make_waiting_time_data(n_rows: int, n_features: int, seed: int = 61) -> Dataset:
    """Synthetic service-time data: waiting times with a log-linear mean."""
    rng = np.random.default_rng(seed)
    X = np.hstack([np.ones((n_rows, 1)), rng.normal(scale=0.5, size=(n_rows, n_features - 1))])
    theta_true = rng.normal(scale=0.3, size=n_features)
    theta_true[0] = 1.0
    means = np.exp(X @ theta_true)
    y = rng.exponential(means)
    return Dataset(X, y, name="waiting_times")


def main() -> None:
    n_rows = 8_000 if SMOKE else 60_000
    print(f"Generating waiting-time data ({n_rows} rows, 10 features)...")
    data = make_waiting_time_data(n_rows, 10)
    splits = train_holdout_test_split(data, rng=np.random.default_rng(6))

    spec = ExponentialRegressionSpec(regularization=1e-3)
    trainer = BlinkML(
        spec,
        initial_sample_size=800 if SMOKE else 4_000,
        n_parameter_samples=32 if SMOKE else 96,
        seed=0,
    )
    result = trainer.train_with_accuracy(splits.train, splits.holdout, 0.95)
    print("\nBlinkML result for the custom model")
    print("  " + result.summary())

    full_model = trainer.train_full(splits.train)
    difference = spec.prediction_difference(result.model.theta, full_model.theta, splits.holdout)
    print(f"\nNormalised RMS difference of predicted mean waiting times vs the full model: "
          f"{difference:.4f} (requested at most {result.contract.epsilon:.4f})")


if __name__ == "__main__":
    main()
