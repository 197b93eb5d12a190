"""Model class specification (MCS) base class.

Section 2.2 of the paper defines the MCS as the minimal interface BlinkML
needs from a model family:

* ``grads`` — the list of per-example gradients ``q(θ; x_i, y_i) + r(θ)``
  (Equation (3)); BlinkML needs the individual values, not just their
  average, because ObservedFisher estimates the gradient covariance J from
  them;
* ``diff`` — the prediction difference between two parameter vectors on the
  holdout set, which is the quantity ``v(m_n)`` that the approximation
  contract bounds.  A family declares which of the three Appendix C metrics
  its ``diff`` is (:attr:`ModelClassSpec.diff_kind`) and supplies
  predictions; the base class derives every diff entry point from that.

On top of those two, this implementation adds the pieces any real library
needs: the training objective (so the Model Trainer can run), predictions,
and a closed-form Hessian where one exists (so the ClosedForm statistics
method of Section 3.4 can be exercised).

Parameters are always exchanged as flat 1-D vectors; models that are
naturally matrix-shaped (max-entropy, PPCA) flatten and unflatten internally,
exactly as the paper describes in Appendix A.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.data.dataset import Dataset
from repro.exceptions import ModelSpecError
from repro.optim.base import Objective
from repro.optim.driver import minimize
from repro.optim.result import OptimizationResult


class DiffAccumulator(ABC):
    """Streaming accumulator for a batched model-difference metric.

    The streaming sharded holdout engine
    (:mod:`repro.evaluation.streaming`) shards the holdout into row blocks
    and feeds them to an accumulator one at a time, so the full
    ``(k, n_holdout)`` prediction block of the batched diff path never
    exists in memory — only O(k · block) lives at once.  An accumulator is
    created by :meth:`ModelClassSpec.diff_accumulator` /
    :meth:`ModelClassSpec.pairwise_diff_accumulator` with the parameter
    batch(es) bound in; the driver then calls :meth:`update` once per block
    (in holdout order) and :meth:`finalize` exactly once at the end.

    For parallel sharding the driver creates one accumulator per worker,
    gives each a contiguous range of blocks, and folds the partials together
    with :meth:`merge` in block order before finalizing.
    """

    #: set to False by accumulators whose metric does not depend on the
    #: holdout rows at all (e.g. PPCA's parameter-space cosine); the driver
    #: then skips the block loop entirely.
    needs_holdout_blocks: bool = True

    @abstractmethod
    def update(self, block: Dataset) -> None:
        """Fold one holdout row block into the running statistics."""

    @abstractmethod
    def merge(self, other: "DiffAccumulator") -> None:
        """Fold another accumulator's partial statistics into this one.

        ``other`` must come from the same factory call and have consumed a
        disjoint, later range of holdout blocks.
        """

    @abstractmethod
    def finalize(self) -> np.ndarray:
        """Return the per-candidate differences, shape ``(k,)``."""


class BlockSumDiffAccumulator(DiffAccumulator):
    """Accumulator for metrics that are a function of per-candidate row sums.

    Covers every mean-reduced metric in the library: classification
    disagreement (sum of mismatch indicators) and (normalised) RMS
    differences (sum of squared prediction gaps).  A family binds
    ``block_sums`` — a callable mapping a holdout block to the ``(k,)``
    per-candidate sums over that block — and ``reduce`` — a callable mapping
    the grand totals ``(sums, n_rows)`` to the final differences.
    """

    def __init__(
        self,
        n_candidates: int,
        block_sums: Callable[[Dataset], np.ndarray],
        reduce: Callable[[np.ndarray, int], np.ndarray],
    ):
        if n_candidates < 1:
            raise ModelSpecError("need at least one candidate parameter vector")
        self._sums = np.zeros(int(n_candidates), dtype=np.float64)
        self._rows = 0
        self._block_sums = block_sums
        self._reduce = reduce

    def update(self, block: Dataset) -> None:
        self._sums += np.asarray(self._block_sums(block), dtype=np.float64)
        self._rows += block.n_rows

    def merge(self, other: DiffAccumulator) -> None:
        if not isinstance(other, BlockSumDiffAccumulator):
            raise ModelSpecError("cannot merge accumulators of different kinds")
        self._sums += other._sums
        self._rows += other._rows

    def finalize(self) -> np.ndarray:
        if self._rows == 0:
            raise ModelSpecError("accumulator finalized before seeing any holdout rows")
        return np.asarray(self._reduce(self._sums, self._rows), dtype=np.float64)


class PrecomputedDiffAccumulator(DiffAccumulator):
    """Accumulator whose differences do not depend on the holdout rows.

    Used by the ``"subspace"`` metric kind (PPCA's aligned cosine), which is
    fully determined by the parameter batches: the driver skips the block
    loop, so an out-of-core holdout is never read.
    """

    needs_holdout_blocks = False

    def __init__(self, values: np.ndarray):
        self._values = np.asarray(values, dtype=np.float64)

    def update(self, block: Dataset) -> None:
        del block  # the metric is block-independent

    def merge(self, other: DiffAccumulator) -> None:
        if not isinstance(other, PrecomputedDiffAccumulator):
            raise ModelSpecError("cannot merge accumulators of different kinds")

    def finalize(self) -> np.ndarray:
        return self._values


#: values of :attr:`ModelClassSpec.diff_kind` — the three model-difference
#: metrics of Appendix C.
DIFF_KINDS = ("disagreement", "rms", "subspace")


def _evaluate_whole(accumulator: DiffAccumulator, dataset: Dataset) -> np.ndarray:
    """Finalize ``accumulator`` after feeding it ``dataset`` as one block."""
    if accumulator.needs_holdout_blocks:
        accumulator.update(dataset)
    return accumulator.finalize()


def _aligned_cosine_differences(
    loadings_a: np.ndarray,
    loadings_b: np.ndarray,
    norms_a: np.ndarray,
    norms_b: np.ndarray,
) -> np.ndarray:
    """``1 − cosine`` between matched ``(k, d, q)`` loading stacks, rotation-aligned.

    The PPCA likelihood is invariant under right-rotation of the loading
    matrix (``ΘΘᵀ`` is unchanged by ``Θ → ΘR`` for orthogonal R), so two
    independently trained models can describe the *same* distribution with
    differently rotated factors.  The paper's plain cosine metric
    (Appendix C) implicitly assumes a consistent orientation; to keep it
    meaningful the factors are first aligned with the optimal orthogonal
    rotation (Procrustes: R = U Vᵀ from the SVD of Θ_aᵀ Θ_b maximises
    ``<Θ_a R, Θ_b>``, and that maximum is the sum of the singular values of
    Θ_aᵀ Θ_b).  For the perturbations the estimators sample (no rotation)
    the aligned and unaligned metrics coincide up to second order.  A zero
    loading matrix is maximally different (1.0) from everything.
    """
    differences = np.ones(loadings_a.shape[0])
    valid = (norms_a > 0) & (norms_b > 0)
    if not np.any(valid):
        return differences
    cross = loadings_a[valid].transpose(0, 2, 1) @ loadings_b[valid]  # (v, q, q)
    singular_values = np.linalg.svd(cross, compute_uv=False)  # (v, q)
    cosines = singular_values.sum(axis=1) / (norms_a[valid] * norms_b[valid])
    differences[valid] = 1.0 - np.minimum(cosines, 1.0)
    return differences


def _flat_norms(loadings: np.ndarray) -> np.ndarray:
    return np.linalg.norm(loadings.reshape(loadings.shape[0], -1), axis=1)


class ModelClassSpec(ABC):
    """Abstract base class for every supported model family."""

    #: one of "regression", "binary", "multiclass", "unsupervised"
    task: str = "regression"
    #: short name used by the registry and in reports (e.g. "lr")
    name: str = "model"
    #: the ``diff`` metric, one of :data:`DIFF_KINDS` (Appendix C):
    #: ``"disagreement"`` — the fraction of holdout rows whose predicted
    #: labels differ; ``"rms"`` — the RMS gap between predictions, divided
    #: by the holdout label standard deviation when
    #: :attr:`normalize_difference` is set; ``"subspace"`` — ``1 − cosine``
    #: between the rotation-aligned ``(n_features, q)`` loading matrices the
    #: parameter vectors flatten (parameter space only, no holdout rows).
    diff_kind: str | None = None
    #: ``"rms"`` only: divide the RMS gap by the holdout label std.
    normalize_difference: bool = False
    #: ``"rms"`` only: predictions are linear in θ, so the k pairwise gaps
    #: are a single ``predict_many`` over the parameter deltas.
    linear_in_theta: bool = False

    def __init__(self, regularization: float = 0.0):
        if regularization < 0:
            raise ModelSpecError("regularization coefficient must be non-negative")
        self.regularization = float(regularization)

    # ------------------------------------------------------------------
    # Parameter bookkeeping
    # ------------------------------------------------------------------
    @abstractmethod
    def n_parameters(self, dataset: Dataset) -> int:
        """Dimension of the flattened parameter vector θ for this dataset."""

    def initial_parameters(self, dataset: Dataset, rng: np.random.Generator | None = None) -> np.ndarray:
        """Deterministic-by-default starting point for the optimizer."""
        del rng
        return np.zeros(self.n_parameters(dataset))

    # ------------------------------------------------------------------
    # MLE objective pieces (Equations (1)-(3))
    # ------------------------------------------------------------------
    @abstractmethod
    def loss(self, theta: np.ndarray, dataset: Dataset) -> float:
        """The objective ``f_n(θ)``: average negative log-likelihood + R(θ)."""

    @abstractmethod
    def per_example_gradients(self, theta: np.ndarray, dataset: Dataset) -> np.ndarray:
        """The ``(n, p)`` matrix whose i-th row is ``q(θ; x_i, y_i)``.

        These are the *unregularised* per-example gradients; the regulariser
        gradient ``r(θ)`` is added separately (it does not vary across
        examples and therefore contributes nothing to the covariance J).

        Implementations must be *row-decomposable*: the gradient of row i
        may depend on θ and on row i only, never on the other rows in
        ``dataset``.  The streaming statistics tier
        (:mod:`repro.core.statistics`) relies on this to evaluate the
        method block-by-block over a sharded store and fold the blocks into
        a moment summary — calling it on a block must yield exactly the
        corresponding rows of the full-matrix call.
        """

    def regularizer_gradient(self, theta: np.ndarray) -> np.ndarray:
        """``r(θ) = ∇R(θ)``; L2 by default: ``βθ``."""
        return self.regularization * np.asarray(theta, dtype=np.float64)

    def gradient(self, theta: np.ndarray, dataset: Dataset) -> np.ndarray:
        """The full gradient ``g_n(θ)`` = mean per-example gradient + r(θ)."""
        per_example = self.per_example_gradients(theta, dataset)
        return per_example.mean(axis=0) + self.regularizer_gradient(theta)

    def grads(self, theta: np.ndarray, dataset: Dataset) -> np.ndarray:
        """The MCS ``grads`` function from Section 2.2.

        Returns the list of ``q(θ; x_i, y_i) + r(θ)`` for i = 1..n as an
        ``(n, p)`` matrix.
        """
        per_example = self.per_example_gradients(theta, dataset)
        return per_example + self.regularizer_gradient(theta)[None, :]

    def hessian(self, theta: np.ndarray, dataset: Dataset) -> np.ndarray:
        """Analytic Hessian of ``f_n`` (ClosedForm path).

        Subclasses with a tractable closed form override this; others raise,
        in which case BlinkML falls back to InverseGradients or
        ObservedFisher, exactly as discussed in Section 3.4.
        """
        raise ModelSpecError(
            f"{type(self).__name__} does not provide a closed-form Hessian"
        )

    @property
    def has_closed_form_hessian(self) -> bool:
        """Whether :meth:`hessian` is implemented for this model family."""
        return type(self).hessian is not ModelClassSpec.hessian

    # ------------------------------------------------------------------
    # Prediction and the `diff` metric (Section 2.1, Appendix C)
    #
    # A family supplies predictions and declares its ``diff_kind``; the
    # five diff entry points below are derived from that kind.  The two
    # accumulator factories are the primitive: the streaming engine
    # (repro.evaluation.streaming) drives them block by block at
    # O(k · block) memory, the materialised batched calls feed them the
    # whole holdout as one block, and the scalar diff is a k = 1 pairwise
    # call — so every path runs the same arithmetic.
    # ------------------------------------------------------------------
    @abstractmethod
    def predict(self, theta: np.ndarray, X: np.ndarray) -> np.ndarray:
        """Model predictions ``m(x; θ)`` for each row of ``X``."""

    def predict_many(self, Thetas: np.ndarray, X: np.ndarray) -> np.ndarray:
        """Predictions for each parameter vector in the ``(k, p)`` batch.

        Returns an array whose leading axis indexes the k parameter vectors;
        entry i equals ``predict(Thetas[i], X)``.  The accuracy and
        sample-size estimators compare k = O(100) sampled parameter vectors
        at every estimate and probe, so the built-in families override this
        with one BLAS-level matrix product; this default loops ``predict``.
        """
        Thetas = self._as_parameter_batch(Thetas)
        return np.stack([self.predict(theta, X) for theta in Thetas])

    def prediction_difference(
        self, theta_a: np.ndarray, theta_b: np.ndarray, dataset: Dataset
    ) -> float:
        """The ``diff`` function: ``v`` between two parameter vectors.

        The metric is the family's :attr:`diff_kind`.
        """
        return float(
            self.pairwise_prediction_differences(
                np.asarray(theta_a, dtype=np.float64)[None, :],
                np.asarray(theta_b, dtype=np.float64)[None, :],
                dataset,
            )[0]
        )

    def prediction_differences(
        self, theta_ref: np.ndarray, Thetas: np.ndarray, dataset: Dataset
    ) -> np.ndarray:
        """Batched ``diff``: ``v(θ_ref, Thetas[i])`` for each i, shape ``(k,)``.

        This is the accuracy-estimator inner loop (Section 3.3 step 2): one
        reference model against k sampled full-model parameters.
        """
        return _evaluate_whole(self.diff_accumulator(theta_ref, Thetas, dataset), dataset)

    def pairwise_prediction_differences(
        self, Thetas_a: np.ndarray, Thetas_b: np.ndarray, dataset: Dataset
    ) -> np.ndarray:
        """Elementwise batched ``diff``: ``v(Thetas_a[i], Thetas_b[i])``.

        This is the sample-size-estimator inner loop (Section 4.1): the k
        two-stage pairs ``(θ_n,i, θ_N,i)`` are compared pair by pair at every
        binary-search probe.
        """
        return _evaluate_whole(
            self.pairwise_diff_accumulator(Thetas_a, Thetas_b, dataset), dataset
        )

    def diff_accumulator(
        self, theta_ref: np.ndarray, Thetas: np.ndarray, dataset: Any
    ) -> DiffAccumulator:
        """Accumulator computing ``prediction_differences`` block by block.

        ``dataset`` is the *full* holdout — an in-memory :class:`Dataset` or
        a block source (:class:`repro.data.store.ShardedDataset`).  Only
        global context is read from it (the label scale of a normalised RMS
        metric, the feature count of a subspace metric); predictions are
        evaluated on the rows that arrive through ``update``.
        """
        Thetas = self._as_parameter_batch(Thetas)
        theta_ref = np.asarray(theta_ref, dtype=np.float64)
        k = Thetas.shape[0]
        if self._diff_kind() == "subspace":
            loadings = self._loadings(Thetas, dataset)
            norm_ref = float(np.linalg.norm(theta_ref))
            if norm_ref == 0:
                return PrecomputedDiffAccumulator(np.ones(k))
            references = np.broadcast_to(
                self._loadings(theta_ref[None, :], dataset), loadings.shape
            )
            return PrecomputedDiffAccumulator(
                _aligned_cosine_differences(
                    references, loadings, np.full(k, norm_ref), _flat_norms(loadings)
                )
            )
        return self._block_sum_accumulator(
            k,
            lambda X: (self.predict_many(Thetas, X), self.predict(theta_ref, X)[None, :]),
            dataset,
        )

    def pairwise_diff_accumulator(
        self, Thetas_a: np.ndarray, Thetas_b: np.ndarray, dataset: Any
    ) -> DiffAccumulator:
        """Accumulator computing ``pairwise_prediction_differences`` blockwise."""
        Thetas_a, Thetas_b = self._as_paired_batches(Thetas_a, Thetas_b)
        k = Thetas_a.shape[0]
        kind = self._diff_kind()
        if kind == "subspace":
            loadings_a = self._loadings(Thetas_a, dataset)
            loadings_b = self._loadings(Thetas_b, dataset)
            return PrecomputedDiffAccumulator(
                _aligned_cosine_differences(
                    loadings_a, loadings_b, _flat_norms(loadings_a), _flat_norms(loadings_b)
                )
            )
        if kind == "rms" and self.linear_in_theta:
            # The gaps are the predictions of the parameter deltas.
            deltas = Thetas_a - Thetas_b
            return self._block_sum_accumulator(
                k, lambda X: (self.predict_many(deltas, X), 0.0), dataset
            )
        # Both sides of every pair come out of one stacked predict_many.
        stacked = np.concatenate([Thetas_a, Thetas_b], axis=0)

        def both_sides(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            predictions = self.predict_many(stacked, X)
            return predictions[:k], predictions[k:]

        return self._block_sum_accumulator(k, both_sides, dataset)

    def _block_sum_accumulator(
        self,
        n_candidates: int,
        sides: Callable[[np.ndarray], tuple[np.ndarray, Any]],
        dataset: Any,
    ) -> DiffAccumulator:
        """Fold the per-row statistic of ``sides(X) -> (left, right)``.

        Disagreement sums exact integer mismatch counts, so the result is
        bitwise the same for every blocking; RMS sums squared gaps and
        takes one ``sqrt(mean) / scale`` at the end.
        """
        if self._diff_kind() == "disagreement":

            def mismatches(block: Dataset) -> np.ndarray:
                left, right = sides(block.X)
                return np.count_nonzero(left != right, axis=1)

            return BlockSumDiffAccumulator(
                n_candidates, mismatches, lambda sums, rows: sums / rows
            )
        scale = self._difference_scale(dataset)

        def squared_gaps(block: Dataset) -> np.ndarray:
            left, right = sides(block.X)
            gaps = left - right
            return np.einsum("kn,kn->k", gaps, gaps)

        return BlockSumDiffAccumulator(
            n_candidates, squared_gaps, lambda sums, rows: np.sqrt(sums / rows) / scale
        )

    def _diff_kind(self) -> str:
        kind = self.diff_kind
        if kind is None or kind not in DIFF_KINDS:
            raise ModelSpecError(
                f"{type(self).__name__} must declare diff_kind as one of "
                f"{DIFF_KINDS}, not {kind!r}"
            )
        return kind

    def _difference_scale(self, dataset: Any) -> float:
        """Divisor of the RMS gap: the holdout label std, or 1.0 unnormalised.

        Block sources (:class:`repro.data.store.ShardedDataset`) expose the
        scale through precomputed manifest moments (``label_std()`` — O(1),
        no label I/O, equal to ``np.std`` of the materialised labels to a
        few ulps); in-memory datasets compute ``np.std(y)`` directly.
        (Near-)zero scales fall back to 1.0 to avoid dividing by zero on
        constant labels.
        """
        if not self.normalize_difference:
            return 1.0
        # Supervision is checked first so the unlabeled-holdout misuse raises
        # the same ModelSpecError whichever storage tier the holdout lives in
        # (a sharded source's label_std() would otherwise surface a DataError
        # about manifest moments instead of explaining the missing labels).
        missing_labels = ModelSpecError(
            f"normalised {self.name} difference needs holdout labels for scaling"
        )
        if not getattr(dataset, "is_supervised", True):
            raise missing_labels
        label_std = getattr(dataset, "label_std", None)
        if callable(label_std):
            scale = float(label_std())
        elif dataset.y is None:
            raise missing_labels
        else:
            scale = float(np.std(dataset.y))
        return scale if scale > 0 else 1.0

    def _loadings(self, Thetas: np.ndarray, dataset: Any) -> np.ndarray:
        """View a ``(k, p)`` parameter batch as ``(k, n_features, q)`` loadings."""
        expected = self.n_parameters(dataset)
        if Thetas.shape[1] != expected:
            raise ModelSpecError(
                f"parameter vectors have length {Thetas.shape[1]}, expected {expected}"
            )
        return Thetas.reshape(Thetas.shape[0], dataset.n_features, -1)

    def _as_parameter_batch(self, Thetas: np.ndarray) -> np.ndarray:
        """Validate and coerce a stack of parameter vectors to ``(k, p)``."""
        Thetas = np.asarray(Thetas, dtype=np.float64)
        if Thetas.ndim != 2:
            raise ModelSpecError(
                f"expected a (k, p) batch of parameter vectors, got shape {Thetas.shape}"
            )
        return Thetas

    def _as_paired_batches(
        self, Thetas_a: np.ndarray, Thetas_b: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Validate two parameter batches that must match pair for pair."""
        Thetas_a = self._as_parameter_batch(Thetas_a)
        Thetas_b = self._as_parameter_batch(Thetas_b)
        if Thetas_a.shape != Thetas_b.shape:
            raise ModelSpecError(
                f"paired parameter batches must have matching shapes; got "
                f"{Thetas_a.shape} and {Thetas_b.shape}"
            )
        return Thetas_a, Thetas_b

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------
    def objective(self, dataset: Dataset) -> Objective:
        """Wrap this model + dataset pair as an optimizer objective."""
        return _ModelObjective(self, dataset)

    def fit(
        self,
        dataset: Dataset,
        method: str | None = None,
        theta0: np.ndarray | None = None,
        **optimizer_kwargs: Any,
    ) -> TrainedModel:
        """Train on ``dataset`` and return a :class:`TrainedModel`.

        ``method`` follows :func:`repro.optim.minimize`; when ``None`` the
        paper's dimension-based BFGS / L-BFGS rule is applied.
        """
        if theta0 is None:
            theta0 = self.initial_parameters(dataset)
        result = minimize(self.objective(dataset), theta0, method=method, **optimizer_kwargs)
        return TrainedModel(spec=self, theta=result.theta, n_train=dataset.n_rows, optimization=result)

    # ------------------------------------------------------------------
    # Misc
    # ------------------------------------------------------------------
    def validate_dataset(self, dataset: Dataset) -> None:
        """Raise :class:`ModelSpecError` when the dataset does not fit the task."""
        if self.task in {"regression", "binary", "multiclass"} and not dataset.is_supervised:
            raise ModelSpecError(f"{self.name} requires labels but the dataset has none")

    def describe(self) -> dict:
        """Lightweight description used by reports."""
        return {"model": self.name, "task": self.task, "regularization": self.regularization}


class _ModelObjective(Objective):
    """Adapter exposing a (spec, dataset) pair through the optimizer interface."""

    def __init__(self, spec: ModelClassSpec, dataset: Dataset):
        self._spec = spec
        self._dataset = dataset

    def value(self, theta: np.ndarray) -> float:
        return self._spec.loss(theta, self._dataset)

    def gradient(self, theta: np.ndarray) -> np.ndarray:
        return self._spec.gradient(theta, self._dataset)

    def value_and_gradient(self, theta: np.ndarray) -> tuple[float, np.ndarray]:
        return (
            self._spec.loss(theta, self._dataset),
            self._spec.gradient(theta, self._dataset),
        )

    def hessian(self, theta: np.ndarray) -> np.ndarray:
        return self._spec.hessian(theta, self._dataset)


@dataclass
class TrainedModel:
    """A fitted model: the spec plus the learned parameter vector.

    This is what the coordinator returns (wrapped in an
    :class:`repro.core.result.ApproximateTrainingResult`) and what the
    baselines and the hyperparameter harness consume.
    """

    spec: ModelClassSpec
    theta: np.ndarray
    n_train: int
    optimization: OptimizationResult | None = None
    metadata: dict = field(default_factory=dict)

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predictions of the fitted model on a feature matrix."""
        return self.spec.predict(self.theta, X)

    def difference(self, other: TrainedModel, dataset: Dataset) -> float:
        """Prediction difference ``v`` between this model and ``other``."""
        if type(self.spec) is not type(other.spec):
            raise ModelSpecError("cannot compare models from different model classes")
        return self.spec.prediction_difference(self.theta, other.theta, dataset)

    @property
    def n_parameters(self) -> int:
        return int(self.theta.shape[0])
