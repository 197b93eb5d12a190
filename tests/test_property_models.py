"""Hypothesis property tests on the model class specifications.

These probe invariants that must hold for *any* parameter vector and any
well-formed dataset, not just the hand-picked cases of the unit tests:

* losses are finite and bounded below by the regulariser value at θ;
* the averaged per-example gradients plus r(θ) reproduce the full gradient;
* prediction differences are symmetric, bounded and zero on the diagonal;
* classification losses decrease along the negative gradient (descent
  direction sanity);
* the batched diff engine (``predict_many`` / ``prediction_differences`` /
  ``pairwise_prediction_differences``) and the scalar diff agree with a
  plain per-pair loop over ``predict`` (the Appendix C formulas, kept here
  as the reference) to 1e-12 for every model family and random θ batch;
* classifiers label a row identically on the scalar and batched paths.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.dataset import Dataset
from repro.models.linear_regression import LinearRegressionSpec
from repro.models.logistic_regression import LogisticRegressionSpec
from repro.models.max_entropy import MaxEntropySpec
from repro.models.poisson_regression import PoissonRegressionSpec
from repro.models.ppca import PPCASpec


def dataset_strategy(task: str):
    """Generate small random datasets of the requested task type."""

    @st.composite
    def build(draw):
        n = draw(st.integers(min_value=8, max_value=40))
        d = draw(st.integers(min_value=2, max_value=6))
        seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n, d))
        if task == "regression":
            y = rng.normal(size=n)
        elif task == "binary":
            y = rng.integers(0, 2, size=n)
        elif task == "multiclass":
            y = rng.integers(0, 3, size=n)
        elif task == "counts":
            y = rng.poisson(lam=2.0, size=n).astype(np.float64)
        else:
            y = None
        return Dataset(X, y)

    return build()


def theta_strategy(size_fn):
    @st.composite
    def build(draw, dataset):
        seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
        scale = draw(st.floats(min_value=0.01, max_value=2.0))
        rng = np.random.default_rng(seed)
        return scale * rng.normal(size=size_fn(dataset))

    return build


class TestGradientConsistency:
    @given(data=dataset_strategy("regression"), seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_linear_regression_gradient_is_mean_of_grads(self, data, seed):
        spec = LinearRegressionSpec(regularization=0.1, noise_variance=0.5)
        rng = np.random.default_rng(seed)
        theta = rng.normal(size=data.n_features)
        grads = spec.grads(theta, data)
        np.testing.assert_allclose(grads.mean(axis=0), spec.gradient(theta, data), atol=1e-10)

    @given(data=dataset_strategy("binary"), seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_logistic_gradient_is_mean_of_grads(self, data, seed):
        spec = LogisticRegressionSpec(regularization=0.05)
        rng = np.random.default_rng(seed)
        theta = rng.normal(size=data.n_features)
        grads = spec.grads(theta, data)
        np.testing.assert_allclose(grads.mean(axis=0), spec.gradient(theta, data), atol=1e-10)

    @given(data=dataset_strategy("multiclass"), seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_max_entropy_gradient_is_mean_of_grads(self, data, seed):
        spec = MaxEntropySpec(n_classes=3, regularization=0.05)
        rng = np.random.default_rng(seed)
        theta = rng.normal(size=3 * data.n_features)
        grads = spec.grads(theta, data)
        np.testing.assert_allclose(grads.mean(axis=0), spec.gradient(theta, data), atol=1e-10)

    @given(data=dataset_strategy("unsupervised"), seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=15, deadline=None)
    def test_ppca_gradient_is_mean_of_grads(self, data, seed):
        spec = PPCASpec(n_factors=2, sigma2=1.0)
        rng = np.random.default_rng(seed)
        theta = 0.5 * rng.normal(size=2 * data.n_features)
        grads = spec.grads(theta, data)
        np.testing.assert_allclose(grads.mean(axis=0), spec.gradient(theta, data), atol=1e-9)


class TestLossProperties:
    @given(data=dataset_strategy("binary"), seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_logistic_loss_finite_and_bounded_below(self, data, seed):
        spec = LogisticRegressionSpec(regularization=0.01)
        rng = np.random.default_rng(seed)
        theta = 3 * rng.normal(size=data.n_features)
        loss = spec.loss(theta, data)
        assert np.isfinite(loss)
        assert loss >= 0.5 * 0.01 * float(theta @ theta) - 1e-12

    @given(data=dataset_strategy("binary"), seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_descent_direction_reduces_logistic_loss(self, data, seed):
        spec = LogisticRegressionSpec(regularization=0.01)
        rng = np.random.default_rng(seed)
        theta = rng.normal(size=data.n_features)
        gradient = spec.gradient(theta, data)
        if np.linalg.norm(gradient) < 1e-9:
            return  # already at a stationary point
        step = 1e-4 / max(np.linalg.norm(gradient), 1.0)
        assert spec.loss(theta - step * gradient, data) <= spec.loss(theta, data) + 1e-12

    @given(data=dataset_strategy("regression"), seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_regression_loss_nonnegative(self, data, seed):
        spec = LinearRegressionSpec(regularization=0.0)
        rng = np.random.default_rng(seed)
        theta = rng.normal(size=data.n_features)
        assert spec.loss(theta, data) >= 0.0


class TestDifferenceProperties:
    @given(
        data=dataset_strategy("binary"),
        seed_a=st.integers(0, 2**31 - 1),
        seed_b=st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=30, deadline=None)
    def test_classification_difference_symmetric_bounded(self, data, seed_a, seed_b):
        spec = LogisticRegressionSpec()
        theta_a = np.random.default_rng(seed_a).normal(size=data.n_features)
        theta_b = np.random.default_rng(seed_b).normal(size=data.n_features)
        forward = spec.prediction_difference(theta_a, theta_b, data)
        backward = spec.prediction_difference(theta_b, theta_a, data)
        assert forward == pytest.approx(backward)
        assert 0.0 <= forward <= 1.0
        assert spec.prediction_difference(theta_a, theta_a, data) == 0.0

    @given(
        data=dataset_strategy("regression"),
        seed_a=st.integers(0, 2**31 - 1),
        seed_b=st.integers(0, 2**31 - 1),
        seed_c=st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=25, deadline=None)
    def test_regression_difference_triangle_inequality(self, data, seed_a, seed_b, seed_c):
        # The RMS prediction difference is a pseudometric on parameters.
        spec = LinearRegressionSpec(normalize_difference=False)
        a = np.random.default_rng(seed_a).normal(size=data.n_features)
        b = np.random.default_rng(seed_b).normal(size=data.n_features)
        c = np.random.default_rng(seed_c).normal(size=data.n_features)
        ab = spec.prediction_difference(a, b, data)
        bc = spec.prediction_difference(b, c, data)
        ac = spec.prediction_difference(a, c, data)
        assert ac <= ab + bc + 1e-9

    @given(seed=st.integers(0, 2**31 - 1), scale=st.floats(0.1, 10.0))
    @settings(max_examples=30, deadline=None)
    def test_ppca_difference_scale_invariant(self, seed, scale):
        spec = PPCASpec(n_factors=2)
        dummy = Dataset(np.zeros((2, 3)))  # 3 features, 2 factors
        theta = np.random.default_rng(seed).normal(size=6)
        assert spec.prediction_difference(theta, scale * theta, dummy) == pytest.approx(
            0.0, abs=1e-9
        )


def _batched_case(task: str, n_params_fn, make_spec):
    """Build one (spec, dataset, ref θ, θ batch pair) batched-diff test case."""

    @st.composite
    def build(draw):
        data = draw(dataset_strategy(task))
        spec = make_spec()
        p = n_params_fn(spec, data)
        k = draw(st.integers(min_value=1, max_value=6))
        seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
        scale = draw(st.floats(min_value=0.01, max_value=2.0))
        rng = np.random.default_rng(seed)
        theta_ref = scale * rng.normal(size=p)
        batch_a = scale * rng.normal(size=(k, p))
        batch_b = scale * rng.normal(size=(k, p))
        return spec, data, theta_ref, batch_a, batch_b

    return build()


BATCHED_FAMILIES = {
    "lin": ("regression", lambda s, d: d.n_features,
            lambda: LinearRegressionSpec(regularization=0.01)),
    "lr": ("binary", lambda s, d: d.n_features,
           lambda: LogisticRegressionSpec(regularization=0.01)),
    "me": ("multiclass", lambda s, d: 3 * d.n_features,
           lambda: MaxEntropySpec(n_classes=3, regularization=0.01)),
    "poisson": ("counts", lambda s, d: d.n_features,
                lambda: PoissonRegressionSpec(regularization=0.01)),
    "ppca": ("unsupervised", lambda s, d: 2 * d.n_features,
             lambda: PPCASpec(n_factors=2)),
}


def _loop_difference(spec, theta_a, theta_b, data):
    """Reference ``diff`` of one pair, straight from the Appendix C formulas."""
    if spec.diff_kind == "subspace":
        norm_a, norm_b = np.linalg.norm(theta_a), np.linalg.norm(theta_b)
        if norm_a == 0 or norm_b == 0:
            return 1.0
        Theta_a = theta_a.reshape(data.n_features, -1)
        Theta_b = theta_b.reshape(data.n_features, -1)
        # Rotation-aligned cosine: the nuclear norm of Θ_aᵀ Θ_b.
        aligned = np.linalg.svd(Theta_a.T @ Theta_b, compute_uv=False).sum()
        return 1.0 - min(aligned / (norm_a * norm_b), 1.0)
    predictions_a = spec.predict(theta_a, data.X)
    predictions_b = spec.predict(theta_b, data.X)
    if spec.diff_kind == "disagreement":
        return float(np.mean(predictions_a != predictions_b))
    scale = (float(np.std(data.y)) or 1.0) if spec.normalize_difference else 1.0
    return float(np.sqrt(np.mean((predictions_a - predictions_b) ** 2))) / scale


def _assert_batched_matches_loop(spec, data, theta_ref, batch_a, batch_b):
    """The derived diff entry points must agree with the per-pair loop."""
    batched = spec.prediction_differences(theta_ref, batch_a, data)
    loop = [_loop_difference(spec, theta_ref, theta, data) for theta in batch_a]
    np.testing.assert_allclose(batched, loop, atol=1e-12)

    paired = spec.pairwise_prediction_differences(batch_a, batch_b, data)
    paired_loop = [_loop_difference(spec, a, b, data) for a, b in zip(batch_a, batch_b)]
    np.testing.assert_allclose(paired, paired_loop, atol=1e-12)
    scalar = [spec.prediction_difference(a, b, data) for a, b in zip(batch_a, batch_b)]
    np.testing.assert_allclose(scalar, paired_loop, atol=1e-12)

    many = spec.predict_many(batch_a, data.X)
    stacked = np.stack([spec.predict(theta, data.X) for theta in batch_a])
    np.testing.assert_allclose(many, stacked, atol=1e-12)


class TestBatchedDifferenceConsistency:
    """Batched GEMM path ≡ per-pair loop path, per model family."""

    @given(case=_batched_case(*BATCHED_FAMILIES["lin"]))
    @settings(max_examples=25, deadline=None)
    def test_linear_regression(self, case):
        _assert_batched_matches_loop(*case)

    @given(case=_batched_case(*BATCHED_FAMILIES["lr"]))
    @settings(max_examples=25, deadline=None)
    def test_logistic_regression(self, case):
        _assert_batched_matches_loop(*case)

    @given(case=_batched_case(*BATCHED_FAMILIES["me"]))
    @settings(max_examples=20, deadline=None)
    def test_max_entropy(self, case):
        _assert_batched_matches_loop(*case)

    @given(case=_batched_case(*BATCHED_FAMILIES["poisson"]))
    @settings(max_examples=25, deadline=None)
    def test_poisson_regression(self, case):
        _assert_batched_matches_loop(*case)

    @given(case=_batched_case(*BATCHED_FAMILIES["ppca"]))
    @settings(max_examples=15, deadline=None)
    def test_ppca(self, case):
        _assert_batched_matches_loop(*case)

    def test_zero_norm_ppca_batch_matches_loop(self):
        # Degenerate loadings exercise the zero-norm guard of the batched
        # Procrustes path.
        spec = PPCASpec(n_factors=2)
        data = Dataset(np.zeros((2, 3)))
        ref = np.random.default_rng(0).normal(size=6)
        batch = np.vstack([np.zeros(6), np.random.default_rng(1).normal(size=6)])
        batched = spec.prediction_differences(ref, batch, data)
        loop = [_loop_difference(spec, ref, theta, data) for theta in batch]
        np.testing.assert_allclose(batched, loop, atol=1e-12)
        zero_ref = spec.prediction_differences(np.zeros(6), batch, data)
        np.testing.assert_allclose(zero_ref, np.ones(2))

    def test_pairwise_shape_mismatch_rejected(self):
        from repro.exceptions import ModelSpecError

        spec = LinearRegressionSpec(normalize_difference=False)
        data = Dataset(np.ones((4, 3)), np.zeros(4))
        with pytest.raises(ModelSpecError):
            spec.pairwise_prediction_differences(np.ones((2, 3)), np.ones((3, 3)), data)


class TestScalarMatchesBatchedLabels:
    def test_classifier_labels_and_diffs_match_bitwise(self):
        # Near-zero logits used to split the paths: LR thresholded σ(z),
        # which rounds to 0.5 for z = -1e-17, and ME took the softmax
        # argmax in predict but the logit argmax in predict_many.
        X = np.array([[1.0]])
        data = Dataset(X, np.array([0]))
        lr = LogisticRegressionSpec()
        lr_theta = np.array([-1e-17])
        assert lr.predict(lr_theta, X)[0] == 0
        me = MaxEntropySpec(n_classes=2)
        me_a, me_b = np.array([0.0, 1e-300]), np.array([1e-300, 0.0])
        assert me.prediction_difference(me_a, me_b, data) == 1.0
        for spec, theta_a, theta_b in ((lr, lr_theta, -lr_theta), (me, me_a, me_b)):
            for theta in (theta_a, theta_b):
                assert np.array_equal(
                    spec.predict(theta, X), spec.predict_many(theta[None, :], X)[0]
                )
            pairwise = spec.pairwise_prediction_differences(
                theta_a[None, :], theta_b[None, :], data
            )
            assert spec.prediction_difference(theta_a, theta_b, data) == pairwise[0]
