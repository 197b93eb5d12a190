"""Probabilistic principal component analysis (PPCA) model class specification.

PPCA (Tipping & Bishop, 1999) models observations as ``x ~ N(0, C)`` with
``C = ΘΘᵀ + σ²I`` where Θ is a d-by-q factor-loading matrix.  Training
maximises the Gaussian likelihood, so PPCA fits BlinkML's MLE abstraction
(Appendix A):

    f_n(Θ) = (1/2)(d log 2π + log |C| + tr(C⁻¹ S)),  S = (1/n) Σ x_i x_iᵀ

with per-example gradient ``q(Θ; x_i) = C⁻¹Θ − C⁻¹ x_i x_iᵀ C⁻¹ Θ`` and
no regulariser (``r(Θ) = 0``).

All d-by-d inverses are avoided through the Woodbury identity, so the cost
per evaluation is O(n·d·q + q³), which keeps the model usable for the
high-dimensional experiments.  Parameters are exchanged as the flattened
(d·q)-vector, exactly as the paper describes.

The paper's model-difference metric for unsupervised learning (Appendix C)
is ``v = 1 − cosine(θ_n, θ_N)`` on the flattened parameters, taken after
rotation alignment (the ``"subspace"`` diff kind of
:class:`~repro.models.base.ModelClassSpec`).
"""

from __future__ import annotations

import numpy as np

from repro.data.dataset import Dataset
from repro.exceptions import ModelSpecError
from repro.models.base import ModelClassSpec


class PPCASpec(ModelClassSpec):
    """Probabilistic PCA with ``n_factors`` latent dimensions.

    Parameters
    ----------
    n_factors:
        Number of factors q (the paper uses 10).
    sigma2:
        Observation noise variance σ², treated as a fixed hyperparameter.
        The paper notes the optimal σ can be recovered once Θ is known; the
        guarantee machinery only needs the Θ-gradients, so holding σ² fixed
        keeps the MLE abstraction exact.
    regularization:
        Optional L2 coefficient on Θ (0 in the paper).
    """

    task = "unsupervised"
    name = "ppca"
    diff_kind = "subspace"

    def __init__(self, n_factors: int = 10, sigma2: float = 1.0, regularization: float = 0.0):
        super().__init__(regularization=regularization)
        if n_factors < 1:
            raise ModelSpecError("PPCA needs at least one factor")
        if sigma2 <= 0:
            raise ModelSpecError("noise variance sigma2 must be positive")
        self.n_factors = int(n_factors)
        self.sigma2 = float(sigma2)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def with_estimated_noise(
        cls,
        dataset: Dataset,
        n_factors: int = 10,
        regularization: float = 0.0,
        max_rows: int = 20_000,
        min_sigma2: float = 1e-3,
    ) -> PPCASpec:
        """Build a spec whose σ² is the Tipping–Bishop maximum-likelihood value.

        For PPCA the MLE of the noise variance is the average of the
        ``d − q`` smallest eigenvalues of the sample covariance; estimating
        it from a subsample keeps the Gaussian likelihood well specified,
        which in turn keeps the ObservedFisher statistics calibrated (the
        same consideration as ``LinearRegressionSpec.with_estimated_noise``).
        """
        view = dataset.head(min(max_rows, dataset.n_rows))
        if n_factors >= view.n_features:
            raise ModelSpecError("n_factors must be smaller than the feature dimension")
        centered = view.X - view.X.mean(axis=0)
        sample_covariance = centered.T @ centered / view.n_rows
        eigenvalues = np.sort(np.linalg.eigvalsh(sample_covariance))
        discarded = eigenvalues[: view.n_features - n_factors]
        sigma2 = float(max(discarded.mean(), min_sigma2))
        return cls(n_factors=n_factors, sigma2=sigma2, regularization=regularization)

    # ------------------------------------------------------------------
    # Parameters
    # ------------------------------------------------------------------
    def n_parameters(self, dataset: Dataset) -> int:
        if self.n_factors > dataset.n_features:
            raise ModelSpecError(
                f"n_factors={self.n_factors} exceeds feature dimension {dataset.n_features}"
            )
        return dataset.n_features * self.n_factors

    def initial_parameters(self, dataset: Dataset, rng: np.random.Generator | None = None) -> np.ndarray:
        # Θ = 0 is a saddle point of the likelihood, so start from a small,
        # deterministic random loading.  Using a fixed seed keeps the full
        # and approximate models in the same orientation, which the cosine
        # difference metric relies on.
        rng = rng or np.random.default_rng(12345)
        d = dataset.n_features
        return 0.1 * rng.standard_normal(d * self.n_factors)

    def reshape(self, theta: np.ndarray, n_features: int) -> np.ndarray:
        """View the flat parameter vector as the (d, q) loading matrix Θ."""
        theta = np.asarray(theta, dtype=np.float64)
        expected = n_features * self.n_factors
        if theta.shape[0] != expected:
            raise ModelSpecError(
                f"parameter vector has length {theta.shape[0]}, expected {expected}"
            )
        return theta.reshape(n_features, self.n_factors)

    # ------------------------------------------------------------------
    # Woodbury helpers
    # ------------------------------------------------------------------
    def _woodbury(self, Theta: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
        """Return ``(M, M⁻¹, log|C|)`` for ``C = ΘΘᵀ + σ²I``.

        ``M = σ²I_q + ΘᵀΘ`` is the q-by-q capacitance matrix of the Woodbury
        identity; ``log|C| = (d − q) log σ² + log|M|``.
        """
        d, q = Theta.shape
        M = self.sigma2 * np.eye(q) + Theta.T @ Theta
        sign, logdet_M = np.linalg.slogdet(M)
        if sign <= 0:
            raise ModelSpecError("capacitance matrix M is not positive definite")
        M_inv = np.linalg.inv(M)
        logdet_C = (d - q) * np.log(self.sigma2) + logdet_M
        return M, M_inv, logdet_C

    def _apply_C_inverse(self, Theta: np.ndarray, M_inv: np.ndarray, V: np.ndarray) -> np.ndarray:
        """Compute ``C⁻¹ V`` via Woodbury without forming the d-by-d ``C⁻¹``."""
        return (V - Theta @ (M_inv @ (Theta.T @ V))) / self.sigma2

    # ------------------------------------------------------------------
    # Objective pieces
    # ------------------------------------------------------------------
    def loss(self, theta: np.ndarray, dataset: Dataset) -> float:
        Theta = self.reshape(theta, dataset.n_features)
        _, M_inv, logdet_C = self._woodbury(Theta)
        X = dataset.X
        n, d = X.shape
        # tr(C⁻¹ S) with S = (1/n) XᵀX, evaluated without forming S:
        # (1/(n σ²)) (‖X‖_F² − tr(M⁻¹ (XΘ)ᵀ (XΘ))).
        XTheta = X @ Theta
        trace_term = (float(np.sum(X * X)) - float(np.sum((XTheta @ M_inv) * XTheta))) / (
            n * self.sigma2
        )
        data_term = 0.5 * (d * np.log(2.0 * np.pi) + logdet_C + trace_term)
        reg_term = 0.5 * self.regularization * float(theta @ theta)
        return data_term + reg_term

    def per_example_gradients(self, theta: np.ndarray, dataset: Dataset) -> np.ndarray:
        Theta = self.reshape(theta, dataset.n_features)
        _, M_inv, _ = self._woodbury(Theta)
        X = dataset.X
        n, d = X.shape
        q = self.n_factors
        # A = C⁻¹Θ is shared by every example; the data-dependent part is
        # the rank-one correction C⁻¹ x_i x_iᵀ A.
        A = self._apply_C_inverse(Theta, M_inv, Theta)  # (d, q)
        B = self._apply_C_inverse(Theta, M_inv, X.T).T  # rows are C⁻¹ x_i, (n, d)
        P = X @ A  # rows are x_iᵀ A, (n, q)
        per_example = A[None, :, :] - B[:, :, None] * P[:, None, :]
        return per_example.reshape(n, d * q)

    # ------------------------------------------------------------------
    # Prediction
    # ------------------------------------------------------------------
    def predict(self, theta: np.ndarray, X: np.ndarray) -> np.ndarray:
        """Posterior-mean latent scores ``E[z | x] = M⁻¹ Θᵀ x`` per row."""
        X = np.asarray(X, dtype=np.float64)
        Theta = self.reshape(theta, X.shape[1])
        _, M_inv, _ = self._woodbury(Theta)
        return X @ Theta @ M_inv

    def _loading_batch(self, Thetas: np.ndarray, n_features: int) -> np.ndarray:
        """View a ``(k, d·q)`` parameter batch as ``(k, d, q)`` loadings."""
        Thetas = self._as_parameter_batch(Thetas)
        expected = n_features * self.n_factors
        if Thetas.shape[1] != expected:
            raise ModelSpecError(
                f"parameter vectors have length {Thetas.shape[1]}, expected {expected}"
            )
        return Thetas.reshape(Thetas.shape[0], n_features, self.n_factors)

    def predict_many(self, Thetas: np.ndarray, X: np.ndarray) -> np.ndarray:
        """Latent scores for each loading matrix, shape ``(k, n, q)``.

        The expensive ``X Θ_i`` products for all k loadings collapse into a
        single ``(n, d) × (d, k·q)`` GEMM; only the q-by-q capacitance
        solves stay per-member (they are independent of n).
        """
        X = np.asarray(X, dtype=np.float64)
        q = self.n_factors
        loadings = self._loading_batch(Thetas, X.shape[1])  # (k, d, q)
        k, d, _ = loadings.shape
        projected = X @ loadings.transpose(1, 0, 2).reshape(d, k * q)  # (n, k·q)
        projected = projected.reshape(-1, k, q).transpose(1, 0, 2)  # (k, n, q)
        M = self.sigma2 * np.eye(q)[None, :, :] + loadings.transpose(0, 2, 1) @ loadings
        signs, _ = np.linalg.slogdet(M)
        if np.any(signs <= 0):
            raise ModelSpecError("capacitance matrix M is not positive definite")
        return projected @ np.linalg.inv(M)

    def reconstruct(self, theta: np.ndarray, X: np.ndarray) -> np.ndarray:
        """Reconstruction ``Θ E[z | x]`` of each row from its latent scores."""
        X = np.asarray(X, dtype=np.float64)
        Theta = self.reshape(theta, X.shape[1])
        return self.predict(theta, X) @ Theta.T

    def describe(self) -> dict:
        description = super().describe()
        description.update({"n_factors": self.n_factors, "sigma2": self.sigma2})
        return description
