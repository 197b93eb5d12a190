"""Tests for the Sample Size Estimator (Section 4)."""

import numpy as np
import pytest

from repro.core.contract import ApproximationContract
from repro.core.parameter_sampler import ParameterSampler
from repro.core.guarantees import conservative_upper_bound
from repro.core.sample_size import SampleSizeEstimate, SampleSizeEstimator
from repro.core.statistics import compute_statistics
from repro.data.dataset import Dataset
from repro.data.splits import SplitSpec, train_holdout_test_split
from repro.exceptions import SampleSizeError
from repro.models.linear_regression import LinearRegressionSpec
from repro.models.logistic_regression import LogisticRegressionSpec


@pytest.fixture(scope="module")
def initial_model_setup():
    rng = np.random.default_rng(40)
    X = rng.normal(size=(40_000, 6))
    theta_true = rng.normal(size=6)
    y = (rng.uniform(size=40_000) < 1 / (1 + np.exp(-X @ theta_true))).astype(int)
    splits = train_holdout_test_split(
        Dataset(X, y), SplitSpec(0.1, 0.1), rng=np.random.default_rng(1)
    )
    spec = LogisticRegressionSpec(regularization=1e-3)
    n0 = 1000
    sample = splits.train.take(np.arange(n0))
    initial_model = spec.fit(sample)
    statistics = compute_statistics(spec, initial_model.theta, sample)
    return spec, splits, initial_model, statistics, n0


def make_estimator(spec, splits, k=64):
    return SampleSizeEstimator(spec, splits.holdout, n_parameter_samples=k)


class TestBinarySearch:
    def test_estimate_within_bounds(self, initial_model_setup):
        spec, splits, model, stats, n0 = initial_model_setup
        estimator = make_estimator(spec, splits)
        contract = ApproximationContract(epsilon=0.05, delta=0.05)
        estimate = estimator.estimate(model.theta, n0, splits.train.n_rows, contract, stats)
        assert isinstance(estimate, SampleSizeEstimate)
        assert n0 <= estimate.sample_size <= splits.train.n_rows
        assert estimate.n_probability_evaluations == len(estimate.probed_sizes)

    def test_tighter_contract_needs_larger_sample(self, initial_model_setup):
        spec, splits, model, stats, n0 = initial_model_setup
        estimator = make_estimator(spec, splits)
        loose = estimator.estimate(
            model.theta, n0, splits.train.n_rows,
            ApproximationContract(epsilon=0.10, delta=0.05), stats,
        )
        tight = estimator.estimate(
            model.theta, n0, splits.train.n_rows,
            ApproximationContract(epsilon=0.01, delta=0.05), stats,
        )
        assert tight.sample_size >= loose.sample_size

    def test_number_of_probes_is_logarithmic(self, initial_model_setup):
        spec, splits, model, stats, n0 = initial_model_setup
        estimator = make_estimator(spec, splits)
        contract = ApproximationContract(epsilon=0.03, delta=0.05)
        estimate = estimator.estimate(model.theta, n0, splits.train.n_rows, contract, stats)
        N = splits.train.n_rows
        # 2 endpoint checks + at most ceil(log2(N - n0)) bisection steps.
        assert estimate.n_probability_evaluations <= 2 + int(np.ceil(np.log2(N - n0))) + 1

    def test_very_loose_contract_returns_n0(self, initial_model_setup):
        spec, splits, model, stats, n0 = initial_model_setup
        estimator = make_estimator(spec, splits)
        contract = ApproximationContract(epsilon=0.9, delta=0.05)
        estimate = estimator.estimate(model.theta, n0, splits.train.n_rows, contract, stats)
        assert estimate.sample_size == n0
        assert estimate.feasible

    def test_shared_sampler_makes_search_deterministic(self, initial_model_setup):
        spec, splits, model, stats, n0 = initial_model_setup
        estimator = make_estimator(spec, splits)
        contract = ApproximationContract(epsilon=0.04, delta=0.05)
        sampler = ParameterSampler(stats, rng=np.random.default_rng(3))
        a = estimator.estimate(model.theta, n0, splits.train.n_rows, contract, stats, sampler)
        b = estimator.estimate(model.theta, n0, splits.train.n_rows, contract, stats, sampler)
        assert a.sample_size == b.sample_size

    def test_contract_satisfied_monotone_in_n(self, initial_model_setup):
        """Empirical check of Theorem 2: satisfaction probability rises with n."""
        spec, splits, model, stats, n0 = initial_model_setup
        estimator = make_estimator(spec, splits, k=96)
        contract = ApproximationContract(epsilon=0.05, delta=0.2)
        sampler = ParameterSampler(stats, rng=np.random.default_rng(4))
        N = splits.train.n_rows
        outcomes = [
            estimator.contract_satisfied(model.theta, n0, candidate, N, contract, sampler)
            for candidate in [n0, N // 8, N // 2, N]
        ]
        # Once satisfied, staying satisfied as n grows (with shared draws).
        first_true = outcomes.index(True) if True in outcomes else len(outcomes)
        assert all(outcomes[first_true:])

    def test_skip_lower_probe_saves_one_evaluation(self, initial_model_setup):
        # The coordinator only reaches the search after the accuracy
        # estimator rejected n0, so the lower-endpoint probe is redundant.
        spec, splits, model, stats, n0 = initial_model_setup
        estimator = make_estimator(spec, splits)
        contract = ApproximationContract(epsilon=0.03, delta=0.05)
        N = splits.train.n_rows
        default = estimator.estimate(
            model.theta, n0, N, contract, stats,
            sampler=ParameterSampler(stats, rng=np.random.default_rng(11)),
        )
        skipped = estimator.estimate(
            model.theta, n0, N, contract, stats,
            sampler=ParameterSampler(stats, rng=np.random.default_rng(11)),
            skip_lower_probe=True,
        )
        # n0 is never Monte-Carlo-evaluated: the first probe is the upper
        # endpoint, and with identical base draws the search lands on the
        # same answer with exactly one evaluation fewer.
        assert n0 not in skipped.probed_sizes
        assert skipped.probed_sizes[0] == N
        assert skipped.n_probability_evaluations == default.n_probability_evaluations - 1
        assert skipped.sample_size == default.sample_size
        assert skipped.feasible == default.feasible

    def test_skip_lower_probe_degenerate_n0_equals_N(self, initial_model_setup):
        # With n0 = N the search window is a single point; skipping the
        # lower probe must still terminate after the (free) upper probe.
        spec, splits, model, stats, _ = initial_model_setup
        estimator = make_estimator(spec, splits)
        contract = ApproximationContract(epsilon=0.03, delta=0.05)
        N = splits.train.n_rows
        estimate = estimator.estimate(
            model.theta, N, N, contract, stats, skip_lower_probe=True
        )
        assert estimate.feasible
        assert estimate.sample_size == N
        assert estimate.n_probability_evaluations == 1
        assert estimate.probed_sizes == (N,)

    def test_invalid_sizes(self, initial_model_setup):
        spec, splits, model, stats, n0 = initial_model_setup
        estimator = make_estimator(spec, splits)
        contract = ApproximationContract(epsilon=0.05, delta=0.05)
        with pytest.raises(SampleSizeError):
            estimator.estimate(model.theta, 0, splits.train.n_rows, contract, stats)
        with pytest.raises(SampleSizeError):
            estimator.estimate(model.theta, splits.train.n_rows + 1, splits.train.n_rows, contract, stats)

    def test_rejects_too_few_parameter_samples(self, initial_model_setup):
        spec, splits, *_ = initial_model_setup
        with pytest.raises(SampleSizeError):
            SampleSizeEstimator(spec, splits.holdout, n_parameter_samples=1)


class TestBisectionMinimality:
    """On a monotone predicate the search returns the first satisfying n."""

    @pytest.fixture(scope="class")
    def linear_setup(self):
        # Lin's difference between θ_n and θ_N is sqrt(1/n − 1/N) times a
        # draw-dependent constant, so with shared base draws the predicate
        # is exactly monotone in n: a small grid can be scanned in full.
        rng = np.random.default_rng(41)
        X = rng.normal(size=(6_000, 5))
        y = X @ rng.normal(size=5) + rng.normal(size=6_000)
        splits = train_holdout_test_split(
            Dataset(X, y), SplitSpec(0.2, 0.1), rng=np.random.default_rng(2)
        )
        spec = LinearRegressionSpec(regularization=1e-3)
        n0 = 500
        sample = splits.train.take(np.arange(n0))
        model = spec.fit(sample)
        statistics = compute_statistics(spec, model.theta, sample)
        return spec, splits, model, statistics, n0

    @pytest.mark.parametrize("skip_lower_probe", [True, False])
    def test_returns_first_satisfying_n_by_midpoints(self, linear_setup, skip_lower_probe):
        spec, splits, model, stats, n0 = linear_setup
        estimator = make_estimator(spec, splits, k=16)
        N = n0 + 100
        sampler = ParameterSampler(stats, rng=np.random.default_rng(8))
        # ε certified at 40% of the grid puts the answer strictly inside.
        (at_40,) = estimator.candidate_differences_batch(
            model.theta, n0, [n0 + 40], N, sampler
        )
        contract = ApproximationContract(
            epsilon=conservative_upper_bound(at_40, 0.05), delta=0.05
        )
        grid = range(n0 + 1, N + 1)
        satisfied = {
            n: estimator.contract_satisfied(model.theta, n0, n, N, contract, sampler)
            for n in grid
        }
        first = next(n for n in grid if satisfied[n])
        assert n0 + 1 < first <= n0 + 40
        assert all(satisfied[n] == (n >= first) for n in grid)

        expected = [] if skip_lower_probe else [n0]
        expected.append(N)
        low, high = n0, N
        while high - low > 1:
            middle = (low + high) // 2
            expected.append(middle)
            low, high = (low, middle) if satisfied[middle] else (middle, high)

        estimate = estimator.estimate(
            model.theta, n0, N, contract, stats,
            sampler=sampler, skip_lower_probe=skip_lower_probe,
        )
        assert estimate.feasible
        assert estimate.sample_size == first
        assert estimate.probed_sizes == tuple(expected)
        assert estimate.n_probability_evaluations == len(expected)


class TestFusedLockstepSearch:
    """estimate_many: lockstep fused search ≡ serial searches, fewer passes."""

    CONTRACTS = [
        ApproximationContract(epsilon=0.02, delta=0.05),
        ApproximationContract(epsilon=0.03, delta=0.05),
        ApproximationContract(epsilon=0.05, delta=0.05),
        ApproximationContract(epsilon=0.03, delta=0.10),
    ]

    def test_matches_serial_estimates_exactly(self, initial_model_setup):
        spec, splits, model, stats, n0 = initial_model_setup
        estimator = make_estimator(spec, splits, k=32)
        N = splits.train.n_rows
        # Serial baseline: one shared sampler, as a session would hold
        # (cached base draws make the vectors order-independent).
        serial_sampler = ParameterSampler(stats, rng=np.random.default_rng(17))
        serial = [
            estimator.estimate(
                model.theta, n0, N, contract, stats,
                sampler=serial_sampler, skip_lower_probe=True,
            )
            for contract in self.CONTRACTS
        ]
        fused = estimator.estimate_many(
            model.theta, n0, N, self.CONTRACTS, stats,
            sampler=ParameterSampler(stats, rng=np.random.default_rng(17)),
            skip_lower_probe=True,
        )
        assert len(fused.estimates) == len(self.CONTRACTS)
        for lone, member in zip(serial, fused.estimates):
            assert member.sample_size == lone.sample_size
            assert member.feasible == lone.feasible
            assert member.probed_sizes == lone.probed_sizes
            assert member.n_probability_evaluations == lone.n_probability_evaluations
        # Exact accounting: a search's serial cost is its own round count,
        # which is what a lone estimate_many reports as fused_passes; the
        # fused run shares rounds, so it can only be cheaper.
        lone_passes = [
            estimator.estimate_many(
                model.theta, n0, N, [contract], stats,
                sampler=serial_sampler, skip_lower_probe=True,
            ).fused_passes
            for contract in self.CONTRACTS
        ]
        assert lone_passes == [lone.n_probability_evaluations for lone in serial]
        assert fused.serial_passes == sum(lone_passes)
        assert fused.fused_passes < fused.serial_passes
        assert fused.passes_saved == fused.serial_passes - fused.fused_passes

    def test_duplicate_contracts_cost_nothing_extra(self, initial_model_setup):
        spec, splits, model, stats, n0 = initial_model_setup
        estimator = make_estimator(spec, splits, k=32)
        N = splits.train.n_rows
        contract = ApproximationContract(epsilon=0.03, delta=0.05)
        lone = estimator.estimate_many(
            model.theta, n0, N, [contract], stats,
            sampler=ParameterSampler(stats, rng=np.random.default_rng(21)),
            skip_lower_probe=True,
        )
        tripled = estimator.estimate_many(
            model.theta, n0, N, [contract] * 3, stats,
            sampler=ParameterSampler(stats, rng=np.random.default_rng(21)),
            skip_lower_probe=True,
        )
        # Identical contracts schedule identical candidates: the union pass
        # absorbs them, so the fused cost does not grow with multiplicity.
        assert tripled.fused_passes == lone.fused_passes
        assert tripled.serial_passes == 3 * lone.serial_passes
        for member in tripled.estimates:
            assert member.sample_size == lone.estimates[0].sample_size
            assert member.probed_sizes == lone.estimates[0].probed_sizes

    def test_empty_and_invalid_inputs(self, initial_model_setup):
        spec, splits, model, stats, n0 = initial_model_setup
        estimator = make_estimator(spec, splits, k=32)
        N = splits.train.n_rows
        empty = estimator.estimate_many(model.theta, n0, N, [], stats)
        assert empty.estimates == ()
        assert (empty.fused_passes, empty.serial_passes) == (0, 0)
        contract = ApproximationContract(epsilon=0.03, delta=0.05)
        with pytest.raises(SampleSizeError):
            estimator.estimate_many(model.theta, 0, N, [contract], stats)
