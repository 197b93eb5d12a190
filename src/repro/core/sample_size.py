"""Sample Size Estimator (Section 4).

Given only the *initial* model m_0 (trained on n0 rows), the estimator finds
the smallest sample size n such that a model trained on n rows would satisfy
the approximation contract — without training any additional model.

For a candidate n the probability ``Pr[v(m_n, m_N) ≤ ε]`` is estimated via
the two-stage sampling of Section 4.1 (θ_n | θ_0, then θ_N | θ_n) and the
conservative correction of Lemma 2.  Theorem 2 shows this probability is
increasing in n, which justifies the bisection of Section 4.2.

Two implementation-level choices sit on top of the paper's search:

* the per-candidate pairwise diffs run through the streaming sharded
  holdout engine (:mod:`repro.evaluation.streaming`), so memory stays
  O(k · block) regardless of holdout size;
* one lockstep bisection serves every caller: :meth:`SampleSizeEstimator.estimate`
  runs it for one contract and :meth:`SampleSizeEstimator.estimate_many`
  for several, whose midpoints of one round share a single streamed
  pass.  Each contract's bisection is the same either way, so a fused
  member's answer is bitwise what its lone search returns.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from collections.abc import Generator, Sequence

import numpy as np

from repro.config import DEFAULT_NUM_PARAMETER_SAMPLES
from repro.core.contract import ApproximationContract
from repro.core.guarantees import satisfies_probability_threshold
from repro.core.parameter_sampler import ParameterSampler
from repro.core.statistics import ModelStatistics
from repro.data.dataset import Dataset
from repro.evaluation.streaming import (
    StreamingConfig,
    streaming_fanout_pairwise_prediction_differences,
)
from repro.exceptions import SampleSizeError
from repro.models.base import ModelClassSpec
from repro.obs import get_metrics, maybe_span, obs_enabled

# Size-search round economics (repro.obs): every round is one streamed
# candidate pass, so rounds-by-mode plus the fused passes-saved counter
# reproduce the coalescing tier's exact pass accounting at scrape time.
# Ticked only when telemetry is enabled (obs_enabled()).
_SEARCH_ROUNDS = get_metrics().counter(
    "repro_size_search_rounds_total",
    "Size-search evaluation rounds executed (one streamed candidate pass "
    "each), by search mode.",
    ("mode",),
)
_SEARCHES_TOTAL = get_metrics().counter(
    "repro_size_search_searches_total",
    "Completed size searches, by search mode (fused counts each member "
    "contract).",
    ("mode",),
)
_PASSES_SAVED_TOTAL = get_metrics().counter(
    "repro_size_search_passes_saved_total",
    "Streamed passes fused lockstep searches avoided versus running the "
    "same contracts serially (exact accounting).",
)


@dataclass(frozen=True)
class SampleSizeEstimate:
    """Outcome of the minimum-sample-size search.

    Attributes
    ----------
    sample_size:
        The estimated minimum n.
    feasible:
        False when even n = N did not certify the contract through the
        Monte-Carlo check (the coordinator then trains on the full data).
    n_probability_evaluations:
        How many candidate sizes were Monte-Carlo-evaluated in total (one
        per bisection round).
    probed_sizes:
        The candidate n values actually Monte-Carlo-evaluated, in order
        (diagnostics).  With ``skip_lower_probe`` the lower endpoint ``n0``
        is never evaluated and therefore never appears here.
    estimation_seconds:
        Wall-clock cost of the search.
    """

    sample_size: int
    feasible: bool
    n_probability_evaluations: int
    probed_sizes: tuple[int, ...] = field(default_factory=tuple)
    estimation_seconds: float = 0.0


@dataclass(frozen=True)
class FusedSizeSearch:
    """Outcome of one fused multi-contract search (:meth:`SampleSizeEstimator.estimate_many`).

    Attributes
    ----------
    estimates:
        One :class:`SampleSizeEstimate` per input contract, in input order.
        Each is bitwise identical to what a lone :meth:`SampleSizeEstimator.estimate`
        call for that contract would return, except ``estimation_seconds``,
        which reports the *shared* fused wall-clock for every member.
    fused_passes:
        Evaluation rounds the fused search actually executed — each is one
        streamed holdout pass (for block-streaming model families) carrying
        the union of that round's candidates across all active searches.
    serial_passes:
        Evaluation rounds the same contracts would have cost executed
        serially (each search's own round count, summed).  Exact, not
        estimated: every member search follows the identical bracket
        trajectory fused or serial, so its serial round count is simply the
        number of fused rounds it contributed candidates to.
    """

    estimates: tuple[SampleSizeEstimate, ...]
    fused_passes: int
    serial_passes: int

    @property
    def passes_saved(self) -> int:
        """Streamed passes the fusion avoided versus serial execution."""
        return self.serial_passes - self.fused_passes


def _check_sizes(n0: int, N: int) -> None:
    if n0 <= 0 or N <= 0:
        raise SampleSizeError("sample sizes must be positive")
    if n0 > N:
        raise SampleSizeError(f"initial sample size {n0} exceeds N={N}")


def _bisection(
    n0: int, N: int, skip_lower_probe: bool
) -> Generator[int, bool, tuple[int, bool]]:
    """The paper's bisection over ``[n0, N]`` for one contract, as a coroutine.

    Yields each candidate n to Monte-Carlo-check, receives whether it
    satisfies the contract, and returns ``(sample_size, feasible)``.  The
    caller decides how candidates are evaluated, so one loop
    (:meth:`SampleSizeEstimator._lockstep`) runs any number of these side
    by side.
    """
    # Quick exits: if n0 already satisfies, the coordinator will have
    # caught it via the accuracy estimator, but the search still handles
    # it gracefully; if even N fails the Monte-Carlo check, fall back to
    # the full data.
    if not skip_lower_probe and (yield n0):
        return n0, True
    if not (yield N):
        return N, False
    # Invariant: low fails, high satisfies.  Theorem 2 (monotonicity)
    # makes halving the bracket valid.
    low, high = n0, N
    while high - low > 1:
        middle = low + (high - low) // 2
        if (yield middle):
            high = middle
        else:
            low = middle
    return high, True


class SampleSizeEstimator:
    """Finds the smallest n satisfying the contract using only the initial model.

    ``streaming`` configures the sharded holdout evaluation of the pairwise
    diffs (``None`` uses the module default).
    """

    def __init__(
        self,
        spec: ModelClassSpec,
        holdout: Dataset,
        n_parameter_samples: int = DEFAULT_NUM_PARAMETER_SAMPLES,
        streaming: StreamingConfig | None = None,
    ):
        if n_parameter_samples < 2:
            raise SampleSizeError("need at least two parameter samples")
        self._spec = spec
        self._holdout = holdout
        self._n_parameter_samples = n_parameter_samples
        self._streaming = streaming

    # ------------------------------------------------------------------
    # Probability of contract satisfaction for candidate sizes
    # ------------------------------------------------------------------
    def contract_satisfied(
        self,
        theta0: np.ndarray,
        n0: int,
        candidate_n: int,
        N: int,
        contract: ApproximationContract,
        sampler: ParameterSampler,
    ) -> bool:
        """Monte-Carlo check of ``Pr[v(m_n, m_N) ≤ ε] ≥ 1 − δ`` for one n."""
        (differences,) = self.candidate_differences_batch(
            theta0, n0, (candidate_n,), N, sampler
        )
        return satisfies_probability_threshold(
            differences, contract.epsilon, contract.delta
        )

    def candidate_differences_batch(
        self,
        theta0: np.ndarray,
        n0: int,
        candidate_ns: Sequence[int],
        N: int,
        sampler: ParameterSampler,
    ) -> list[np.ndarray]:
        """Sampled diff vectors for several candidate sizes, one streamed pass.

        The two-stage draws (Section 4.1) for every candidate reuse the same
        cached base samples, so the only per-candidate cost is the rescale;
        each candidate's k parameter pairs then form one *segment* of a
        single fan-out streamed evaluation
        (:func:`~repro.evaluation.streaming.streaming_fanout_pairwise_prediction_differences`).
        Per-candidate segmentation — rather than stacking all candidates
        into one wide GEMM — is what makes results demultiplex bitwise
        identically: every segment runs the same per-block GEMM shapes, in
        the same block order, that a lone single-candidate evaluation would,
        so the vector a candidate gets is independent of which (or whose)
        other candidates shared the pass.  This is the contract the
        request-coalescing tier (:mod:`repro.serving`) is built on.
        """
        if not candidate_ns:
            return []
        segments = [
            sampler.two_stage_samples(
                theta0, n0=n0, n=int(candidate), N=N, count=self._n_parameter_samples
            )
            for candidate in candidate_ns
        ]
        return streaming_fanout_pairwise_prediction_differences(
            self._spec, segments, self._holdout, config=self._streaming
        )

    # ------------------------------------------------------------------
    # Bisection (Section 4.2), one contract or several in lockstep
    # ------------------------------------------------------------------
    def estimate(
        self,
        theta0: np.ndarray,
        n0: int,
        N: int,
        contract: ApproximationContract,
        statistics: ModelStatistics,
        sampler: ParameterSampler | None = None,
        skip_lower_probe: bool = False,
    ) -> SampleSizeEstimate:
        """Search the smallest n in [n0, N] satisfying the contract.

        Parameters
        ----------
        theta0:
            Parameter vector of the initial model m_0.
        n0:
            Size of the initial sample D0.
        N:
            Full training-set size.
        contract:
            The (ε, δ) approximation contract.
        statistics:
            Factored statistics computed at θ_0.
        sampler:
            Optional shared sampler (base draws are cached inside it, so the
            whole search re-uses the same base normal draws — the
            sampling-by-scaling optimisation).
        skip_lower_probe:
            When true, ``n0`` is assumed to fail the contract and is not
            re-probed.  The coordinator sets this because it only reaches
            the search after the accuracy estimator has already rejected
            ``n0``, so the k-sample Monte-Carlo evaluation at the lower
            endpoint would be wasted.  ``probed_sizes`` then starts at the
            upper endpoint ``N`` and never contains ``n0``; if ``n0``
            actually satisfies the contract the search conservatively
            returns a size in ``(n0, N]`` instead of ``n0``.
        """
        _check_sizes(n0, N)
        sampler = sampler or ParameterSampler(statistics)
        if not obs_enabled():
            return self._lockstep(
                theta0, n0, N, [contract], sampler, skip_lower_probe, "serial"
            ).estimates[0]
        with maybe_span(
            "size_search.estimate",
            epsilon=contract.epsilon,
            delta=contract.delta,
            n0=n0,
            N=N,
        ) as span:
            estimate = self._lockstep(
                theta0, n0, N, [contract], sampler, skip_lower_probe, "serial"
            ).estimates[0]
            if span is not None:
                span.set_attribute("sample_size", estimate.sample_size)
                span.set_attribute("feasible", estimate.feasible)
        _SEARCHES_TOTAL.inc(1, mode="serial")
        return estimate

    def estimate_many(
        self,
        theta0: np.ndarray,
        n0: int,
        N: int,
        contracts: Sequence[ApproximationContract],
        statistics: ModelStatistics,
        sampler: ParameterSampler | None = None,
        skip_lower_probe: bool = False,
    ) -> FusedSizeSearch:
        """Run several contracts' searches in lockstep, sharing each round's pass.

        Each member search follows exactly the bisection it would follow
        alone — same endpoint probes, same midpoints, same narrowing
        decisions — but all searches still active at a given round
        contribute their midpoints to one deduplicated union, which is
        evaluated as a single fan-out streamed pass
        (:meth:`candidate_differences_batch`).  Per-candidate segmentation
        makes the demultiplexed outcomes bitwise identical to serial runs,
        so the member estimates (sample size, feasibility, probe schedule)
        are exactly what ``estimate()`` would have produced, while the pass
        count drops from the sum of the members' round counts to the
        maximum of them.

        Duplicated (ε, δ) contracts in the input are legal and cost nothing
        extra (their candidates always coincide, so the union absorbs
        them); callers that want duplicate *results* shared should dedupe a
        level up (the session's size cache does).  Returns a
        :class:`FusedSizeSearch` with the per-contract estimates in input
        order plus the exact fused/serial pass accounting.
        """
        _check_sizes(n0, N)
        contracts = list(contracts)
        if not contracts:
            return FusedSizeSearch(estimates=(), fused_passes=0, serial_passes=0)
        sampler = sampler or ParameterSampler(statistics)
        if not obs_enabled():
            return self._lockstep(
                theta0, n0, N, contracts, sampler, skip_lower_probe, "fused"
            )
        with maybe_span(
            "size_search.estimate_many",
            contracts=len(contracts),
            n0=n0,
            N=N,
        ) as span:
            outcome = self._lockstep(
                theta0, n0, N, contracts, sampler, skip_lower_probe, "fused"
            )
            if span is not None:
                span.set_attribute("fused_passes", outcome.fused_passes)
                span.set_attribute("serial_passes", outcome.serial_passes)
        _SEARCHES_TOTAL.inc(len(contracts), mode="fused")
        _PASSES_SAVED_TOTAL.inc(outcome.passes_saved)
        return outcome

    def _lockstep(
        self,
        theta0: np.ndarray,
        n0: int,
        N: int,
        contracts: list[ApproximationContract],
        sampler: ParameterSampler,
        skip_lower_probe: bool,
        mode: str,
    ) -> FusedSizeSearch:
        """One :func:`_bisection` per contract, each advancing one probe per round.

        A round evaluates the union of the active searches' candidates in
        one streamed pass and sends each search its own outcome; searches
        drop out as their brackets resolve.  ``mode`` labels the round and
        search counters (``"serial"`` for :meth:`estimate`).
        """
        start = time.perf_counter()
        telemetry = obs_enabled()
        searches = [_bisection(n0, N, skip_lower_probe) for _ in contracts]
        probed: list[list[int]] = [[] for _ in contracts]
        results: list[tuple[int, bool]] = [(N, False)] * len(contracts)
        # Every search probes at least N, so each yields a first candidate.
        pending = {i: next(search) for i, search in enumerate(searches)}
        fused_passes = serial_passes = 0
        while pending:
            fused_passes += 1
            serial_passes += len(pending)
            if telemetry:
                _SEARCH_ROUNDS.inc(1, mode=mode)
            union = sorted(set(pending.values()))
            differences = dict(
                zip(union, self.candidate_differences_batch(theta0, n0, union, N, sampler))
            )
            for i, candidate in list(pending.items()):
                probed[i].append(candidate)
                satisfied = satisfies_probability_threshold(
                    differences[candidate], contracts[i].epsilon, contracts[i].delta
                )
                try:
                    pending[i] = searches[i].send(satisfied)
                except StopIteration as finished:
                    del pending[i]
                    results[i] = finished.value

        elapsed = time.perf_counter() - start
        return FusedSizeSearch(
            estimates=tuple(
                SampleSizeEstimate(
                    sample_size=int(sample_size),
                    feasible=feasible,
                    n_probability_evaluations=len(sizes),
                    probed_sizes=tuple(sizes),
                    estimation_seconds=elapsed,
                )
                for (sample_size, feasible), sizes in zip(results, probed)
            ),
            fused_passes=fused_passes,
            serial_passes=serial_passes,
        )
