"""Streaming sharded holdout evaluation over pluggable block sources.

The PR 1 batched diff engine evaluates all k candidate parameters against
the holdout in one GEMM but materialises the full ``(k, n_holdout)``
prediction block, which caps holdout size well below the million-user
target.  This module is the driver half of the streaming replacement:

* the holdout is consumed as contiguous row blocks through the
  :class:`BlockSource` protocol — an in-memory
  :class:`~repro.data.dataset.Dataset` (zero-copy slice views) or an
  out-of-core :class:`~repro.data.store.ShardedDataset` (zero-copy
  memory-mapped shard slices, block bounds snapped to shard boundaries);
* each block is fed to a :class:`~repro.models.base.DiffAccumulator`
  obtained from the model spec, which folds the block into per-candidate
  disagreement counts / squared-error sums;
* memory therefore stays O(k · block) no matter how large the holdout is —
  and with a sharded source, the *data* is never resident either;
* optionally, contiguous block ranges fan out across a thread pool (NumPy
  releases the GIL inside the per-block GEMMs); each worker folds its range
  into its own accumulator and the partials merge in holdout order through
  the ordinary :meth:`DiffAccumulator.merge` path.

Layering (see ``docs/architecture.md``): the estimation session and the
accuracy / sample-size estimators call the two ``streaming_*`` functions
below; the functions drive the spec's accumulators; only the model families
know how to decompose their metric over blocks; only the block source knows
where the rows live.
"""

from __future__ import annotations

import time
from collections.abc import Iterable, Iterator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Protocol, runtime_checkable

import numpy as np

from repro.config import DEFAULT_HOLDOUT_BLOCK_ROWS, DEFAULT_STREAMING_WORKERS
from repro.data.dataset import Dataset
from repro.exceptions import DataError
from repro.models.base import DiffAccumulator, ModelClassSpec
from repro.obs import current_pass_scope, get_metrics, maybe_span, obs_enabled

# Streamed-pass accounting: one tick per stream_accumulate() call that
# actually consumes holdout blocks (parameter-space metrics never stream
# and never count).  The coalescing
# serving tier's "passes saved" accounting is defined against this counter:
# tests and the bench_coalesced_serving gate measure fused-vs-serial
# executions by diffing it, so it must tick exactly once per pass no matter
# how many fan-out segments the pass carries.  Since the observability tier
# the counter lives in the process-global metrics registry, labelled by the
# calling scope ("accuracy" / "size-search" / "statistics" / "unscoped")
# and session label the caller set via repro.obs.pass_scope();
# streaming_pass_count() stays as a thin label-blind reader so every
# existing diff-two-readings call site keeps working unchanged.  The
# counter is always live (not gated by obs_enabled) because pass economy is
# this library's central claim, not optional telemetry.
_PASSES_TOTAL = get_metrics().counter(
    "repro_streaming_passes_total",
    "Streamed passes over a block source (one per stream_accumulate() "
    "call that consumes holdout blocks).",
    ("scope", "session"),
)
_PASS_BLOCKS_TOTAL = get_metrics().counter(
    "repro_streaming_blocks_total",
    "Holdout blocks consumed by streamed passes.",
    ("scope",),
)
_PASS_ROWS_TOTAL = get_metrics().counter(
    "repro_streaming_rows_total",
    "Holdout rows swept by streamed passes.",
    ("scope",),
)
_PASS_BYTES_TOTAL = get_metrics().counter(
    "repro_streaming_bytes_total",
    "Approximate bytes of holdout data swept by streamed passes "
    "(rows x 8-byte features, labels included).",
    ("scope",),
)
_PASS_SECONDS = get_metrics().histogram(
    "repro_streaming_pass_seconds",
    "Wall time of one streamed pass (fan-out included).",
    ("scope",),
)


def _count_streaming_pass() -> None:
    scope, session = current_pass_scope()
    _PASSES_TOTAL.inc(1, scope=scope, session=session)


def streaming_pass_count() -> int:
    """Process-lifetime count of streamed passes over any block source.

    Monotonic and thread-safe; diff two readings around a workload to count
    the holdout passes it cost.  Counts *passes*, not blocks and not
    segments: a fan-out pass evaluating many candidate segments in one
    block sweep counts once — that is precisely the economy the
    request-coalescing tier exists to create.

    A thin reader over the ``repro_streaming_passes_total`` metric (summed
    across its scope/session labels); scrape the registry
    (:func:`repro.obs.get_metrics`) for the per-scope attribution.
    """
    return int(_PASSES_TOTAL.total())


def _approx_pass_nbytes(blocks: BlockSource) -> int:
    """Approximate bytes one full sweep of ``blocks`` reads.

    Exact for in-memory datasets (the buffers' nbytes); sharded sources
    are estimated from the manifest row/feature counts (float64 features
    plus a label column when supervised) without touching a shard.  Zero
    for sources exposing neither surface — the bytes metric is telemetry,
    never accounting.
    """
    if isinstance(blocks, _DatasetBlocks):
        dataset = blocks._dataset
        y_nbytes = 0 if dataset.y is None else int(dataset.y.nbytes)
        return int(dataset.X.nbytes) + y_nbytes
    n_features = getattr(blocks, "n_features", None)
    if n_features is None:
        return 0
    columns = int(n_features) + (1 if getattr(blocks, "is_supervised", False) else 0)
    return blocks.n_rows * 8 * columns


@runtime_checkable
class BlockSource(Protocol):
    """Anything the streaming engine can shard into contiguous row blocks.

    Implemented by :class:`~repro.data.store.ShardedDataset`; in-memory
    :class:`Dataset` objects are adapted internally.  ``block_bounds`` must
    return contiguous, in-order ``[start, stop)`` ranges tiling
    ``[0, n_rows)``, each at most ``block_rows`` rows; ``read_block`` must
    return those rows as a :class:`Dataset` (zero-copy wherever possible).
    """

    @property
    def n_rows(self) -> int: ...

    def block_bounds(self, block_rows: int) -> list[tuple[int, int]]: ...

    def read_block(self, start: int, stop: int) -> Dataset: ...


@dataclass(frozen=True)
class StreamingConfig:
    """How the holdout is sharded and how many threads fan the blocks out.

    Parameters
    ----------
    block_rows:
        Rows per holdout block; peak memory of a streamed diff is
        O(k · block_rows).
    n_workers:
        0 or 1 processes blocks serially on the calling thread; larger
        values split the block sequence into that many contiguous ranges
        and run them on a thread pool, merging partials in holdout order.
    """

    block_rows: int = DEFAULT_HOLDOUT_BLOCK_ROWS
    n_workers: int = DEFAULT_STREAMING_WORKERS

    def __post_init__(self) -> None:
        if self.block_rows < 1:
            raise DataError("block_rows must be at least 1")
        if self.n_workers < 0:
            raise DataError("n_workers must be non-negative")


#: module default used whenever a caller passes ``config=None``.
DEFAULT_STREAMING_CONFIG = StreamingConfig()


def _block_view(dataset: Dataset, start: int, stop: int) -> Dataset:
    """A zero-copy row-slice view of ``dataset`` (contiguous slices only).

    The X/y buffers are views; metadata is propagated like every other
    Dataset transformation so metadata-aware custom accumulators see the
    same context on the streaming path as on the materialised one.
    """
    y = None if dataset.y is None else dataset.y[start:stop]
    return Dataset(
        dataset.X[start:stop], y, name=dataset.name, metadata=dict(dataset.metadata)
    )


class _DatasetBlocks:
    """Adapter giving an in-memory :class:`Dataset` the block-source surface."""

    __slots__ = ("_dataset",)

    def __init__(self, dataset: Dataset):
        self._dataset = dataset

    @property
    def n_rows(self) -> int:
        return self._dataset.n_rows

    def block_bounds(self, block_rows: int) -> list[tuple[int, int]]:
        if block_rows < 1:
            raise DataError("block_rows must be at least 1")
        n = self._dataset.n_rows
        return [
            (start, min(start + block_rows, n)) for start in range(0, n, block_rows)
        ]

    def read_block(self, start: int, stop: int) -> Dataset:
        return _block_view(self._dataset, start, stop)


def as_block_source(source: "Dataset | BlockSource") -> BlockSource:
    """Adapt ``source`` to the block-source surface (Datasets are wrapped)."""
    if isinstance(source, Dataset):
        return _DatasetBlocks(source)
    for attribute in ("n_rows", "block_bounds", "read_block"):
        if not hasattr(source, attribute):
            raise DataError(
                f"{type(source).__name__} is neither a Dataset nor a BlockSource "
                f"(missing {attribute!r})"
            )
    return source


def iter_holdout_blocks(
    source: "Dataset | BlockSource", block_rows: int
) -> Iterator[Dataset]:
    """Yield the holdout as contiguous zero-copy blocks of ``<= block_rows`` rows.

    With a :class:`~repro.data.store.ShardedDataset` source the bounds snap
    to shard boundaries, so some blocks are shorter than ``block_rows`` but
    none ever crosses a shard (no cross-shard copies).
    """
    blocks = as_block_source(source)
    for start, stop in blocks.block_bounds(block_rows):
        yield blocks.read_block(start, stop)


@runtime_checkable
class StreamTask(Protocol):
    """Recipe for one streamed block-fold evaluation.

    Anything :func:`stream_accumulate` can drive: it names the block source
    and knows how to build a fresh accumulator (an object with the
    :class:`~repro.models.base.DiffAccumulator` fold surface —
    ``needs_holdout_blocks`` / ``update`` / ``merge`` / ``finalize``).
    Implemented by the diff tasks below and by the statistics tasks in
    :mod:`repro.core.statistics`.
    """

    @property
    def source(self) -> "Dataset | BlockSource": ...

    def make_accumulator(self) -> DiffAccumulator: ...


@dataclass(frozen=True)
class _StreamTask:
    """Recipe for one streamed diff evaluation.

    The spec, which factory to call, the parameter batches and the source:
    the single place the accumulator factory is defined, called once per
    fan-out worker.
    """

    spec: ModelClassSpec
    kind: str  # "diff" | "pairwise"
    Thetas_a: np.ndarray
    Thetas_b: np.ndarray
    source: "Dataset | BlockSource"

    def make_accumulator(self) -> DiffAccumulator:
        if self.kind == "diff":
            return self.spec.diff_accumulator(self.Thetas_a, self.Thetas_b, self.source)
        return self.spec.pairwise_diff_accumulator(
            self.Thetas_a, self.Thetas_b, self.source
        )


class FanoutDiffAccumulator(DiffAccumulator):
    """One block sweep folded into many independent sub-accumulators.

    The cross-caller coalescing primitive: each part is a complete
    per-segment accumulator (one per candidate sample size, k pairs each),
    and every holdout block is folded into all of them before the next
    block is read — so the union of many callers' candidate evaluations
    costs one pass over the data instead of one pass per caller.

    Determinism contract: each part sees exactly the blocks, block order
    and per-part parameter stack it would have seen running alone (the
    family closures are segment-local — ``predict_many`` runs per part
    with identical shapes either way), so the demultiplexed results are
    bitwise identical to serial per-segment passes.  ``finalize`` returns
    the *list* of per-part results, in part order.
    """

    __slots__ = ("parts",)

    def __init__(self, parts: Iterable[DiffAccumulator]):
        self.parts = list(parts)

    @property
    def needs_holdout_blocks(self) -> bool:
        return any(part.needs_holdout_blocks for part in self.parts)

    def update(self, block: Dataset) -> None:
        for part in self.parts:
            part.update(block)

    def merge(self, other: "FanoutDiffAccumulator") -> None:
        for mine, theirs in zip(self.parts, other.parts):
            mine.merge(theirs)

    def finalize(self) -> list:
        return [part.finalize() for part in self.parts]


@dataclass(frozen=True)
class _FanoutStreamTask:
    """Recipe bundling several diff tasks into one block sweep.

    All member tasks must share one block source (the session holdout); the
    fan-out accumulator is simply each member's own accumulator driven in
    lockstep, so fan-out workers build and merge exactly as they do for a
    single task.
    """

    tasks: tuple[_StreamTask, ...]

    @property
    def source(self) -> "Dataset | BlockSource":
        return self.tasks[0].source

    def make_accumulator(self) -> FanoutDiffAccumulator:
        return FanoutDiffAccumulator([task.make_accumulator() for task in self.tasks])


def _split_ranges(
    bounds: list[tuple[int, int]], n_workers: int
) -> list[list[tuple[int, int]]]:
    """Split the bound list into ``n_workers`` contiguous, in-order ranges."""
    splits = np.array_split(np.arange(len(bounds)), n_workers)
    return [[bounds[i] for i in split] for split in splits if split.size]


def stream_accumulate(task: StreamTask, config: StreamingConfig) -> Any:
    """Run one accumulator (or one per worker) over the task's block source.

    The generic executor core behind every streamed fold in the system: the
    two ``streaming_*`` diff functions below and the statistics tier's
    moment accumulation (:func:`repro.core.statistics.compute_statistics`)
    all delegate here.  Returns whatever the merged accumulator's
    ``finalize()`` produces — a per-candidate diff vector for the diff
    tasks, a moment summary for the statistics tasks.  Partials are always
    merged in source order, so results are independent of executor timing.
    """
    first = task.make_accumulator()
    if not first.needs_holdout_blocks:
        # Parameter-space metrics (PPCA): nothing to shard.
        return first.finalize()

    _count_streaming_pass()
    blocks = as_block_source(task.source)
    bounds = blocks.block_bounds(config.block_rows)
    if not obs_enabled():
        return _consume_blocks(task, first, blocks, bounds, config)
    # Extra per-pass telemetry (REPRO_OBS_ENABLED): a span plus block/row/
    # byte/wall-time metrics, recorded on the calling thread around the exact same
    # consumption path — the fold itself is untouched, so results are
    # bitwise identical with the flag on or off.
    scope, _session = current_pass_scope()
    started = time.monotonic()
    with maybe_span(
        "streaming.pass",
        scope=scope,
        blocks=len(bounds),
        rows=blocks.n_rows,
    ):
        result = _consume_blocks(task, first, blocks, bounds, config)
    _PASS_SECONDS.observe(time.monotonic() - started, scope=scope)
    _PASS_BLOCKS_TOTAL.inc(len(bounds), scope=scope)
    _PASS_ROWS_TOTAL.inc(blocks.n_rows, scope=scope)
    _PASS_BYTES_TOTAL.inc(_approx_pass_nbytes(blocks), scope=scope)
    return result


def _consume_blocks(
    task: StreamTask,
    first: DiffAccumulator,
    blocks: BlockSource,
    bounds: list[tuple[int, int]],
    config: StreamingConfig,
) -> Any:
    """The executor core of :func:`stream_accumulate` (one counted pass)."""
    if config.n_workers <= 1 or len(bounds) <= 1:
        for start, stop in bounds:
            first.update(blocks.read_block(start, stop))
        return first.finalize()

    # Contiguous block ranges per worker so merge order equals holdout order.
    n_workers = min(config.n_workers, len(bounds))
    ranges = _split_ranges(bounds, n_workers)

    accumulators = [first] + [task.make_accumulator() for _ in range(len(ranges) - 1)]

    def run_range(
        accumulator: DiffAccumulator, range_bounds: list[tuple[int, int]]
    ) -> DiffAccumulator:
        for start, stop in range_bounds:
            accumulator.update(blocks.read_block(start, stop))
        return accumulator

    with ThreadPoolExecutor(max_workers=len(ranges)) as pool:
        done = list(pool.map(run_range, accumulators, ranges))
    for partial in done[1:]:
        done[0].merge(partial)
    return done[0].finalize()


def streaming_prediction_differences(
    spec: ModelClassSpec,
    theta_ref: np.ndarray,
    Thetas: np.ndarray,
    dataset: "Dataset | BlockSource",
    config: StreamingConfig | None = None,
) -> np.ndarray:
    """Sharded equivalent of :meth:`ModelClassSpec.prediction_differences`.

    Agrees with the materialised batched path to floating-point accuracy
    (bitwise for the classification families, whose block statistics are
    integer counts) while keeping memory at O(k · block_rows).  ``dataset``
    may be an in-memory :class:`Dataset` or any :class:`BlockSource`
    (e.g. a memory-mapped :class:`~repro.data.store.ShardedDataset`).
    """
    config = config or DEFAULT_STREAMING_CONFIG
    return stream_accumulate(
        _StreamTask(
            spec=spec,
            kind="diff",
            Thetas_a=np.asarray(theta_ref, dtype=np.float64),
            Thetas_b=np.asarray(Thetas, dtype=np.float64),
            source=dataset,
        ),
        config,
    )


def streaming_pairwise_prediction_differences(
    spec: ModelClassSpec,
    Thetas_a: np.ndarray,
    Thetas_b: np.ndarray,
    dataset: "Dataset | BlockSource",
    config: StreamingConfig | None = None,
) -> np.ndarray:
    """Sharded equivalent of :meth:`ModelClassSpec.pairwise_prediction_differences`."""
    config = config or DEFAULT_STREAMING_CONFIG
    return stream_accumulate(
        _StreamTask(
            spec=spec,
            kind="pairwise",
            Thetas_a=np.asarray(Thetas_a, dtype=np.float64),
            Thetas_b=np.asarray(Thetas_b, dtype=np.float64),
            source=dataset,
        ),
        config,
    )


def streaming_fanout_pairwise_prediction_differences(
    spec: ModelClassSpec,
    segments: "list[tuple[np.ndarray, np.ndarray]]",
    dataset: "Dataset | BlockSource",
    config: StreamingConfig | None = None,
) -> list[np.ndarray]:
    """Evaluate several independent pairwise-diff segments in one pass.

    ``segments`` is a list of ``(Thetas_a, Thetas_b)`` parameter-batch
    pairs — in the sample-size search, one k-pair segment per candidate
    size, possibly pooled across *many concurrent callers*.  The holdout is
    swept exactly once (one :func:`streaming_pass_count` tick) and every
    block is folded into each segment's own accumulator, so the per-segment
    results are bitwise identical to running
    :func:`streaming_pairwise_prediction_differences` per segment — same
    per-segment GEMM shapes, same block order, same merge order — while the
    data-movement cost is shared.  Returns one difference vector per
    segment, in segment order.
    """
    config = config or DEFAULT_STREAMING_CONFIG
    tasks = tuple(
        _StreamTask(
            spec=spec,
            kind="pairwise",
            Thetas_a=np.asarray(thetas_a, dtype=np.float64),
            Thetas_b=np.asarray(thetas_b, dtype=np.float64),
            source=dataset,
        )
        for thetas_a, thetas_b in segments
    )
    if not tasks:
        return []
    results = stream_accumulate(_FanoutStreamTask(tasks=tasks), config)
    return [np.asarray(result, dtype=np.float64) for result in results]
