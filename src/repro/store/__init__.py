"""repro.store — the persistent result store for scenario sweeps.

PR 1's sweep engine is fire-and-forget: every invocation re-executes
every cell.  This package turns it into an incremental experiment
platform, in three layers:

* :mod:`repro.store.cache` — :class:`ResultCache`, a content-addressed
  on-disk cache keyed by a SHA-256 digest of each
  :class:`~repro.orchestration.matrix.ScenarioSpec` (config + seed +
  budgets + a code-version salt), with atomic writes and a bounded
  in-memory LRU front.  Pass one to any sweep (or ``repro sweep
  --cache DIR``) and repeated sweeps skip already-executed scenarios
  with bit-identical results.
* :mod:`repro.store.shards` — JSONL shard readers/writers and
  :func:`merge_shards`, which folds shards from multiple runs (or
  machines) into one deduplicated
  :class:`~repro.analysis.aggregation.MatrixReport`, detecting
  conflicting duplicate records.  ``repro merge SHARD... --out PATH``
  is the CLI face.
* :mod:`repro.store.resume` — :func:`plan_resume` diffs a matrix
  against the store; a sweep given ``cache=`` executes only the missing
  cells.
* :mod:`repro.store.collector` — :class:`ShardCollector` /
  :func:`watch_shards`, the incremental half of distributed dispatch:
  watch a directory, fold each complete shard exactly once (truncated
  in-flight files are revisited, never fatal), checkpoint atomically,
  and finalize a merged JSONL byte-identical to the unsharded sweep
  (``repro collect DIR`` on the CLI; the dispatcher itself lives in
  :mod:`repro.orchestration.dispatch`).
* :mod:`repro.store.verify` — :func:`verify_store`, the integrity
  scrub: re-execute a deterministic sample of cached scenarios on the
  current kernel and compare records field by field (``repro store
  verify DIR`` on the CLI).

All persistence goes through :func:`repro.store.atomic.atomic_write_text`
(temp file + rename), so interrupted sweeps never leave truncated cache
entries or shards behind.
"""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:  # pragma: no cover
    from .atomic import atomic_write_text
    from .cache import CacheStats, ResultCache, code_version, scenario_key
    from .collector import (
        CollectorError, ScanResult, ShardCollector, watch_shards,
    )
    from .shards import (
        MergeResult, ShardConflictError, ShardFolder,
        ShardTruncatedError, canonical_order, iter_shard_records,
        matrix_order, merge_shards, parse_shard_text, read_shard,
        read_shard_tolerant, write_shard,
    )
    from .resume import (
        ResumePlan, count_cached, describe_counts, plan_resume,
    )
    from .verify import VerifyMismatch, VerifyReport, verify_store

__all__, __getattr__, __dir__ = lazy_exports(__name__, globals(), {
    ".atomic": ("atomic_write_text",),
    ".cache": ("CacheStats", "ResultCache", "code_version", "scenario_key"),
    ".collector": (
        "CollectorError", "ScanResult", "ShardCollector",
        "watch_shards",
    ),
    ".shards": (
        "MergeResult", "ShardConflictError", "ShardFolder",
        "ShardTruncatedError", "canonical_order", "iter_shard_records",
        "matrix_order", "merge_shards", "parse_shard_text",
        "read_shard", "read_shard_tolerant", "write_shard",
    ),
    ".resume": (
        "ResumePlan", "count_cached", "describe_counts", "plan_resume",
    ),
    ".verify": ("VerifyMismatch", "VerifyReport", "verify_store"),
})
