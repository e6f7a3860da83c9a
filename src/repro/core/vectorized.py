"""Vectorized batch BFHRF — the CPU stand-in for the paper's GPU plan.

§IX: "we will explore a GPU implementation ... the massive number of
computations are independent, sequential, and non conditional with the
only roadblock being the collection of results."  The data-parallel
formulation that statement implies is exactly expressible in NumPy:

* the frequency hash becomes two aligned arrays — split keys
  (fixed-width ``uint64`` words) sorted by one ``uint64`` fingerprint
  each (see :mod:`repro.core.table`), and their frequencies;
* a *probe* fingerprints the query rows, runs one batched binary search
  (``np.searchsorted`` on ``uint64``) and confirms each candidate
  against the full key words, column by column — exact like the dict,
  but branch-free and batchable;
* with Q = R the build has already counted every query split, so a
  self-query reads its frequencies straight off the build's grouping
  (``table.counts[rows]``) with no probe at all;
* Algorithm 2's per-tree sums collapse into prefix sums over the
  concatenated batch — the "collection of results" step.

On CPython this trades dict-probe speed for amortized batch throughput;
the ``bench_ablation_backends`` benchmark quantifies the trade, and a
real GPU port would swap ``np`` for ``cupy`` unchanged — which is the
point of writing it this way.
"""

from __future__ import annotations

import time
from collections.abc import Iterable, Sequence

import numpy as np

from repro.bipartitions.scan import SplitBatch
from repro.core.table import BipartitionTable, row_fingerprints
from repro.hashing.bfh import BipartitionFrequencyHash, MaskTransform
from repro.observability.metrics import histogram as _histogram
from repro.observability.spans import trace
from repro.observability.state import enabled as _obs_enabled
from repro.runtime.executor import Executor, get_executor, get_payload
from repro.trees.tree import Tree
from repro.util.errors import CollectionError

__all__ = ["VectorizedBFH", "vectorized_average_rf"]


class VectorizedBFH:
    """Array-backed bipartition frequency table with batched probes.

    Built from a reference collection (or an existing
    :class:`BipartitionFrequencyHash`); scores whole query batches with
    :meth:`average_rf_batch`.

    Examples
    --------
    >>> from repro.newick import trees_from_string
    >>> trees = trees_from_string("((A,B),(C,D));\\n((A,C),(B,D));")
    >>> vbfh = VectorizedBFH.from_trees(trees)
    >>> vbfh.average_rf_batch(trees).tolist()
    [1.0, 1.0]
    """

    __slots__ = ("keys", "freqs", "n_trees", "total", "n_words",
                 "include_trivial", "transform", "salt", "_fingerprints")

    def __init__(self, keys: np.ndarray, freqs: np.ndarray, n_trees: int,
                 total: int, *, include_trivial: bool = False,
                 transform: MaskTransform | None = None, salt: int = 0):
        """Adopt arrays already in probe order, zero-copy.

        Rows must ascend strictly by :func:`row_fingerprints` under
        ``salt`` — the order a :class:`BipartitionTable` (and a
        :class:`~repro.runtime.shm.SharedBFH` segment) holds them in.
        Read-only views are adopted as-is, so shared-memory workers
        never duplicate the table; only the ``U`` key fingerprints are
        computed here.
        """
        if keys.ndim != 2 or keys.shape[0] != freqs.shape[0]:
            raise ValueError("keys must be (U, n_words) aligned with freqs")
        if keys.dtype != np.uint64 or freqs.dtype != np.int64 \
                or not keys.flags.c_contiguous or not freqs.flags.c_contiguous:
            raise ValueError("VectorizedBFH requires contiguous uint64 keys "
                             "and int64 freqs")
        self.keys = keys
        self.freqs = freqs
        self.n_trees = n_trees
        self.total = total
        self.n_words = keys.shape[1]
        self.include_trivial = include_trivial
        self.transform = transform
        self.salt = salt
        self._fingerprints = row_fingerprints(keys, salt)
        if np.any(self._fingerprints[1:] <= self._fingerprints[:-1]):
            raise ValueError(
                f"keys are not in probe order under salt {salt}")

    # -- construction ---------------------------------------------------------

    @classmethod
    def from_bfh(cls, bfh: BipartitionFrequencyHash, n_taxa: int) -> "VectorizedBFH":
        """Convert a dict-backed hash (sorting its keys once)."""
        if bfh.n_trees == 0:
            raise CollectionError("empty hash")
        return cls.from_table(BipartitionTable.from_bfh(bfh, n_taxa),
                              transform=bfh.transform)

    @classmethod
    def from_table(cls, table: BipartitionTable, *,
                   transform: MaskTransform | None = None) -> "VectorizedBFH":
        """Probe a :class:`~repro.core.table.BipartitionTable` zero-copy.

        Table rows are already in this class's probe (fingerprint)
        order, so the arrays are adopted as-is — the table is the one
        canonical array form every layer shares.
        """
        return cls(table.keys, table.counts, table.n_trees, table.total,
                   include_trivial=table.include_trivial, transform=transform,
                   salt=table.salt)

    def table(self, n_taxa: int) -> BipartitionTable:
        """This probe's arrays as a :class:`BipartitionTable` (zero-copy).

        ``n_taxa`` must match the width the keys were packed under — the
        probe itself only remembers ``n_words``.
        """
        return BipartitionTable(self.keys, self.freqs, n_taxa=n_taxa,
                                n_trees=self.n_trees, total=self.total,
                                include_trivial=self.include_trivial,
                                salt=self.salt)

    @classmethod
    def from_trees(cls, trees: Iterable[Tree], *, include_trivial: bool = False,
                   transform: MaskTransform | None = None) -> "VectorizedBFH":
        trees = list(trees)
        if not trees:
            raise CollectionError("reference collection is empty")
        # Keys are sized by the namespace, not the widest stored key:
        # query masks may set higher taxon bits than any reference split.
        batch = SplitBatch.from_trees(trees, include_trivial=include_trivial,
                                      transform=transform)
        return BipartitionTable.from_splits(batch).vectorized(
            transform=transform)

    def __len__(self) -> int:
        return len(self.freqs)

    # -- probes ------------------------------------------------------------------

    def lookup_frequencies(self, words: np.ndarray) -> np.ndarray:
        """Frequencies for an (m, n_words) query block (0 where absent).

        One batched binary search over fingerprints + one word-by-word
        equality check — the branch-free, exact probe.  A fingerprint
        match whose words differ scores 0, like any miss.
        """
        if not _obs_enabled():
            return self._lookup(words)
        t0 = time.perf_counter()
        freqs = self._lookup(words)
        _histogram("vectorized.probe_seconds").observe(time.perf_counter() - t0)
        _histogram("vectorized.probe_keys").observe(float(len(words)))
        return freqs

    def _lookup(self, words: np.ndarray) -> np.ndarray:
        if words.size == 0:
            return np.zeros(0, dtype=np.int64)
        if len(self.keys) == 0:
            # A splitless reference (e.g. all star trees) stores no keys;
            # every probe misses.  The clamp below would index at -1.
            return np.zeros(len(words), dtype=np.int64)
        words = np.asarray(words, dtype=np.uint64)
        if words.shape[1] != self.n_words:
            raise ValueError(f"query rows are {words.shape[1]} words wide, "
                             f"the table's keys {self.n_words}")
        query = row_fingerprints(words, self.salt)
        positions = np.searchsorted(self._fingerprints, query)
        positions = np.minimum(positions, len(self.keys) - 1)
        hit = self._fingerprints[positions] == query
        for key_column, query_column in zip(self.keys.T, words.T):
            hit &= key_column[positions] == query_column
        return np.where(hit, self.freqs[positions], 0)

    def average_rf_batch(self, trees: Sequence[Tree] | SplitBatch
                         ) -> np.ndarray:
        """Average RF for a whole query batch in one vectorized pass.

        ``trees`` is a :class:`SplitBatch` (a scan, or a slice of one) or
        parsed trees, which become one through ``bipartition_masks``.
        Per-split terms for every tree are concatenated and reduced with
        prefix sums — Algorithm 2 with the loop over query trees
        flattened into array ops.
        """
        if self.n_trees == 0:
            raise CollectionError("empty hash; average RF is undefined")
        if not len(trees):
            return np.zeros(0, dtype=np.float64)
        batch = _as_batch(trees, self.include_trivial, self.transform)
        if not _obs_enabled():
            return self._batch(batch)
        t0 = time.perf_counter()
        values = self._batch(batch)
        _histogram("vectorized.batch_seconds").observe(time.perf_counter() - t0)
        return values

    def _batch(self, batch: SplitBatch) -> np.ndarray:
        freqs = self.lookup_frequencies(batch.words_for(self.n_words))
        return _reduce(batch.counts, freqs, self.total, self.n_trees)


def _reduce(counts: np.ndarray, freqs: np.ndarray, total: int,
            n_trees: int) -> np.ndarray:
    """Algorithm 2's per-tree sums from every query split's frequency."""
    offsets = np.zeros(len(counts), dtype=np.int64)
    np.cumsum(counts[:-1], out=offsets[1:])
    # Segment sums via prefix sums rather than reduceat: a tree with
    # no non-trivial splits (a star from multifurcation collapse)
    # yields a zero-length segment, and reduceat's index clamping at
    # the array end silently steals the previous tree's last term.
    prefix = np.concatenate(([0], np.cumsum(freqs)))
    seg_freq = prefix[offsets + counts] - prefix[offsets]
    rf_left = total - seg_freq
    rf_right = counts * n_trees - seg_freq
    return (rf_left + rf_right) / n_trees


def split_table(query: Sequence[Tree] | SplitBatch,
                reference: Sequence[Tree] | SplitBatch | None = None, *,
                include_trivial: bool = False,
                transform: MaskTransform | None = None
                ) -> tuple[BipartitionTable, SplitBatch, np.ndarray | None]:
    """The reference table, the query batch, and — for a self-query —
    each query split's table row.

    Tree collections become :class:`SplitBatch` es through
    ``bipartition_masks`` (``transform`` applied per tree on both
    sources); scans pass through.  With ``reference`` None or the query
    batch itself, one batch feeds the build and *is* the query: the
    build's grouping already holds every query split's row, returned as
    the third item, so :func:`self_query_rf` answers with no probe.
    Otherwise (two batches — tree lists passed as ``(trees, trees)``
    included) the third item is None and the query is probed.
    """
    self_query = reference is None or (
        reference is query and isinstance(query, SplitBatch))
    query = _as_batch(query, include_trivial, transform)
    reference = query if self_query \
        else _as_batch(reference, include_trivial, transform)
    with trace("table.build", r=len(reference)) as span:
        if self_query:
            table, rows = BipartitionTable.from_splits(query,
                                                       return_inverse=True)
        else:
            table = BipartitionTable.from_splits(reference,
                                                 n_taxa=query.n_taxa)
            rows = None
        span.set(unique=len(table))
    return table, query, rows


def self_query_rf(table: BipartitionTable, query: SplitBatch,
                  rows: np.ndarray) -> list[float]:
    """Average RF of a batch against the table built from it (Q = R).

    Every query split's frequency is a gather through the build's rows;
    the reduction is the probe path's own.  No worker fan-out: the
    gather costs less than starting one.
    """
    return _reduce(query.counts, table.counts[rows], table.total,
                   table.n_trees).tolist()


def _as_batch(items, include_trivial: bool, transform) -> SplitBatch:
    if isinstance(items, SplitBatch):
        return items
    return SplitBatch.from_trees(items, include_trivial=include_trivial,
                                 transform=transform)


def _vec_batch_range(bounds: tuple[int, int]) -> list[float]:
    """Fan-out task: score one slice of the query batch against the shared table."""
    batch, vbfh = get_payload()
    if not _obs_enabled():
        return vbfh.average_rf_batch(batch.slice(*bounds)).tolist()
    t0 = time.perf_counter()
    values = vbfh.average_rf_batch(batch.slice(*bounds)).tolist()
    _histogram("vectorized.chunk_seconds").observe(time.perf_counter() - t0)
    return values


def vectorized_average_rf(query: Sequence[Tree] | SplitBatch,
                          reference: Sequence[Tree] | SplitBatch | None = None,
                          *, include_trivial: bool = False,
                          transform: MaskTransform | None = None,
                          n_workers: int = 1,
                          chunk_size: int | None = None,
                          executor: str | Executor | None = None) -> list[float]:
    """Drop-in vectorized counterpart of :func:`repro.core.bfhrf.bfhrf_average_rf`.

    ``query``/``reference`` are parsed trees or :class:`SplitBatch`
    scans (see :func:`split_table`); a self-query is answered from the
    build.  Otherwise, with ``n_workers > 1`` the query batch is probed
    in slices on the resolved executor.  Auto-detection prefers the
    ``thread`` backend here: the probe kernels are NumPy calls that
    release the GIL, so threads parallelize them without pickling or
    forking the frequency table.
    """
    table, query, rows = split_table(query, reference,
                                     include_trivial=include_trivial,
                                     transform=transform)
    if rows is not None:
        return self_query_rf(table, query, rows)
    vbfh = table.vectorized(transform=transform)
    if n_workers <= 1 or len(query) < 2:
        return vbfh.average_rf_batch(query).tolist()
    runner = get_executor(executor, prefer="thread")
    blocks = runner.submit_ranges(_vec_batch_range, len(query), (query, vbfh),
                                  n_workers=n_workers, chunk_size=chunk_size)
    return [v for block in blocks for v in block]
