"""The canonical bipartition table and its pluggable codecs.

The paper's central data structure — a frequency hash over bipartition
bitmasks — used to be materialized four separate times: as a dict
(:mod:`repro.hashing.bfh`), as sorted NumPy arrays
(:mod:`repro.core.vectorized`), as flat shared-memory arrays
(:mod:`repro.runtime.shm`), and as a hand-packed on-disk layout
(:mod:`repro.store.format`).  :class:`BipartitionTable` is the one core
those layers now share: sorted keys + counts (+ optional branch-length
multisets) with ``n_taxa``/``n_words``/``n_trees`` metadata.  The
vectorized backend probes a table's arrays zero-copy, a
:class:`~repro.runtime.shm.SharedBFH` is a table laid out in one
segment, and a store snapshot is a table run through a *codec*.

Two orders, one table
---------------------
Keys live in two total orders:

* **numeric order** — masks ascending as integers.  This is the on-disk
  order (delta compression needs it) and the order
  :meth:`BipartitionTable.sorted_masks` yields.
* **probe order** — rows ascending by one ``uint64`` fingerprint per
  row (:func:`row_fingerprints`: splitmix64 folded over the row's
  words, seeded by the table's ``salt``).  ``keys``/``counts`` are
  stored in this order, so a probe is one ``searchsorted`` over
  fingerprints and a build is one integer argsort — no byte-string
  compares.

Fingerprints only *order* rows; they never decide equality.  Every
build checks, word by word, that each run of equal fingerprints holds
one distinct row, and every probe confirms a fingerprint match against
the full key words, so the table stays exact (the paper's BFH keys on
the whole bitmask).  One-word keys (n ≤ 64) cannot collide: the mixer
is a bijection.  Should two distinct wider keys share a fingerprint,
the build retries with ``salt + 1`` and records the salt it settled
on, so the fingerprints in a table are unique by construction and
every reader — a :class:`~repro.core.vectorized.VectorizedBFH`, a
shared-memory worker — fingerprints with that salt.

``from_counts`` converts numeric → probe once at construction; codecs
convert probe → numeric once at encode.  Exactness is unaffected: both
are total orders over the same multiset.

Codecs
------
A codec turns a table into three byte sections (keys, counts, weights)
and back, registered with capability flags exactly like the method
registry in :mod:`repro.runtime.registry`:

* ``raw-u64`` — today's layout, bit-for-bit: packed little-endian
  64-bit-word keys, ``u64`` counts, ``f64`` weight runs.
* ``succinct-v1`` — per-key shortest-of delta varints (sorted keys share
  long prefixes, so deltas are small) or the reversible gap encoding of
  :mod:`repro.hashing.compression` (small clades beat deltas), plus
  run-length count blocks.  Registered with ``default_write=True``, so
  it is the promoted snapshot write format — the same last-registered
  promotion rule the method registry uses for ``fast_path``.

Every codec decode is exact: the decoded table equals the encoded one
key-for-key and count-for-count (the ``codec-roundtrip`` selfcheck
oracle and the seeded property tests in
``tests/store/test_table_codecs.py`` enforce this across the 64/128-bit
word boundaries, splitless references, and weighted multisets).
"""

from __future__ import annotations

import struct
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.bipartitions.encoding import pack_key, unpack_key, words_for_taxa
from repro.hashing.compression import _decode_varint, _encode_varint, \
    compress_mask, decompress_mask
from repro.observability.metrics import counter as _metric
from repro.observability.state import enabled as _obs_enabled
from repro.util.errors import BipartitionError, CollectionError, \
    StoreCorruptError

__all__ = [
    "BipartitionTable", "TableSections",
    "masks_to_words", "words_to_masks", "row_fingerprints", "probe_order",
    "CodecSpec", "register_codec", "get_codec", "codec_by_tag",
    "codec_names", "codecs", "default_codec_name",
]

_WORD_BITS = 64


# ---------------------------------------------------------------------------
# Word packing (array form). The byte form lives in bipartitions.encoding.
# ---------------------------------------------------------------------------

def masks_to_words(masks: Sequence[int], n_words: int) -> np.ndarray:
    """Pack arbitrary-precision masks into an ``(m, n_words)`` uint64 array.

    Word 0 is the *most significant*, so lexicographic order of rows
    equals numeric order of masks.  Each mask becomes ``8 * n_words``
    big-endian bytes appended to one buffer (no per-mask objects stay
    alive), which is read as ``>u8`` words in one NumPy call.
    """
    width = 8 * n_words
    blob = bytearray()
    try:
        for mask in masks:
            blob += mask.to_bytes(width, "big")
    except OverflowError:
        # Refuse to truncate: a dropped high word would make distinct
        # splits collide silently — the worst failure class here.
        bad = next(m for m in masks if m < 0 or m >> (_WORD_BITS * n_words))
        raise ValueError(
            f"mask {bad:#x} does not fit in {n_words} words") from None
    words = np.frombuffer(blob, dtype=">u8").astype(np.uint64)
    return words.reshape(len(masks), n_words)


def words_to_masks(keys: np.ndarray) -> list[int]:
    """Inverse of :func:`masks_to_words`: rows back to Python ints."""
    width = 8 * keys.shape[1]
    blob = memoryview(np.ascontiguousarray(keys, dtype=">u8").tobytes())
    return [int.from_bytes(blob[i:i + width], "big")
            for i in range(0, len(blob), width)]


# The splitmix64 finalizer's shifts and multipliers.
_MIX_SHIFTS = (np.uint64(30), np.uint64(27), np.uint64(31))
_MIX_MULTIPLIERS = (np.uint64(0xBF58476D1CE4E5B9),
                    np.uint64(0x94D049BB133111EB))


def _mix(h: np.ndarray) -> np.ndarray:
    """The splitmix64 finalizer, in place: a bijection on ``uint64``."""
    h ^= h >> _MIX_SHIFTS[0]
    h *= _MIX_MULTIPLIERS[0]
    h ^= h >> _MIX_SHIFTS[1]
    h *= _MIX_MULTIPLIERS[1]
    h ^= h >> _MIX_SHIFTS[2]
    return h


def row_fingerprints(keys: np.ndarray, salt: int) -> np.ndarray:
    """One ``uint64`` per ``(m, n_words)`` row: ``h = mix(h ^ word)``
    over the row's words, starting from ``salt``.

    Rows must be at the width of the table they are compared with (a
    query is fitted first, as :meth:`SplitBatch.words_for` does): the
    fingerprint of a row depends on its leading zero words.
    """
    h = np.full(len(keys), salt, dtype=np.uint64)
    for column in keys.T:
        h = _mix(h ^ column)
    return h


class _Grouping(NamedTuple):
    """Rows grouped by fingerprint: what every table build starts from."""

    salt: int
    order: np.ndarray    # argsort of the rows by fingerprint
    new_run: np.ndarray  # sorted row i differs from sorted row i - 1


def _group_rows(keys: np.ndarray) -> _Grouping:
    """Sort rows by fingerprint and check each run holds one distinct row.

    The check is exact: neighbours in the sorted order with equal
    fingerprints are compared word by word, one column at a time (so
    the build's temporaries stay a few row-length vectors).  Two
    distinct rows under one fingerprint fail it, and the rows are
    fingerprinted again with the next salt — so in the result, equal
    fingerprints mean equal rows.
    """
    salt = 0
    while True:
        fingerprints = row_fingerprints(keys, salt)
        order = np.argsort(fingerprints)
        fingerprints = fingerprints[order]
        new_run = np.ones(len(keys), dtype=bool)
        np.not_equal(fingerprints[1:], fingerprints[:-1], out=new_run[1:])
        del fingerprints
        repeat = ~new_run[1:]
        for column in keys.T:
            ordered = column[order]
            if np.any((ordered[1:] != ordered[:-1]) & repeat):
                break
        else:
            return _Grouping(salt, order, new_run)
        salt += 1


def probe_order(keys: np.ndarray) -> np.ndarray:
    """Argsort of rows into the probe order a table built from them uses."""
    return _group_rows(keys).order


class BipartitionTable:
    """Sorted bipartition keys + counts (+ weights) with metadata.

    ``keys`` is ``(U, n_words)`` uint64 in probe order — ascending
    :func:`row_fingerprints` under ``salt``; ``counts`` is ``(U,)``
    int64 aligned with it.  ``weights`` — present only for weighted
    tables — maps each mask to its sorted branch-length multiset (the
    store's exact-removal representation).

    Construct with :meth:`from_splits` (one fingerprint sort over a
    split batch — the batch path), :meth:`from_counts` /
    :meth:`from_bfh` (sorts once), or directly with arrays already in
    probe order under ``salt`` (zero-copy adoption — the shared-memory
    path).
    """

    __slots__ = ("keys", "counts", "weights", "n_taxa", "n_words",
                 "n_trees", "total", "include_trivial", "salt")

    def __init__(self, keys: np.ndarray, counts: np.ndarray, *, n_taxa: int,
                 n_trees: int, total: int, include_trivial: bool = False,
                 weights: dict[int, list[float]] | None = None,
                 salt: int = 0):
        if keys.ndim != 2 or keys.shape[0] != counts.shape[0]:
            raise ValueError("keys must be (U, n_words) aligned with counts")
        if keys.dtype != np.uint64 or counts.dtype != np.int64 \
                or not keys.flags.c_contiguous or not counts.flags.c_contiguous:
            raise ValueError("BipartitionTable requires contiguous uint64 "
                             "keys and int64 counts (probe order)")
        if keys.shape[1] != words_for_taxa(n_taxa):
            raise ValueError(
                f"key width {keys.shape[1]} words does not match "
                f"{n_taxa} taxa")
        self.keys = keys
        self.counts = counts
        self.weights = weights
        self.n_taxa = n_taxa
        self.n_words = keys.shape[1]
        self.n_trees = n_trees
        self.total = total
        self.include_trivial = include_trivial
        self.salt = salt

    # -- construction ---------------------------------------------------------

    @classmethod
    def from_counts(cls, counts: dict[int, int], *, n_taxa: int,
                    n_trees: int, total: int | None = None,
                    include_trivial: bool = False,
                    weights: dict[int, list[float]] | None = None
                    ) -> "BipartitionTable":
        """Build from a frequency dict (one probe-order sort)."""
        keys = masks_to_words(list(counts), words_for_taxa(n_taxa))
        freqs = np.fromiter(counts.values(), dtype=np.int64,
                            count=len(counts))
        grouping = _group_rows(keys)
        if weights is not None:
            weights = {mask: sorted(lengths)
                       for mask, lengths in weights.items()}
        return cls(np.ascontiguousarray(keys[grouping.order]),
                   np.ascontiguousarray(freqs[grouping.order]),
                   n_taxa=n_taxa, n_trees=n_trees,
                   total=sum(counts.values()) if total is None else total,
                   include_trivial=include_trivial, weights=weights,
                   salt=grouping.salt)

    @classmethod
    def from_bfh(cls, bfh, n_taxa: int) -> "BipartitionTable":
        """Wrap a dict-backed :class:`BipartitionFrequencyHash`."""
        return cls.from_counts(bfh.counts, n_taxa=n_taxa,
                               n_trees=bfh.n_trees, total=bfh.total,
                               include_trivial=bfh.include_trivial)

    @classmethod
    def from_splits(cls, batch, *, n_taxa: int | None = None,
                    return_inverse: bool = False):
        """Build from a :class:`~repro.bipartitions.scan.SplitBatch`.

        One fingerprint argsort groups the batch's word rows: each run
        of equal fingerprints is one key (checked word by word, see
        :func:`_group_rows`) and its length is the key's frequency — no
        frequency dict and no second sort.  The batch's per-tree splits
        are distinct, so a key's count is the number of trees holding
        it.  ``n_taxa`` widens keys past the batch's own width.

        With ``return_inverse`` the result is ``(table, rows)``, where
        ``rows[i]`` is the table index of the batch's split ``i`` — so
        ``table.counts[rows]`` is every split's frequency with no probe.
        """
        if not len(batch):
            raise CollectionError(
                "reference collection is empty; average RF is undefined")
        n_taxa = max(batch.n_taxa, n_taxa or 0)
        words = batch.words_for(words_for_taxa(n_taxa))
        grouping = _group_rows(words)
        starts = np.flatnonzero(grouping.new_run)
        freqs = np.diff(np.append(starts, len(words)))
        if _obs_enabled():
            _metric("table.splits_counted").inc(len(words))
        table = cls(np.ascontiguousarray(words[grouping.order[starts]]),
                    freqs.astype(np.int64, copy=False), n_taxa=n_taxa,
                    n_trees=len(batch), total=len(words),
                    include_trivial=batch.include_trivial,
                    salt=grouping.salt)
        if not return_inverse:
            return table
        run_ids = np.cumsum(grouping.new_run)
        run_ids -= 1
        rows = np.empty(len(words), dtype=np.intp)
        rows[grouping.order] = run_ids
        return table, rows

    # -- views ----------------------------------------------------------------

    @property
    def weighted(self) -> bool:
        return self.weights is not None

    def __len__(self) -> int:
        return len(self.counts)

    def masks(self) -> list[int]:
        """Masks as Python ints in row (probe) order."""
        return words_to_masks(self.keys)

    def sorted_masks(self) -> list[int]:
        """Masks ascending numerically — the codec/on-disk order."""
        return sorted(self.masks())

    def sorted_items(self) -> Iterator[tuple[int, int]]:
        """``(mask, count)`` pairs in ascending numeric mask order."""
        counts = self.to_counts()
        for mask in sorted(counts):
            yield mask, counts[mask]

    def to_counts(self) -> dict[int, int]:
        """The frequency dict (the store's in-memory overlay form)."""
        return {mask: int(freq)
                for mask, freq in zip(self.masks(), self.counts)}

    def to_bfh(self):
        """Materialize as a dict-backed hash (verification aid)."""
        from repro.hashing.bfh import BipartitionFrequencyHash

        return BipartitionFrequencyHash.from_counts(
            self.to_counts(), self.n_trees, total=self.total,
            include_trivial=self.include_trivial)

    def vectorized(self, *, transform=None):
        """A :class:`~repro.core.vectorized.VectorizedBFH` probing this
        table's arrays zero-copy (no re-sort, no copy)."""
        from repro.core.vectorized import VectorizedBFH

        return VectorizedBFH.from_table(self, transform=transform)

    def same_contents(self, other: "BipartitionTable") -> bool:
        """Exact content equality (metadata + keys + counts + weights)."""
        return (self.n_taxa == other.n_taxa
                and self.n_words == other.n_words
                and self.n_trees == other.n_trees
                and self.total == other.total
                and self.include_trivial == other.include_trivial
                and np.array_equal(self.keys, other.keys)
                and np.array_equal(self.counts, other.counts)
                and self.weights == other.weights)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"BipartitionTable(keys={len(self)}, words={self.n_words}, "
                f"taxa={self.n_taxa}, trees={self.n_trees}, "
                f"weighted={self.weighted})")


# ---------------------------------------------------------------------------
# Codec registry.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TableSections:
    """One encoded table: the three on-disk byte sections of a snapshot."""

    keys: bytes
    counts: bytes
    weights: bytes

    @property
    def nbytes(self) -> int:
        return len(self.keys) + len(self.counts) + len(self.weights)


@dataclass(frozen=True)
class CodecSpec:
    """One registered table codec and what it can do.

    Attributes
    ----------
    name:
        The string users and the CLI pass (``--snapshot-format``).
    tag:
        The ``u16`` codec identifier written into v2 snapshot headers.
        Tags are forever: a reader maps tag → codec for any snapshot it
        will ever meet, so a registered tag must never be reused.
    encoder / decoder:
        ``encoder(table) -> TableSections`` and
        ``decoder(sections, *, n_taxa, entries, weighted,
        include_trivial, n_trees, total) -> BipartitionTable``.
        Decoding malformed bytes raises
        :class:`~repro.util.errors.StoreCorruptError` — loud, never a
        silently wrong table.
    estimator:
        ``estimator(table) -> int`` projected encoded byte size, without
        writing anything (``store info`` shows the compression win
        before a migrate).
    supports_weighted:
        Whether the codec can carry branch-length multisets.
    default_write:
        Promotion flag: the most recently registered codec with
        ``default_write=True`` is what new snapshots are written with
        (same rule as the method registry's ``fast_path``).
    """

    name: str
    tag: int
    encoder: Callable[[BipartitionTable], TableSections]
    decoder: Callable[..., BipartitionTable]
    estimator: Callable[[BipartitionTable], int]
    summary: str
    supports_weighted: bool = True
    default_write: bool = False

    def encode(self, table: BipartitionTable) -> TableSections:
        if table.weighted and not self.supports_weighted:
            raise ValueError(
                f"codec {self.name!r} does not support weighted tables")
        return self.encoder(table)

    def decode(self, sections: TableSections, **meta) -> BipartitionTable:
        return self.decoder(sections, **meta)

    def estimated_bytes(self, table: BipartitionTable) -> int:
        return self.estimator(table)


_REGISTRY: dict[str, CodecSpec] = {}


def register_codec(name: str, *, tag: int, encoder, decoder, estimator,
                   summary: str, supports_weighted: bool = True,
                   default_write: bool = False) -> CodecSpec:
    """Register a table codec; returns its :class:`CodecSpec`.

    Re-registering a *name* replaces the previous entry (reload
    idempotence), but a tag collision with a different name is an error
    — on-disk tags are permanent.
    """
    for spec in _REGISTRY.values():
        if spec.tag == tag and spec.name != name:
            raise ValueError(
                f"codec tag {tag} is already taken by {spec.name!r}")
    spec = CodecSpec(name=name, tag=tag, encoder=encoder, decoder=decoder,
                     estimator=estimator, summary=summary,
                     supports_weighted=supports_weighted,
                     default_write=default_write)
    _REGISTRY[name] = spec
    return spec


def get_codec(name: str) -> CodecSpec:
    spec = _REGISTRY.get(name)
    if spec is None:
        raise ValueError(f"unknown codec {name!r}; expected one of "
                         f"{', '.join(sorted(_REGISTRY))}")
    return spec


def codec_by_tag(tag: int) -> CodecSpec:
    for spec in _REGISTRY.values():
        if spec.tag == tag:
            return spec
    raise StoreCorruptError(f"snapshot carries unknown codec tag {tag}")


def codec_names() -> tuple[str, ...]:
    return tuple(_REGISTRY)


def codecs() -> tuple[CodecSpec, ...]:
    return tuple(_REGISTRY.values())


def default_codec_name() -> str:
    """The codec new snapshots are written with (last default_write wins)."""
    chosen = "raw-u64"
    for spec in _REGISTRY.values():
        if spec.default_write:
            chosen = spec.name
    return chosen


# ---------------------------------------------------------------------------
# Shared section helpers.
# ---------------------------------------------------------------------------

def _encode_weight_runs(table: BipartitionTable) -> bytes:
    """Per-key sorted f64 branch-length runs, ascending key order.

    Identical bytes in both codecs (floats must round-trip exactly, so
    there is nothing lossless-and-simple to squeeze out of them); the
    keys/counts sections are where the codecs differ.
    """
    if table.weights is None:
        return b""
    parts = []
    for mask, count in table.sorted_items():
        run = sorted(table.weights.get(mask, ()))
        if len(run) != count:
            raise StoreCorruptError(
                f"split {mask:#x}: {len(run)} weights for frequency {count}")
        parts.append(struct.pack(f"<{len(run)}d", *run))
    return b"".join(parts)


def _decode_weight_runs(blob: bytes, masks: list[int],
                        freqs: list[int]) -> dict[int, list[float]]:
    weights: dict[int, list[float]] = {}
    offset = 0
    for mask, freq in zip(masks, freqs):
        end = offset + freq * 8
        if end > len(blob):
            raise StoreCorruptError("weight section is truncated")
        weights[mask] = list(struct.unpack_from(f"<{freq}d", blob, offset))
        offset = end
    if offset != len(blob):
        raise StoreCorruptError(
            f"weight section has {len(blob) - offset} trailing bytes")
    return weights


def _check_ascending(masks: list[int]) -> None:
    if any(b <= a for a, b in zip(masks, masks[1:])):
        raise StoreCorruptError("snapshot keys are not strictly ascending")


def _build_decoded(masks: list[int], freqs: list[int],
                   weights_blob: bytes, *, n_taxa: int, weighted: bool,
                   include_trivial: bool, n_trees: int,
                   total: int | None) -> BipartitionTable:
    _check_ascending(masks)
    weights = None
    if weighted:
        weights = _decode_weight_runs(weights_blob, masks, freqs)
    elif weights_blob:
        raise StoreCorruptError(
            "unweighted snapshot carries a weight section")
    counts = dict(zip(masks, freqs))
    return BipartitionTable.from_counts(
        counts, n_taxa=n_taxa, n_trees=n_trees, total=total,
        include_trivial=include_trivial, weights=weights)


# ---------------------------------------------------------------------------
# raw-u64: today's layout, bit-for-bit.
# ---------------------------------------------------------------------------

def _raw_encode(table: BipartitionTable) -> TableSections:
    n_words = table.n_words
    items = list(table.sorted_items())
    keys = b"".join(pack_key(mask, n_words) for mask, _ in items)
    counts = struct.pack(f"<{len(items)}Q", *(c for _, c in items))
    return TableSections(keys=keys, counts=counts,
                         weights=_encode_weight_runs(table))


def _raw_decode(sections: TableSections, *, n_taxa: int, entries: int,
                weighted: bool, include_trivial: bool, n_trees: int = 0,
                total: int | None = None) -> BipartitionTable:
    key_bytes = words_for_taxa(n_taxa) * 8
    if len(sections.keys) != entries * key_bytes:
        raise StoreCorruptError(
            f"raw-u64 key section is {len(sections.keys)} bytes, expected "
            f"{entries * key_bytes}")
    if len(sections.counts) != entries * 8:
        raise StoreCorruptError(
            f"raw-u64 count section is {len(sections.counts)} bytes, "
            f"expected {entries * 8}")
    masks = [unpack_key(sections.keys[i * key_bytes:(i + 1) * key_bytes])
             for i in range(entries)]
    freqs = list(struct.unpack(f"<{entries}Q", sections.counts))
    return _build_decoded(masks, freqs, sections.weights, n_taxa=n_taxa,
                          weighted=weighted, include_trivial=include_trivial,
                          n_trees=n_trees, total=total)


def _raw_estimate(table: BipartitionTable) -> int:
    size = len(table) * (table.n_words * 8 + 8)
    if table.weighted:
        size += 8 * int(table.counts.sum())
    return size


# ---------------------------------------------------------------------------
# succinct-v1: delta/gap-compressed keys + run-length count blocks.
# ---------------------------------------------------------------------------

_DELTA = 0x00      # varint(mask - prev_mask) follows
_COMPRESSED = 0x01  # varint(length) + compression.compress_mask blob follows


def _succinct_encode_keys(masks: list[int], n_taxa: int) -> bytes:
    leaf_mask = (1 << max(1, n_taxa)) - 1
    out = bytearray()
    prev = -1
    for mask in masks:
        delta = bytearray()
        _encode_varint(mask - prev, delta)
        framed = None
        if 0 <= mask <= leaf_mask:
            # Gap compression is leaf-set-relative; a mask above the
            # declared taxon count (wider table than namespace) still
            # encodes exactly via the delta arm.
            blob = compress_mask(mask, leaf_mask)
            framed = bytearray()
            _encode_varint(len(blob), framed)
            framed.extend(blob)
        if framed is None or len(delta) <= len(framed):
            out.append(_DELTA)
            out.extend(delta)
        else:
            out.append(_COMPRESSED)
            out.extend(framed)
        prev = mask
    return bytes(out)


def _succinct_decode_keys(blob: bytes, entries: int,
                          n_taxa: int) -> list[int]:
    leaf_mask = (1 << max(1, n_taxa)) - 1
    masks: list[int] = []
    prev = -1
    offset = 0
    try:
        for _ in range(entries):
            if offset >= len(blob):
                raise StoreCorruptError("succinct key section is truncated")
            tag = blob[offset]
            offset += 1
            if tag == _DELTA:
                delta, offset = _decode_varint(blob, offset)
                mask = prev + delta
            elif tag == _COMPRESSED:
                length, offset = _decode_varint(blob, offset)
                end = offset + length
                if end > len(blob):
                    raise StoreCorruptError(
                        "succinct key section is truncated")
                mask = decompress_mask(blob[offset:end], leaf_mask)
                offset = end
            else:
                raise StoreCorruptError(
                    f"succinct key section has unknown tag {tag:#x}")
            if mask <= prev:
                raise StoreCorruptError(
                    "succinct keys are not strictly ascending")
            masks.append(mask)
            prev = mask
    except BipartitionError as exc:
        raise StoreCorruptError(
            f"succinct key section is malformed ({exc})") from exc
    if offset != len(blob):
        raise StoreCorruptError(
            f"succinct key section has {len(blob) - offset} trailing bytes")
    return masks


def _succinct_encode_counts(freqs: list[int]) -> bytes:
    out = bytearray()
    i = 0
    while i < len(freqs):
        value = freqs[i]
        run = 1
        while i + run < len(freqs) and freqs[i + run] == value:
            run += 1
        _encode_varint(value, out)
        _encode_varint(run, out)
        i += run
    return bytes(out)


def _succinct_decode_counts(blob: bytes, entries: int) -> list[int]:
    freqs: list[int] = []
    offset = 0
    try:
        while len(freqs) < entries:
            if offset >= len(blob):
                raise StoreCorruptError(
                    "succinct count section is truncated")
            value, offset = _decode_varint(blob, offset)
            run, offset = _decode_varint(blob, offset)
            if value <= 0 or run <= 0 or len(freqs) + run > entries:
                raise StoreCorruptError(
                    "succinct count section has an invalid run")
            freqs.extend([value] * run)
    except BipartitionError as exc:
        raise StoreCorruptError(
            f"succinct count section is malformed ({exc})") from exc
    if offset != len(blob):
        raise StoreCorruptError(
            f"succinct count section has {len(blob) - offset} trailing bytes")
    return freqs


def _succinct_encode(table: BipartitionTable) -> TableSections:
    items = list(table.sorted_items())
    return TableSections(
        keys=_succinct_encode_keys([m for m, _ in items], table.n_taxa),
        counts=_succinct_encode_counts([c for _, c in items]),
        weights=_encode_weight_runs(table))


def _succinct_decode(sections: TableSections, *, n_taxa: int, entries: int,
                     weighted: bool, include_trivial: bool, n_trees: int = 0,
                     total: int | None = None) -> BipartitionTable:
    masks = _succinct_decode_keys(sections.keys, entries, n_taxa)
    freqs = _succinct_decode_counts(sections.counts, entries)
    return _build_decoded(masks, freqs, sections.weights, n_taxa=n_taxa,
                          weighted=weighted, include_trivial=include_trivial,
                          n_trees=n_trees, total=total)


def _succinct_estimate(table: BipartitionTable) -> int:
    sections = _succinct_encode(table)
    return sections.nbytes


register_codec(
    "raw-u64", tag=1,
    encoder=_raw_encode, decoder=_raw_decode, estimator=_raw_estimate,
    summary="fixed-width little-endian 64-bit-word keys and u64 counts "
            "(the v1 snapshot sections, bit-for-bit)")
register_codec(
    "succinct-v1", tag=2,
    encoder=_succinct_encode, decoder=_succinct_decode,
    estimator=_succinct_estimate,
    summary="shortest-of delta-varint / reversible-gap keys with "
            "run-length count blocks",
    default_write=True)
