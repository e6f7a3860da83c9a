"""Newick text straight to split words — no ``Tree``, no ``Node``.

Average RF needs, per tree, only its normalized split masks and its leaf
mask.  Building a pointer tree to get them cost ~75% of an Insect-scale
batch call, so :func:`scan_newick_text` / :func:`scan_newick_file` walk
the text once with an int stack instead (a group's split is the OR of
its leaf bits) and return a :class:`SplitBatch`: per-tree split counts,
per-tree leaf masks and one packed ``uint64`` word block.  The batch is
the one input of the vectorized kernel —
:meth:`~repro.core.table.BipartitionTable.from_splits` builds a table
from it and :meth:`~repro.core.vectorized.VectorizedBFH.average_rf_batch`
probes it — so with ``Q is R`` one scan feeds both.

The scanner accepts exactly the records
:func:`~repro.newick.io.iter_newick_strings` +
:func:`~repro.newick.parser.parse_newick` accept, binds labels into the
namespace in the same first-seen order, and yields the splits
:func:`~repro.bipartitions.extract.bipartition_masks` yields.  A record
it rejects is handed to ``parse_newick``, so the error raised is the
parser's own (same class, same message, same namespace state), with the
record context :func:`~repro.newick.io.iter_newick_file` adds.  The
``scan-parity`` selfcheck oracle and ``tests/bipartitions/test_scan.py``
hold the two paths to identical results.
"""

from __future__ import annotations

import os
import re
from collections.abc import Iterable, Sequence

import numpy as np

from repro.bipartitions.encoding import words_for_taxa
from repro.bipartitions.extract import bipartition_masks
from repro.newick.io import open_tree_file
from repro.newick.parser import parse_newick
from repro.observability.metrics import counter as _metric
from repro.observability.state import enabled as _obs_enabled
from repro.trees.taxon import TaxonNamespace
from repro.trees.tree import Tree
from repro.util.errors import NewickParseError, TaxonError

__all__ = ["SplitBatch", "scan_newick_text", "scan_newick_file"]


class SplitBatch:
    """Per-tree split words of a collection: the vectorized kernel's input.

    ``words`` is ``(S, n_words)`` ``uint64`` (word 0 most significant):
    tree 0's splits, then tree 1's, and so on.  ``counts[i]`` is tree
    ``i``'s split count and ``leaf_masks[i]`` its taxa.  The splits
    already reflect the ``include_trivial`` choice and any transform
    they were made with.  ``n_taxa`` is the namespace size the words
    were packed under.
    """

    __slots__ = ("words", "counts", "leaf_masks", "n_taxa", "include_trivial")

    def __init__(self, words: np.ndarray, counts: np.ndarray,
                 leaf_masks: list[int], *, n_taxa: int,
                 include_trivial: bool = False):
        self.words = words
        self.counts = counts
        self.leaf_masks = leaf_masks
        self.n_taxa = n_taxa
        self.include_trivial = include_trivial

    @classmethod
    def from_trees(cls, trees: Iterable[Tree], *,
                   include_trivial: bool = False, transform=None,
                   n_taxa: int | None = None) -> "SplitBatch":
        """The batch of parsed trees, through :func:`bipartition_masks`.

        ``transform`` is applied per tree exactly as the dict hash
        applies it.  ``n_taxa`` defaults to the first tree's namespace.
        """
        trees = list(trees)
        flat: list[int] = []
        counts, leaf_masks = [], []
        for tree in trees:
            masks = bipartition_masks(tree, include_trivial=include_trivial)
            leaf_mask = tree.leaf_mask()
            if transform is not None:
                masks = list(transform(masks, leaf_mask))
            flat.extend(masks)
            counts.append(len(masks))
            leaf_masks.append(leaf_mask)
        if n_taxa is None:
            n_taxa = len(trees[0].taxon_namespace) if trees else 1
        return _packed(flat, counts, leaf_masks, n_taxa, include_trivial)

    @classmethod
    def concat(cls, batches: Sequence["SplitBatch"]) -> "SplitBatch":
        """One batch holding ``batches`` in order, at the widest width."""
        n_taxa = max(batch.n_taxa for batch in batches)
        n_words = words_for_taxa(n_taxa)
        return cls(np.concatenate([b.words_for(n_words) for b in batches]),
                   np.concatenate([b.counts for b in batches]),
                   [mask for b in batches for mask in b.leaf_masks],
                   n_taxa=n_taxa,
                   include_trivial=batches[0].include_trivial)

    def __len__(self) -> int:
        return len(self.counts)

    def words_for(self, n_words: int) -> np.ndarray:
        """The word block at ``n_words`` width.

        Widening prepends zero high words; narrowing drops high words
        only when every split leaves them empty.
        """
        have = self.words.shape[1]
        if n_words == have:
            return self.words
        if n_words > have:
            out = np.zeros((len(self.words), n_words), dtype=np.uint64)
            out[:, n_words - have:] = self.words
            return out
        if self.words[:, :have - n_words].any():
            raise ValueError(
                f"split batch uses taxa beyond {n_words} words")
        return np.ascontiguousarray(self.words[:, have - n_words:])

    def slice(self, lo: int, hi: int) -> "SplitBatch":
        """Trees ``[lo:hi]`` as a batch viewing this one's words."""
        start = int(self.counts[:lo].sum())
        stop = start + int(self.counts[lo:hi].sum())
        return SplitBatch(self.words[start:stop], self.counts[lo:hi],
                          self.leaf_masks[lo:hi], n_taxa=self.n_taxa,
                          include_trivial=self.include_trivial)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"SplitBatch(trees={len(self)}, splits={len(self.words)}, "
                f"words={self.words.shape[1]}, taxa={self.n_taxa})")


def _packed(flat: list[int], counts: list[int], leaf_masks: list[int],
            n_taxa: int, include_trivial: bool) -> SplitBatch:
    # Deferred import: repro.core imports this module.
    from repro.core.table import masks_to_words

    n_taxa = max(1, n_taxa)
    return SplitBatch(masks_to_words(flat, words_for_taxa(n_taxa)),
                      np.array(counts, dtype=np.int64), leaf_masks,
                      n_taxa=n_taxa, include_trivial=include_trivial)


# ---------------------------------------------------------------------------
# Record splitting: the records iter_newick_strings yields, by position.
# ---------------------------------------------------------------------------

_NON_SPACE = re.compile(r"\S")          # \s is str.isspace(), as strip() uses
_RECORD_STOP = re.compile(r"[;'\[]")


def _split_records(text: str) -> tuple[list[str], bool]:
    """``(records, complete)``: the ``;``-terminated records of ``text``.

    Same records as :func:`~repro.newick.io.iter_newick_strings` over
    ``text``'s lines: quotes and comments may hold ``;``, and a line whose
    first non-space character is ``#`` is skipped when it starts at a
    record boundary.  ``complete`` is false when non-space text is left
    without a terminating ``;``.
    """
    records: list[str] = []
    pos, line_start = 0, True
    while True:
        found = _NON_SPACE.search(text, pos)
        if found is None:
            return records, True
        start = found.start()
        if text[start] == "#" and (line_start
                                   or text.find("\n", pos, start) >= 0):
            end = text.find("\n", start)
            if end < 0:
                return records, True
            pos, line_start = end + 1, True
            continue
        j = start
        while True:
            stop = _RECORD_STOP.search(text, j)
            if stop is None:
                return records, False
            k = stop.start()
            ch = text[k]
            if ch == ";":
                break
            close = text.find("'" if ch == "'" else "]", k + 1)
            if close < 0:
                return records, False
            j = close + 1
        records.append(text[start:k + 1])
        pos, line_start = k + 1, False


# ---------------------------------------------------------------------------
# Tokens: structural kinds as small ints, labels as their decoded strings.
# ---------------------------------------------------------------------------

_LP, _RP, _COMMA, _SEMI, _COLON, _ERR = range(6)
_KIND = {"(": _LP, ")": _RP, ",": _COMMA, ";": _SEMI, ":": _COLON}
# The lexer's dialect: structure, unquoted label, quoted label with ''
# escapes (possessive, so an unterminated one falls through to "."),
# comment, whitespace; "." catches the lexer's error characters.
_TOKEN = re.compile(
    r"[(),;:]|[^(),;:'\[\] \t\r\n]+|'(?:[^']|'')*+'|\[[^\]]*\]"
    r"|[ \t\r\n]+|.", re.S)
# First characters of the tokens that are not plain labels.
_NOT_LABEL = frozenset("'[] \t\r\n")


def _tokens(record: str) -> list:
    out: list = []
    append = out.append
    for tok in _TOKEN.findall(record):
        kind = _KIND.get(tok)
        if kind is not None:
            append(kind)
        elif tok[0] not in _NOT_LABEL:
            append(tok)
        elif tok[0] == "'":
            append(tok[1:-1].replace("''", "'") if len(tok) > 1 else _ERR)
        elif tok == "[" or tok == "]":  # unterminated comment, stray "]"
            append(_ERR)
        # else: a comment or whitespace, which the lexer skips
    return out


# ---------------------------------------------------------------------------
# The scan: parse_newick's state machine over an int stack.
# ---------------------------------------------------------------------------

class _Reject(Exception):
    """The record is not one parse_newick accepts."""


def _bind(label: str, bits: dict[str, int], ns: TaxonNamespace) -> int:
    try:
        bit = 1 << ns.require(label).index
    except TaxonError:
        raise _Reject from None
    bits[label] = bit
    return bit


def _check_length(tok) -> None:
    if tok.__class__ is not str:
        raise _Reject
    try:
        float(tok)
    except ValueError:
        raise _Reject from None


def _record_splits(toks: list, bits: dict[str, int], ns: TaxonNamespace,
                   trivial: bool) -> tuple[int, list[int]]:
    """``(leaf_mask, raw edge masks)`` of one tokenized record.

    Raw masks are the taxa below every non-root group (and every leaf
    when ``trivial``).  Mirrors ``parse_newick`` token for token; a new
    label is bound only where the parser would bind it (after the next
    token lexes cleanly).
    """
    if toks[-1] != _SEMI:
        raise _Reject
    tok = toks[0]
    if tok != _LP:                       # a bare leaf, "A;"
        if tok.__class__ is not str or toks[1] == _ERR:
            raise _Reject
        leaf = bits.get(tok) or _bind(tok, bits, ns)
        i = 1
        if toks[1] == _COLON:
            _check_length(toks[2])
            i = 3
        if toks[i] != _SEMI:
            raise _Reject
        return leaf, []
    raw: list[int] = []
    push = raw.append
    stack: list[int] = []
    acc = seen = 0
    i = 1
    expect_subtree = True
    while True:
        tok = toks[i]
        i += 1
        if expect_subtree:
            if tok.__class__ is str:
                bit = bits.get(tok)
                if bit is None:
                    if toks[i] == _ERR:
                        raise _Reject
                    bit = _bind(tok, bits, ns)
                if seen & bit:
                    raise _Reject        # duplicate taxon
                seen |= bit
                acc |= bit
                if trivial:
                    push(bit)
                if toks[i] == _COLON:
                    _check_length(toks[i + 1])
                    i += 2
                expect_subtree = False
            elif tok == _LP:
                stack.append(acc)
                acc = 0
            else:
                raise _Reject
        elif tok == _COMMA:
            expect_subtree = True
        elif tok == _RP:
            tok = toks[i]
            if tok.__class__ is str:     # internal label
                i += 1
                tok = toks[i]
            if tok == _COLON:
                _check_length(toks[i + 1])
                i += 2
            if not stack:
                if toks[i] != _SEMI:
                    raise _Reject
                return seen, raw
            push(acc)
            acc |= stack.pop()
        else:
            raise _Reject


def _raise_parse_error(record: str, ns: TaxonNamespace, number: int,
                       source: str | None) -> None:
    """Raise the error ``parse_newick`` raises for a rejected record."""
    try:
        parse_newick(record, ns)
    except NewickParseError as exc:
        if source is None:
            raise
        raise NewickParseError(
            f"in {source}, tree record {number}: {exc}") from exc
    raise NewickParseError(
        f"scanner rejected a record the parser accepts: {record!r}")


def _scan(text: str, namespace: TaxonNamespace | None, *,
          include_trivial: bool, transform, source: str | None
          ) -> SplitBatch:
    ns = namespace if namespace is not None else TaxonNamespace()
    records, complete = _split_records(text)
    bits = {taxon.label: 1 << taxon.index for taxon in ns}
    flat: list[int] = []
    extend = flat.extend
    counts: list[int] = []
    leaf_masks: list[int] = []
    for number, record in enumerate(records, start=1):
        try:
            leaf_mask, raw = _record_splits(_tokens(record), bits, ns,
                                            include_trivial)
        except _Reject:
            _raise_parse_error(record, ns, number, source)
        anchor = leaf_mask & -leaf_mask
        if include_trivial:
            splits = {m if m & anchor else m ^ leaf_mask
                      for m in raw if m != leaf_mask}
        else:
            hi = leaf_mask.bit_count() - 2
            splits = {m if m & anchor else m ^ leaf_mask
                      for m in raw if 2 <= m.bit_count() <= hi}
        if transform is not None:
            splits = list(transform(splits, leaf_mask))
        extend(splits)
        counts.append(len(splits))
        leaf_masks.append(leaf_mask)
    if not complete:
        raise NewickParseError("trailing data without terminating ';'")
    if _obs_enabled():
        _metric("newick.trees_scanned").inc(len(records))
    return _packed(flat, counts, leaf_masks, len(ns), include_trivial)


def scan_newick_text(text: str, namespace: TaxonNamespace | None = None,
                     *, include_trivial: bool = False,
                     transform=None) -> SplitBatch:
    """Scan a block of Newick records (what ``trees_from_string`` reads).

    >>> batch = scan_newick_text("((A,B),(C,D));\\n((A,C),(B,D));")
    >>> len(batch), batch.counts.tolist(), batch.leaf_masks
    (2, [1, 1], [15, 15])
    """
    return _scan(text, namespace, include_trivial=include_trivial,
                 transform=transform, source=None)


def scan_newick_file(path: str | os.PathLike,
                     namespace: TaxonNamespace | None = None, *,
                     include_trivial: bool = False,
                     transform=None) -> SplitBatch:
    """Scan a Newick file (``.gz`` too) — what ``read_newick_file`` reads.

    Parse errors carry the ``in <path>, tree record <k>`` context
    :func:`~repro.newick.io.iter_newick_file` adds.
    """
    with open_tree_file(path, "r") as fh:
        text = fh.read()
    return _scan(text, namespace, include_trivial=include_trivial,
                 transform=transform, source=os.fspath(path))
