"""Newick text straight to split words — no ``Tree``, no ``Node``.

Average RF needs, per tree, only its normalized split masks and its leaf
mask.  Building a pointer tree to get them cost ~75% of an Insect-scale
batch call, so :func:`scan_newick_text` / :func:`scan_newick_file` go
from text to a :class:`SplitBatch`: per-tree split counts, per-tree leaf
words and one packed ``uint64`` word block.  The batch is the one input
of the vectorized kernel —
:meth:`~repro.core.table.BipartitionTable.from_splits` builds a table
from it and :meth:`~repro.core.vectorized.VectorizedBFH.average_rf_batch`
probes it — so with ``Q is R`` one scan feeds both.

Two paths share the record splitter, the batch and the error handoff:

* the **token path** walks each record's tokens with an int stack (a
  group's split is the OR of its leaf bits) — the lower fixed cost, so
  texts under :data:`BLOCK_MIN_LEAVES` leaves take it;
* the **block path** turns a block of about :data:`BLOCK_CHARS`
  characters into split words with whole-array NumPy passes: byte
  classes give the tokens, one table of allowed token pairs plus paren
  depth checks the grammar, and a group's split is ``P[hi] ^ P[lo]``
  over a prefix XOR ``P`` of the leaves' one-hot words — a record is a
  balanced-parentheses sequence, so a group's taxa are a range of its
  leaves.

Both accept exactly the records
:func:`~repro.newick.io.iter_newick_strings` +
:func:`~repro.newick.parser.parse_newick` accept, bind labels into the
namespace in the same first-seen order, and yield the splits
:func:`~repro.bipartitions.extract.bipartition_masks` yields.  A record
either rejects is handed to ``parse_newick``, so the error raised is the
parser's own (same class, same message, same namespace state), with the
record context :func:`~repro.newick.io.iter_newick_file` adds.  The
``scan-parity`` selfcheck oracle and ``tests/bipartitions/test_scan.py``
hold both paths to the ``Tree`` path's results.
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

__all__ = ["SplitBatch", "split_newick_records", "scan_newick_records",
           "scan_newick_text", "scan_newick_file", "BLOCK_MIN_LEAVES",
           "BLOCK_CHARS"]

#: Texts of at least this many leaves (commas plus records) take the
#: block path.  Its fixed cost is ~0.2 ms a call more than the token
#: path's, so one 144-taxon tree scans faster on the token path, two
#: tie, and more scan faster on the block path, with or without branch
#: lengths.
BLOCK_MIN_LEAVES = 300
#: Characters per block.  The block path's working arrays scale with one
#: block, not the text: ~65 bytes per character (~4 MiB) for 144-taxon
#: trees, more for wider namespaces (prefix and split rows are words).
BLOCK_CHARS = 64 * 1024


class SplitBatch:
    """Per-tree split words of a collection: the vectorized kernel's input.

    ``words`` is ``(S, n_words)`` ``uint64`` (word 0 most significant):
    tree 0's splits, then tree 1's, and so on.  ``counts[i]`` is tree
    ``i``'s split count and ``leaf_words[i]`` its taxa, at the same
    width.  ``leaves`` may be given as those rows or as int masks.  The
    splits already reflect the ``include_trivial`` choice and any
    transform they were made with.  ``n_taxa`` is the namespace size
    the words were packed under.
    """

    __slots__ = ("words", "counts", "leaf_words", "n_taxa",
                 "include_trivial", "_leaf_masks")

    def __init__(self, words: np.ndarray, counts: np.ndarray,
                 leaves: np.ndarray | Sequence[int], *, n_taxa: int,
                 include_trivial: bool = False):
        self.words = words
        self.counts = counts
        if isinstance(leaves, np.ndarray):
            self.leaf_words = leaves
            self._leaf_masks = None
        else:
            # Deferred import: repro.core imports this module.
            from repro.core.table import masks_to_words

            self._leaf_masks = list(leaves)
            self.leaf_words = masks_to_words(self._leaf_masks,
                                             words.shape[1])
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
                   np.concatenate([_fit(b.leaf_words, n_words)
                                   for b in batches]),
                   n_taxa=n_taxa,
                   include_trivial=batches[0].include_trivial)

    @property
    def leaf_masks(self) -> list[int]:
        """Per-tree taxa as int masks (made from ``leaf_words`` once)."""
        if self._leaf_masks is None:
            from repro.core.table import words_to_masks

            self._leaf_masks = words_to_masks(self.leaf_words)
        return self._leaf_masks

    def __len__(self) -> int:
        return len(self.counts)

    def words_for(self, n_words: int) -> np.ndarray:
        """The word block at ``n_words`` width.

        Widening prepends zero high words; narrowing drops high words
        only when every split leaves them empty.
        """
        return _fit(self.words, n_words)

    def slice(self, lo: int, hi: int) -> "SplitBatch":
        """Trees ``[lo:hi]`` as a batch viewing this one's words."""
        start = int(self.counts[:lo].sum())
        stop = start + int(self.counts[lo:hi].sum())
        return SplitBatch(self.words[start:stop], self.counts[lo:hi],
                          self.leaf_words[lo:hi], n_taxa=self.n_taxa,
                          include_trivial=self.include_trivial)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"SplitBatch(trees={len(self)}, splits={len(self.words)}, "
                f"words={self.words.shape[1]}, taxa={self.n_taxa})")


def _fit(rows: np.ndarray, n_words: int) -> np.ndarray:
    """``rows`` at ``n_words`` width (see :meth:`SplitBatch.words_for`)."""
    have = rows.shape[1]
    if n_words == have:
        return rows
    if n_words > have:
        out = np.zeros((len(rows), n_words), dtype=np.uint64)
        out[:, n_words - have:] = rows
        return out
    if rows[:, :have - n_words].any():
        raise ValueError(f"split batch uses taxa beyond {n_words} words")
    return np.ascontiguousarray(rows[:, have - n_words:])


def _packed(flat: list[int], counts: list[int],
            leaves: np.ndarray | list[int], n_taxa: int,
            include_trivial: bool) -> SplitBatch:
    from repro.core.table import masks_to_words

    n_taxa = max(1, n_taxa)
    return SplitBatch(masks_to_words(flat, words_for_taxa(n_taxa)),
                      np.array(counts, dtype=np.int64), leaves,
                      n_taxa=n_taxa, include_trivial=include_trivial)


# ---------------------------------------------------------------------------
# Record splitting: the records iter_newick_strings yields, by position.
# ---------------------------------------------------------------------------

_NON_SPACE = re.compile(r"\S")          # \s is str.isspace(), as strip() uses
_RECORD_STOP = re.compile(r"[;'\[]")


def split_newick_records(text: str) -> tuple[list[str], bool]:
    """``(records, complete)``: the ``;``-terminated records of ``text``.

    Same records as :func:`~repro.newick.io.iter_newick_strings` over
    ``text``'s lines: quotes and comments may hold ``;``, and a line whose
    first non-space character is ``#`` is skipped when it starts at a
    record boundary.  ``complete`` is false when non-space text is left
    without a terminating ``;``.  Both scan paths take these records, so
    a caller may count them before paying for a scan.
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
# Token path: structural kinds as small ints, labels as decoded strings,
# walked by parse_newick's state machine over an int stack.
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


def _token_batch(records: Sequence[str], number: int, ns: TaxonNamespace,
                 trivial: bool, source: str | None) -> SplitBatch:
    """Records ``number, number+1, ...`` through the token path."""
    bits = {taxon.label: 1 << taxon.index for taxon in ns}
    flat: list[int] = []
    extend = flat.extend
    counts: list[int] = []
    leaf_masks: list[int] = []
    for k, record in enumerate(records):
        try:
            leaf_mask, raw = _record_splits(_tokens(record), bits, ns,
                                            trivial)
        except _Reject:
            _raise_parse_error(record, ns, number + k, source)
        anchor = leaf_mask & -leaf_mask
        if trivial:
            splits = {m if m & anchor else m ^ leaf_mask
                      for m in raw if m != leaf_mask}
        else:
            hi = leaf_mask.bit_count() - 2
            splits = {m if m & anchor else m ^ leaf_mask
                      for m in raw if 2 <= m.bit_count() <= hi}
        extend(splits)
        counts.append(len(splits))
        leaf_masks.append(leaf_mask)
    return _packed(flat, counts, leaf_masks, len(ns), trivial)


# ---------------------------------------------------------------------------
# Block path: a block of records to split words in whole-array passes.
# ---------------------------------------------------------------------------

# Byte classes.  Unquoted whitespace only separates tokens; every byte
# not named here (UTF-8 continuation bytes too) is a label byte.
_C_LABEL, _C_SPACE, _C_LP, _C_RP, _C_COMMA, _C_SEMI, _C_COLON, \
    _C_QUOTE, _C_OPEN, _C_CLOSE, _C_QLABEL = range(11)
_BYTE_CLASS = np.zeros(256, dtype=np.uint8)
_BYTE_CLASS[list(b" \t\r\n")] = _C_SPACE
_BYTE_CLASS[list(b"(),;:'[]")] = [_C_LP, _C_RP, _C_COMMA, _C_SEMI, _C_COLON,
                                  _C_QUOTE, _C_OPEN, _C_CLOSE]

# Token states.  A label's state is set by the token before it: a leaf
# after "(", "," or a record start, an internal label after ")", a
# length after ":".  A stray "]" (the lexer's error) is _S_BAD.
_S_START, _S_LP, _S_RP, _S_COMMA, _S_SEMI, _S_COLON, _S_LEAF, _S_ILABEL, \
    _S_LEN, _S_BAD = range(10)


def _state_table() -> np.ndarray:
    """``state[previous class * 11 + class]`` of a token."""
    table = np.full((11, 11), _S_BAD, dtype=np.uint8)
    for cls, state in ((_C_LP, _S_LP), (_C_RP, _S_RP), (_C_COMMA, _S_COMMA),
                       (_C_SEMI, _S_SEMI), (_C_COLON, _S_COLON)):
        table[:, cls] = state
    for label in (_C_LABEL, _C_QLABEL):
        table[[_C_LP, _C_COMMA, _C_SEMI], label] = _S_LEAF
        table[_C_RP, label] = _S_ILABEL
        table[_C_COLON, label] = _S_LEN
    return table.ravel()


_STATE = _state_table()


def _pair_table() -> np.ndarray:
    """``allowed[previous state * 10 + state]``: parse_newick's order.

    A record's ";" ends it, so a ";" row allows what a record start
    does.  Depth (where ";", "," and ")" may stand) is checked apart.
    """
    follows = {
        _S_START: (_S_LP, _S_LEAF),
        _S_SEMI: (_S_LP, _S_LEAF),
        _S_LP: (_S_LP, _S_LEAF),
        _S_COMMA: (_S_LP, _S_LEAF),
        _S_LEAF: (_S_COMMA, _S_RP, _S_COLON, _S_SEMI),
        _S_LEN: (_S_COMMA, _S_RP, _S_SEMI),
        _S_RP: (_S_RP, _S_COMMA, _S_ILABEL, _S_COLON, _S_SEMI),
        _S_ILABEL: (_S_COLON, _S_RP, _S_COMMA, _S_SEMI),
        _S_COLON: (_S_LEN,),
    }
    allowed = np.zeros((10, 10), dtype=bool)
    for state, nexts in follows.items():
        allowed[state, list(nexts)] = True
    return allowed.ravel()


_ALLOWED = _pair_table()

# float() over the plain length dialect, [+-]? digits [. digits] [e[+-]
# digits], as a DFA run one character column at a time.  A length with
# any other byte (inf, nan, "_", Unicode digits or spaces) or longer
# than _FLOAT_COLUMNS goes to float() itself.
_F_DIGIT, _F_DOT, _F_EXP, _F_SIGN, _F_OTHER = range(5)
_FLOAT_CLASS = np.full(256, _F_OTHER, dtype=np.uint8)
_FLOAT_CLASS[list(b"0123456789")] = _F_DIGIT
_FLOAT_CLASS[ord(".")] = _F_DOT
_FLOAT_CLASS[list(b"eE")] = _F_EXP
_FLOAT_CLASS[list(b"+-")] = _F_SIGN
_F_ASK = 10                             # absorbing: ask float() itself
# Rows: start, sign, int digits, "1.", ".", fraction, "e", "e+", exponent.
_FLOAT_NEXT = np.array([
    # digit dot exp sign other
    [2, 4, 9, 1, 10],
    [2, 4, 9, 9, 10],
    [2, 3, 6, 9, 10],
    [5, 9, 6, 9, 10],
    [5, 9, 9, 9, 10],
    [5, 9, 6, 9, 10],
    [8, 9, 9, 7, 10],
    [8, 9, 9, 9, 10],
    [8, 9, 9, 9, 10],
    [9, 9, 9, 9, 10],
    [10, 10, 10, 10, 10],
], dtype=np.uint8)
_FLOAT_ACCEPT = np.zeros(11, dtype=bool)
_FLOAT_ACCEPT[[2, 3, 5, 8]] = True
_FLOAT_COLUMNS = 32

#: Label key bytes one block may gather for exact label identity; a
#: block whose labels need more takes the token path.
_KEY_BYTES = 1 << 20


def _blank_quotes(data: np.ndarray, cls: np.ndarray):
    """Blank quoted labels and comments out of ``cls`` in place.

    A loop over the positions of ``'``, ``[`` and ``]`` only, pairing
    them as the lexer does (``''`` inside quotes is a quote).  A quoted
    label's opening quote becomes one ``_C_QLABEL`` token.  Returns
    ``(keys, starts, lengths)``: the key bytes (``data``, plus the
    unescaped text of labels holding ``''``) and each quoted label's
    span in them, in position order.  ``None`` when a quote or comment
    is left open, which a block of split records never has.
    """
    marks = np.flatnonzero(cls >= _C_QUOTE)
    pos, kind = marks.tolist(), cls[marks].tolist()
    n = len(pos)
    cover_from: list[int] = []
    cover_to: list[int] = []
    q_at: list[int] = []
    q_start: list[int] = []
    q_len: list[int] = []
    extra = bytearray()
    i = 0
    while i < n:
        k, p = kind[i], pos[i]
        j = i + 1
        if k == _C_CLOSE:                # stray "]": stays an error token
            i = j
            continue
        if k == _C_OPEN:
            while j < n and kind[j] != _C_CLOSE:
                j += 1
            if j == n:
                return None
            cover_from.append(p)
            cover_to.append(pos[j])
            i = j + 1
            continue
        escaped = False
        while True:
            while j < n and kind[j] != _C_QUOTE:
                j += 1
            if j == n:
                return None
            if j + 1 < n and kind[j + 1] == _C_QUOTE \
                    and pos[j + 1] == pos[j] + 1:
                escaped = True
                j += 2
                continue
            break
        q = pos[j]
        cover_from.append(p)
        cover_to.append(q)
        q_at.append(p)
        if escaped:
            text = data[p + 1:q].tobytes().replace(b"''", b"'")
            q_start.append(len(data) + len(extra))
            q_len.append(len(text))
            extra += text
        else:
            q_start.append(p + 1)
            q_len.append(q - p - 1)
        i = j + 1
    delta = np.zeros(len(data) + 1, dtype=np.int8)
    delta[cover_from] = 1
    delta[np.array(cover_to, dtype=np.int64) + 1] -= 1
    cls[np.cumsum(delta[:-1], dtype=np.int8).astype(bool)] = _C_SPACE
    cls[q_at] = _C_QLABEL
    keys = np.concatenate([data, np.frombuffer(bytes(extra), np.uint8)]) \
        if extra else data
    return (keys, np.array(q_start, dtype=np.int64),
            np.array(q_len, dtype=np.int64))


def _valid_lengths(keys: np.ndarray, starts: np.ndarray,
                   lengths: np.ndarray) -> np.ndarray:
    """Which length tokens ``float()`` accepts."""
    state = np.zeros(len(starts), dtype=np.uint8)
    last = len(keys) - 1
    for col in range(min(int(lengths.max()), _FLOAT_COLUMNS)):
        live = col < lengths
        byte = keys[np.minimum(starts + col, last)]
        state = np.where(live, _FLOAT_NEXT[state, _FLOAT_CLASS[byte]], state)
    ok = _FLOAT_ACCEPT[state]
    for i in np.flatnonzero((state == _F_ASK)
                            | (lengths > _FLOAT_COLUMNS)).tolist():
        start = int(starts[i])
        text = keys[start:start + int(lengths[i])].tobytes()
        try:
            float(text.decode("utf-8", "surrogatepass"))
        except ValueError:
            ok[i] = False
        else:
            ok[i] = True
    return ok


_LOW_BYTES = np.array([(1 << (8 * k)) - 1 for k in range(9)],
                      dtype=np.uint64)   # the low k bytes of a word


def _label_ids(keys: np.ndarray, starts: np.ndarray, lengths: np.ndarray):
    """``(ids, first)``: exact label identity, with no hash.

    Each label becomes a key of 8-byte words read straight off the
    bytes (a stride-1 ``uint64`` view), masked to its length, plus the
    length itself (so ``"A"`` and ``"A\\0"`` differ).  One sort of the
    keys gives every label an id and each id its first token.  ``None``
    when the keys would pass :data:`_KEY_BYTES`.
    """
    if not len(starts):
        return starts, starts
    n_cols = (int(lengths.max()) + 7) // 8 or 1
    if len(starts) * 8 * (n_cols + 1) > _KEY_BYTES:
        return None
    padded = np.concatenate([keys, np.zeros(8, dtype=np.uint8)])
    at = np.ndarray((len(keys),), dtype="<u8", buffer=padded, strides=(1,))
    last = len(keys) - 1
    cols = [np.take(at, np.minimum(starts + 8 * j, last))
            & _LOW_BYTES[np.clip(lengths - 8 * j, 0, 8)]
            for j in range(n_cols)]
    if n_cols == 1 and lengths.max() < 8:
        cols[0] |= lengths.astype(np.uint64) << np.uint64(56)
    else:
        cols.append(lengths.astype(np.uint64))
    if len(cols) == 1:
        order = np.argsort(cols[0])
    else:
        order = np.lexsort(cols)
    new = np.zeros(len(order) - 1, dtype=bool)
    for col in cols:
        ranked = col[order]
        new |= ranked[1:] != ranked[:-1]
    ids = np.empty(len(order), dtype=np.int64)
    ids[order] = np.concatenate([[0], np.cumsum(new)])
    heads = np.flatnonzero(np.concatenate([[True], new]))
    return ids, np.minimum.reduceat(order, heads)


_DEPTH_STEP = np.zeros(10, dtype=np.int8)
_DEPTH_STEP[_S_LP], _DEPTH_STEP[_S_RP] = 1, -1


def _block_batch(records: Sequence[str], number: int, ns: TaxonNamespace,
                 trivial: bool, source: str | None) -> SplitBatch | None:
    """Records ``number, number+1, ...`` through the block path.

    ``None`` (with ``ns`` untouched) when the block needs the token
    path: labels too long for :data:`_KEY_BYTES`, or quotes, comments
    and ``;`` that do not pair up as the record splitter paired them
    (which split records never have).
    """
    data = np.frombuffer("".join(records).encode("utf-8", "surrogatepass"),
                         dtype=np.uint8)
    cls = np.take(_BYTE_CLASS, data)
    keys = data
    quoted = None
    if (cls >= _C_QUOTE).any():
        quoted = _blank_quotes(data, cls)
        if quoted is None:
            return None
        keys = quoted[0]

    # Tokens: each structural byte, each quoted label, each label run.
    edge = np.diff((cls == _C_LABEL).view(np.int8), prepend=np.int8(0),
                   append=np.int8(0))
    run_start = np.flatnonzero(edge == 1)
    run_len = np.flatnonzero(edge == -1) - run_start
    begins = cls >= _C_LP
    begins[run_start] = True
    tok_cls = np.compress(begins, cls)
    labels = np.flatnonzero((tok_cls == _C_LABEL) | (tok_cls == _C_QLABEL))
    label_start, label_len = run_start, run_len
    if quoted is not None:
        plain = tok_cls[labels] == _C_LABEL
        label_start = np.empty(len(labels), dtype=np.int64)
        label_len = np.empty(len(labels), dtype=np.int64)
        label_start[plain], label_start[~plain] = run_start, quoted[1]
        label_len[plain], label_len[~plain] = run_len, quoted[2]

    # Grammar: token states, allowed pairs, and depth.
    prev_cls = np.empty_like(tok_cls)
    prev_cls[0] = _C_SEMI
    prev_cls[1:] = tok_cls[:-1]
    state = np.take(_STATE, prev_cls * np.uint8(11) + tok_cls)
    prev = np.empty_like(state)
    prev[0] = _S_START
    prev[1:] = state[:-1]
    semis = np.flatnonzero(state == _S_SEMI)
    if len(semis) != len(records) or semis[-1] != len(state) - 1:
        return None                      # not one ";" per record
    step = np.take(_DEPTH_STEP, state)
    depth = np.cumsum(step, dtype=np.int32)
    before = depth - step
    label_state = state[labels]
    leaf = label_state == _S_LEAF
    bad = ~np.take(_ALLOWED, prev * np.uint8(10) + state)
    bad[semis[before[semis] != 0]] = True
    bad |= ((state == _S_RP) | (state == _S_COMMA)) & (before < 1)
    # At depth 0, "(" and a leaf may only open a record.
    bad |= (step == 1) & (before == 0) & (prev != _S_START) \
        & (prev != _S_SEMI)
    leaves = labels[leaf]
    leaf_prev = prev[leaves]
    bad[leaves[(before[leaves] == 0) & (leaf_prev != _S_START)
               & (leaf_prev != _S_SEMI)]] = True
    lengths = label_state == _S_LEN
    if lengths.any():
        bad[labels[lengths][~_valid_lengths(
            keys, label_start[lengths], label_len[lengths])]] = True

    # Leaf labels: ids, duplicate taxa, the first rejected record.
    leaf_start = label_start[leaf]
    leaf_len = label_len[leaf]
    bad[leaves[leaf_len == 0]] = True    # '' as a taxon
    found = _label_ids(keys, leaf_start, leaf_len)
    if found is None:
        return None
    ids, first_seen = found
    leaf_rec = np.searchsorted(semis, leaves)
    pairs = np.sort(leaf_rec * (len(first_seen) + 1) + ids)
    dup = pairs[1:][pairs[1:] == pairs[:-1]] // (len(first_seen) + 1)
    rejected = np.concatenate([np.searchsorted(semis, np.flatnonzero(bad)),
                               dup])
    stop = int(rejected.min()) if len(rejected) else len(records)

    # Bind labels in first-seen order, up to the first rejected record.
    new_ids = np.argsort(first_seen)
    firsts = first_seen[new_ids]
    new_ids = new_ids[leaf_rec[firsts] < stop]
    firsts = firsts[:len(new_ids)]
    raw = keys.tobytes()
    require = ns.require
    bit_of = np.zeros(len(first_seen), dtype=np.int64)
    bit_of[new_ids] = [
        require(raw[start:start + length].decode("utf-8", "surrogatepass")
                ).index
        for start, length in zip(leaf_start[firsts].tolist(),
                                 leaf_len[firsts].tolist())]
    if stop < len(records):
        _raise_parse_error(records[stop], ns, number + stop, source)

    # Leaf words: a prefix XOR over the leaves' one-hot words.
    bits = np.take(bit_of, ids)
    n_leaves = len(bits)
    n_words = words_for_taxa(max(1, len(ns)))
    onehot = np.zeros((n_leaves + 1, n_words), dtype=np.uint64)
    onehot[np.arange(1, n_leaves + 1), n_words - 1 - (bits >> 6)] = \
        np.left_shift(np.uint64(1), (bits & 63).astype(np.uint64))
    prefix = np.bitwise_xor.accumulate(onehot, axis=0)
    tree_lo = np.searchsorted(leaf_rec, np.arange(len(records)))
    tree_hi = np.append(tree_lo[1:], n_leaves)

    # Groups: parens matched by a stable sort on depth; a group's taxa
    # are the leaves [lo, hi) between its parens.  The root is no split.
    parens = np.flatnonzero(step != 0)
    level = depth[parens] - np.minimum(step[parens], 0)
    if len(level) and level.max() < 1 << 16:
        level = level.astype(np.uint16)  # a radix sort
    order = np.argsort(level, kind="stable")
    opens, closes = parens[order[0::2]], parens[order[1::2]]
    inner = depth[opens] > 1
    leaves_before = np.zeros(len(state) + 1, dtype=np.int64)
    leaves_before[leaves + 1] = 1
    np.cumsum(leaves_before, out=leaves_before)
    lo = leaves_before[opens[inner]]
    hi = leaves_before[closes[inner]]
    if trivial:
        lo = np.concatenate([lo, np.arange(n_leaves)])
        hi = np.concatenate([hi, np.arange(1, n_leaves + 1)])
    tree = leaf_rec[lo]
    start, end = tree_lo[tree], tree_hi[tree]
    size = hi - lo
    keep = size < end - start if trivial \
        else (size >= 2) & (size <= end - start - 2)
    # A split and its complement are one split: [start, k) becomes
    # [k, end), so a bifurcating root's two sides and a unifurcation
    # chain's equal ranges both land on one key.
    at_start = lo == start
    key = np.where(at_start, hi, lo) * (n_leaves + 1) \
        + np.where(at_start, end, hi)
    key = np.sort(key[keep])
    key = np.concatenate([key[:1], key[1:][key[1:] != key[:-1]]])
    lo, hi = key // (n_leaves + 1), key % (n_leaves + 1)
    tree = leaf_rec[lo]

    # Normalize on each tree's lowest taxon: keep the side holding it.
    lowest = np.minimum.reduceat(bits, tree_lo)
    anchor = np.flatnonzero(bits == lowest[leaf_rec])[tree]
    leaf_words = np.take(prefix, tree_hi, axis=0) \
        ^ np.take(prefix, tree_lo, axis=0)
    words = np.take(prefix, hi, axis=0) ^ np.take(prefix, lo, axis=0)
    flip = (anchor < lo) | (anchor >= hi)
    words[flip] ^= np.take(leaf_words, tree[flip], axis=0)
    return SplitBatch(words, np.bincount(tree, minlength=len(records)),
                      leaf_words, n_taxa=max(1, len(ns)),
                      include_trivial=trivial)


def _blocks(records: list[str], block_chars: int):
    """``(index of first record, records)`` runs of ~``block_chars``."""
    ends = np.cumsum(np.fromiter(map(len, records), dtype=np.int64,
                                 count=len(records)))
    cuts = np.flatnonzero(np.diff((ends - 1) // block_chars)) + 1
    bounds = [0, *cuts.tolist(), len(records)]
    for lo, hi in zip(bounds, bounds[1:]):
        yield lo, records[lo:hi]


def _widened(rows: np.ndarray, filled: int, n_words: int) -> np.ndarray:
    """``rows`` at ``n_words`` width, copying only the ``filled`` ones
    (the rest stay untouched zero pages)."""
    out = np.zeros((len(rows), n_words), dtype=np.uint64)
    out[:filled, n_words - rows.shape[1]:] = rows[:filled]
    return out


def _block_scan(records: list[str], ns: TaxonNamespace, trivial: bool,
                source: str | None, block_chars: int) -> SplitBatch:
    """Every record through the block path, one block at a time.

    Each block's words are copied into output arrays sized once up
    front (a tree of n leaves has at most n - 3 splits, 2n - 3 with the
    trivial ones, and a text has at most commas + records leaves), so
    no block's result outlives the next block's temporaries and the
    heap holds one block's working set, not a pile of per-block parts.
    """
    leaves = len(records) + sum(record.count(",") for record in records)
    words = np.zeros((2 * leaves if trivial else leaves, 1), dtype=np.uint64)
    leaf_words = np.zeros((len(records), 1), dtype=np.uint64)
    counts = np.empty(len(records), dtype=np.int64)
    filled = 0
    for lo, block in _blocks(records, block_chars):
        part = _block_batch(block, lo + 1, ns, trivial, source) \
            or _token_batch(block, lo + 1, ns, trivial, source)
        if part.words.shape[1] > words.shape[1]:     # new taxa: widen
            words = _widened(words, filled, part.words.shape[1])
            leaf_words = _widened(leaf_words, lo, part.words.shape[1])
        words[filled:filled + len(part.words)] = part.words
        leaf_words[lo:lo + len(part)] = part.leaf_words
        counts[lo:lo + len(part)] = part.counts
        filled += len(part.words)
    return SplitBatch(words[:filled], counts, leaf_words,
                      n_taxa=max(1, len(ns)), include_trivial=trivial)


# ---------------------------------------------------------------------------
# The scan: both paths, the error handoff and the post-scan transform.
# ---------------------------------------------------------------------------

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


def _transformed(batch: SplitBatch, transform) -> SplitBatch:
    """``transform`` applied per tree, as the dict hash applies it."""
    from repro.core.table import words_to_masks

    masks = words_to_masks(batch.words)
    flat: list[int] = []
    counts: list[int] = []
    offset = 0
    for count, leaf_mask in zip(batch.counts.tolist(), batch.leaf_masks):
        splits = list(transform(set(masks[offset:offset + count]),
                                leaf_mask))
        offset += count
        flat.extend(splits)
        counts.append(len(splits))
    return _packed(flat, counts, batch.leaf_words, batch.n_taxa,
                   batch.include_trivial)


def _leaves_at_least(records: list[str], count: int) -> bool:
    total = len(records)
    for record in records:
        total += record.count(",")
        if total >= count:
            return True
    return False


def _scan(records: list[str], complete: bool,
          namespace: TaxonNamespace | None, *, include_trivial: bool,
          transform, source: str | None, block_min: int | None = None,
          block_chars: int | None = None) -> SplitBatch:
    """Scan split records; ``block_min``/``block_chars`` default to the
    module constants (the selfcheck oracle sets them to drive each path).
    """
    ns = namespace if namespace is not None else TaxonNamespace()
    block_min = BLOCK_MIN_LEAVES if block_min is None else block_min
    block_chars = BLOCK_CHARS if block_chars is None else block_chars
    if not records or not _leaves_at_least(records, block_min):
        batch = _token_batch(records, 1, ns, include_trivial, source)
    else:
        batch = _block_scan(records, ns, include_trivial, source,
                            block_chars)
    if not complete:
        raise NewickParseError("trailing data without terminating ';'")
    if _obs_enabled():
        _metric("newick.trees_scanned").inc(len(records))
    if transform is not None:
        batch = _transformed(batch, transform)
    return batch


def scan_newick_records(records: list[str],
                        namespace: TaxonNamespace | None = None, *,
                        complete: bool = True,
                        include_trivial: bool = False,
                        transform=None) -> SplitBatch:
    """Scan the records :func:`split_newick_records` split off a text.

    ``complete`` is the splitter's flag: false raises the trailing-data
    error after the records scan, as :func:`scan_newick_text` does.
    """
    return _scan(records, complete, namespace,
                 include_trivial=include_trivial, transform=transform,
                 source=None)


def scan_newick_text(text: str, namespace: TaxonNamespace | None = None,
                     *, include_trivial: bool = False,
                     transform=None) -> SplitBatch:
    """Scan a block of Newick records (what ``trees_from_string`` reads).

    >>> batch = scan_newick_text("((A,B),(C,D));\\n((A,C),(B,D));")
    >>> len(batch), batch.counts.tolist(), batch.leaf_masks
    (2, [1, 1], [15, 15])
    """
    records, complete = split_newick_records(text)
    return _scan(records, complete, namespace,
                 include_trivial=include_trivial, transform=transform,
                 source=None)


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
    records, complete = split_newick_records(text)
    return _scan(records, complete, namespace,
                 include_trivial=include_trivial, transform=transform,
                 source=os.fspath(path))
