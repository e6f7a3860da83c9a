"""The Newick scanner against the Tree path it replaces on the batch route.

The reference is ``iter_newick_strings`` + ``parse_newick`` +
``bipartition_masks``: for any text, the scanner must give the same
per-tree split multisets, leaf masks and namespace order, or raise the
same exception class.  Fuzzed character soups, hand-picked dialect
features (quotes with ``''`` escapes, comments, lengths, internal
labels, ``#`` lines, unifurcations, rooted shapes, bare leaves), the
64/128-bit word boundaries, ``.gz`` files, ``include_trivial`` and a
transform are covered; the ``scan-parity`` selfcheck oracle runs the
same comparison on generated cases.  Every comparison runs on each
scan path: the token state machine, the block path on one block, and
the block path cut into blocks of a record or a few hundred characters.
"""

from __future__ import annotations

import gzip
import io
from contextlib import contextmanager
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.bipartitions.scan as scan_module
import repro.trees.tree as tree_module
from repro.bipartitions.extract import bipartition_masks
from repro.bipartitions.scan import SplitBatch, scan_newick_file, \
    scan_newick_text
from repro.core import api
from repro.core.shmrf import shm_average_rf
from repro.core.table import BipartitionTable
from repro.core.variants import size_filter_transform
from repro.core.vectorized import vectorized_average_rf
from repro.hashing.bfh import BipartitionFrequencyHash
from repro.newick import iter_newick_strings, parse_newick, \
    read_newick_file, trees_from_string, write_newick
from repro.testing.generators import PROFILES, generate_case
from repro.testing.oracles import SCAN_PATHS, check_scan_parity
from repro.trees.taxon import TaxonNamespace
from repro.util.errors import NewickParseError, ReproError, TaxonError


def tree_path(text: str, include_trivial: bool = False, transform=None):
    ns = TaxonNamespace()
    try:
        trees = [parse_newick(record, ns)
                 for record in iter_newick_strings(io.StringIO(text))]
    except ReproError as exc:
        return type(exc)
    per_tree = []
    for tree in trees:
        masks = bipartition_masks(tree, include_trivial=include_trivial)
        if transform is not None:
            masks = transform(masks, tree.leaf_mask())
        per_tree.append((sorted(masks), tree.leaf_mask()))
    return ns.labels, per_tree


def batch_result(batch: SplitBatch, ns: TaxonNamespace):
    rows = [int.from_bytes(row.astype(">u8").tobytes(), "big")
            for row in batch.words]
    per_tree, offset = [], 0
    for count, leaf in zip(batch.counts.tolist(), batch.leaf_masks):
        per_tree.append((sorted(rows[offset:offset + count]), leaf))
        offset += count
    assert offset == len(rows)
    return ns.labels, per_tree


def scan_path(text: str, include_trivial: bool = False, transform=None):
    ns = TaxonNamespace()
    try:
        batch = scan_newick_text(text, ns, include_trivial=include_trivial,
                                 transform=transform)
    except ReproError as exc:
        return type(exc)
    return batch_result(batch, ns)


#: The oracle's paths plus the block path with one record per block.
PATHS = SCAN_PATHS + (("record-blocks", 0, 1),)


@contextmanager
def on_path(path):
    """Public scan calls inside take ``path`` (a :data:`PATHS` entry)."""
    _name, block_min, block_chars = path
    with mock.patch.object(scan_module, "BLOCK_MIN_LEAVES", block_min), \
            mock.patch.object(scan_module, "BLOCK_CHARS",
                              block_chars or scan_module.BLOCK_CHARS):
        yield


def assert_parity(text: str, **kwargs) -> None:
    want = tree_path(text, **kwargs)
    for path in PATHS:
        with on_path(path):
            assert scan_path(text, **kwargs) == want, (path[0], text)


newick_soup = st.text(
    alphabet=st.sampled_from(list("(),;:'[]ABCxyz0123._-# \t\n")),
    max_size=80)


class TestFuzzParity:
    @settings(max_examples=400, deadline=None)
    @example("((A,B),(C,D));", False)
    @example("(((((((", False)
    @example("';';';'", False)
    @example("(A:(B));", False)
    @example("[[[]]];", False)
    @example("(A)(B);", False)
    @example(");(", False)
    @example("('',B);", False)
    @example("(A,''];", False)
    @example("'';", False)
    @example("(A,B)'';", False)
    @example("A B;", False)
    @example("(A,B);\n#x\n(A,C);", False)
    @example("(A,B); #x\n(A,C);", False)
    @given(newick_soup, st.booleans())
    def test_soup(self, text, include_trivial):
        assert_parity(text, include_trivial=include_trivial)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(newick_soup, max_size=5), st.booleans())
    def test_multirecord_soup(self, chunks, include_trivial):
        assert_parity("\n".join(chunks), include_trivial=include_trivial)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.sampled_from(
        ["(A,B)", "(C,(D,E))", "F", "'it''s'", "'a b'", "[c]", "x:1.5",
         ":2", "(", ")", ",", ";", "\n", "#", " ", "((G))", "H:1e-3"]),
        max_size=30))
    def test_token_soup(self, parts):
        text = "".join(parts)
        assert_parity(text)
        assert_parity(text, include_trivial=True)


class TestDialect:
    @pytest.mark.parametrize("text", [
        "((A,B),(C,D));",                       # rooted shape
        "(A,B,(C,D));",                          # unrooted shape
        "((A,B),(C,(D,E)));\n((A,C),(B,(D,E)));",
        "(('a b','it''s'),('c,d',(D,E)));",      # quotes and '' escapes
        "((A[&x=1],B[c;d])[e],(C,D));",          # comments, ; inside
        "((A:1,B:2.5e-1)x:0.5,(C:3,D:4)y:1)root:0;",
        "# header\n\n((A,B),(C,D));\n  # mid\n((A,C),(B,D));\n# tail\n",
        "((A,B),(C,D));((A,C),(B,D));",          # two records, one line
        "(((A,B)),(C,D));",                      # unifurcation
        "((((A)),B),(C,D));",
        "((A));",
        "(A);",
        "A;",
        "A:1.5;",
        "(A,(B,(C,(D,(E,F)))));",
        "((A,B),(C,D))\n;",                      # record spanning lines
        "\t((A,B),\n (C,D));\r\n",
        "((A,B),(C,D));\n(A,B)",                 # trailing data
        "((A,A),(C,D));",                        # duplicate taxon
        "(('',B),(C,D));",                       # empty leaf label
        "((A,B),());",                           # empty group
        "((A,B):x,(C,D));",                      # bad length
        "((A,B):,(C,D));",
        "((A,B),(C,D)));",                       # unbalanced
        "((A,B),(C,D);",
        "(A,B]);",
        "((A,B)x y,(C,D));",
        "(A,B)[unterminated;",
        "('unterminated,B);",
    ])
    @pytest.mark.parametrize("include_trivial", [False, True])
    def test_matches_tree_path(self, text, include_trivial):
        assert_parity(text, include_trivial=include_trivial)

    def test_transform_applied_per_tree(self):
        transform = size_filter_transform(min_size=2, max_size=2)
        text = "((A,B),((C,D),(E,F)));\n(((A,C),B),((D,E),F));"
        assert_parity(text, transform=transform)
        assert_parity(text, include_trivial=True, transform=transform)

    def test_namespace_order_is_first_seen(self):
        for path in PATHS:
            ns = TaxonNamespace(["Z"])
            with on_path(path):
                scan_newick_text("((C,A),(Z,B));\n((D,A),(C,B));", ns)
            assert ns.labels == ["Z", "C", "A", "B", "D"], path[0]

    def test_rejected_record_raises_the_parsers_error(self):
        text = "((A,B),(C,D));\n((A,B),(C,D);"
        with pytest.raises(NewickParseError) as parsed:
            trees_from_string(text)
        for path in PATHS:
            with on_path(path):
                with pytest.raises(NewickParseError) as scanned:
                    scan_newick_text(text)
                assert str(scanned.value) == str(parsed.value)
                with pytest.raises(TaxonError):
                    scan_newick_text("((A,B),(A,D));")


def random_record(labels: list[str], rng) -> str:
    """A random rooted binary tree over ``labels`` as one record."""
    nodes = list(labels)
    rng.shuffle(nodes)
    while len(nodes) > 1:
        i, j = sorted(rng.sample(range(len(nodes)), 2))
        right, left = nodes.pop(j), nodes.pop(i)
        nodes.append(f"({left},{right})")
    return nodes[0] + ";"


def taxa(n: int) -> list[str]:
    return [f"T{i:03d}" for i in range(n)]


class TestBlockPath:
    """What only the block path can get wrong: state carried across
    blocks (the namespace, the word width, the first rejected record)
    and the dispatch on the threshold."""

    def records(self, seed: int = 7) -> list[str]:
        import random

        rng = random.Random(seed)
        # Taxa arrive late: words widen from 1 to 2 to 3 between blocks.
        return ([random_record(taxa(60), rng) for _ in range(12)]
                + [random_record(taxa(70), rng) for _ in range(12)]
                + [random_record(taxa(130), rng) for _ in range(12)])

    @pytest.mark.parametrize("include_trivial", [False, True])
    def test_new_taxa_in_later_blocks_widen_the_words(self, include_trivial):
        text = "\n".join(self.records()) + "\n"
        want = tree_path(text, include_trivial=include_trivial)
        for path in PATHS:
            ns = TaxonNamespace()
            with on_path(path):
                batch = scan_newick_text(text, ns,
                                         include_trivial=include_trivial)
            assert batch.words.shape[1] == 3 and batch.n_taxa == 130
            assert batch_result(batch, ns) == want, path[0]

    def test_transform_across_blocks(self):
        transform = size_filter_transform(min_size=3, max_size=40)
        text = "\n".join(self.records(11)) + "\n"
        assert_parity(text, transform=transform)
        assert_parity(text, include_trivial=True, transform=transform)

    @pytest.mark.parametrize("bad, error", [
        ("((NEW1,T000),(T001,T002);", NewickParseError),   # unbalanced
        ("((NEW1,T000),(T001,T001));", TaxonError),        # duplicate
        ("((NEW1,T000):1.5x,(T001,T002));", NewickParseError),
        ("((NEW1,T000),());", NewickParseError),
    ])
    def test_rejected_record_in_a_later_block(self, bad, error):
        """Error class, message and namespace state all match the
        parser's, with the labels of every earlier block bound."""
        records = self.records()
        records.insert(30, bad)
        text = "\n".join(records) + "\n"
        ns_parsed = TaxonNamespace()
        with pytest.raises(error) as parsed:
            trees_from_string(text, ns_parsed)
        for path in PATHS:
            ns = TaxonNamespace()
            with on_path(path):
                with pytest.raises(error) as scanned:
                    scan_newick_text(text, ns)
            assert type(scanned.value) is type(parsed.value), path[0]
            assert str(scanned.value) == str(parsed.value), path[0]
            assert ns.labels == ns_parsed.labels, path[0]

    @pytest.mark.parametrize("text", [
        "('A','B',('C','D'));\n(('A','C'),'B','it''s');\n",   # quotes only
        "[x](A,B,[y](C,D));\n((A[;],C)[z],B,D);\n",          # comments only
        "(A,B,(C,D));\u00a0\u2003\x0b\x0c((A,C),B,D);\n\u3000",
        "(A,B,(C,D));\n  # a # line\n((A,C),B,D); #x\n#y\n(A,(B,C),D);",
        "(A\u00a0,B,(C,D));\n(A\u00a0,(B,C),D);\n",  # NBSP is a label byte
        "('A\x00',A,(B,C));\n(é,'é',(B,C));\n('a b',é,(B,C));\n",
    ])
    def test_dialects(self, text):
        assert_parity(text)
        assert_parity(text, include_trivial=True)

    def test_threshold_picks_the_path(self, monkeypatch):
        calls = []
        block_batch = scan_module._block_batch

        def spy(records, *args):
            calls.append(len(records))
            return block_batch(records, *args)

        monkeypatch.setattr(scan_module, "_block_batch", spy)
        leaves = scan_module.BLOCK_MIN_LEAVES
        scan_newick_text("(A,B);\n" * (leaves // 2 - 1) + "A;\n")
        assert calls == []                   # one leaf short
        scan_newick_text("(A,B);\n" * (leaves // 2) + "A;\n")
        assert calls == [leaves // 2 + 1]


class TestFiles:
    TEXT = "# c\n((A,B),(C,D));\n((A,C),('b x',D));\n"

    @pytest.mark.parametrize("suffix", [".nwk", ".nwk.gz"])
    def test_file_matches_read_newick_file(self, tmp_path, suffix):
        path = tmp_path / f"trees{suffix}"
        opener = gzip.open if suffix.endswith(".gz") else open
        with opener(path, "wt", encoding="utf-8") as fh:
            fh.write(self.TEXT * 3)
        assert read_newick_file(path)  # same file through the Tree path
        for scan_path_ in PATHS:
            ns = TaxonNamespace()
            with on_path(scan_path_):
                got = batch_result(scan_newick_file(path, ns), ns)
            assert got == tree_path(self.TEXT * 3), scan_path_[0]

    def test_file_errors_carry_record_context(self, tmp_path):
        path = tmp_path / "bad.nwk"
        path.write_text(self.TEXT + "((A,B),(C,D);\n")
        with pytest.raises(NewickParseError) as parsed:
            read_newick_file(path)
        for scan_path_ in PATHS:
            with on_path(scan_path_):
                with pytest.raises(NewickParseError) as scanned:
                    scan_newick_file(path)
            assert str(scanned.value) == str(parsed.value)
            assert "tree record 3" in str(scanned.value)


BOUNDARY_PROFILE = replace(PROFILES["deep"], name="scan-boundary",
                           boundary_taxa=(63, 64, 65, 127, 128, 129),
                           boundary_taxa_prob=1.0, max_trees=4)


class TestGeneratedCases:
    @pytest.mark.parametrize("seed", range(3300, 3316))
    def test_quick_profile(self, seed):
        failures = check_scan_parity(generate_case(seed, "quick"))
        assert not failures, "\n".join(map(str, failures))

    @pytest.mark.parametrize("seed", range(3400, 3408))
    def test_word_boundaries(self, seed):
        case = generate_case(seed, BOUNDARY_PROFILE)
        assert case.notes["boundary_taxa"]
        failures = check_scan_parity(case)
        assert not failures, "\n".join(map(str, failures))

    @pytest.mark.parametrize("seed", range(3500, 3506))
    def test_table_from_scan_equals_dict_build(self, seed):
        case = generate_case(seed, BOUNDARY_PROFILE)
        text = "\n".join(write_newick(t) for t in case.reference)
        ns = TaxonNamespace()
        scanned = BipartitionTable.from_splits(scan_newick_text(text, ns))
        trees = trees_from_string(text)
        dict_built = BipartitionTable.from_bfh(
            BipartitionFrequencyHash.from_trees(trees),
            len(trees[0].taxon_namespace))
        assert scanned.same_contents(dict_built)


class TestSplitBatch:
    TEXT = "((A,B),(C,D));\n((A,C),(B,D));\n(A,B,C,D);\n((A,D),(B,C));"

    def test_from_trees_equals_scan(self):
        batch = scan_newick_text(self.TEXT)
        from_trees = SplitBatch.from_trees(trees_from_string(self.TEXT))
        assert np.array_equal(batch.counts, from_trees.counts)
        assert batch.leaf_masks == from_trees.leaf_masks
        assert sorted(map(tuple, batch.words.tolist())) == \
            sorted(map(tuple, from_trees.words.tolist()))

    def test_slice_and_concat_round_trip(self):
        batch = scan_newick_text(self.TEXT)
        parts = [batch.slice(0, 1), batch.slice(1, 3), batch.slice(3, 4)]
        assert [len(p) for p in parts] == [1, 2, 1]
        joined = SplitBatch.concat(parts)
        assert np.array_equal(joined.words, batch.words)
        assert np.array_equal(joined.counts, batch.counts)
        assert joined.leaf_masks == batch.leaf_masks

    def test_words_for_widens_and_refuses_to_truncate(self):
        batch = scan_newick_text(self.TEXT)
        wide = batch.words_for(3)
        assert wide.shape == (len(batch.words), 3)
        assert not wide[:, :2].any()
        assert np.array_equal(wide[:, 2], batch.words[:, 0])
        wide_batch = SplitBatch(wide, batch.counts, batch.leaf_masks,
                                n_taxa=129)
        assert np.array_equal(wide_batch.words_for(1), batch.words)
        wide[0, 0] = 1
        with pytest.raises(ValueError, match="beyond"):
            wide_batch.words_for(1)

    def test_empty_reference_is_a_collection_error(self):
        from repro.util.errors import CollectionError

        with pytest.raises(CollectionError, match="empty"):
            BipartitionTable.from_splits(scan_newick_text(""))


class TestNoTreesOnTheBatchRoute:
    """Newick path/text into the default method builds no Tree and no
    dict hash, and still equals dict bfhrf bit for bit."""

    TEXT = "((A,B),(C,(D,E)));\n((A,C),(B,(D,E)));\n(((A,D),B),(C,E));\n"

    def test_default_method_on_text_and_path(self, tmp_path, monkeypatch):
        path = tmp_path / "q.nwk"
        path.write_text(self.TEXT)
        reference = tmp_path / "r.nwk"
        reference.write_text(self.TEXT + "((E,B),(C,(D,A)));\n")
        want = [api.average_rf(self.TEXT, method="bfhrf"),
                api.average_rf(str(path), method="bfhrf", normalized=True),
                api.average_rf(str(path), str(reference), method="bfhrf")]

        def forbidden(*args, **kwargs):
            raise AssertionError("a Tree or dict hash was built")

        monkeypatch.setattr(tree_module.Tree, "__init__", forbidden)
        monkeypatch.setattr(BipartitionFrequencyHash, "add_masks", forbidden)
        got = [api.average_rf(self.TEXT),
               api.average_rf(str(path), normalized=True),
               api.average_rf(str(path), str(reference))]
        assert got == want
        assert api.average_rf(self.TEXT, method="vectorized") == want[0]
        assert api.average_rf(str(path), n_workers=2) == want[0]

    def test_tree_inputs_build_no_dict_hash(self, monkeypatch):
        trees = trees_from_string(self.TEXT)
        want = api.average_rf(trees, method="bfhrf")

        def forbidden(*args, **kwargs):
            raise AssertionError("a dict hash was built")

        monkeypatch.setattr(BipartitionFrequencyHash, "add_masks", forbidden)
        assert shm_average_rf(trees) == want
        assert vectorized_average_rf(trees, trees) == want
        assert vectorized_average_rf(trees, n_workers=2) == want
