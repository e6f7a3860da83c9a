"""Fingerprint probe order: exactness under collisions, and self-queries.

Tables sort their rows by one ``uint64`` fingerprint per split.  The
fingerprint only orders rows; builds and probes confirm every match on
the full key words.  These tests force collisions by patching the
mixer, and check that a self-query — answered from the build with no
probe — equals the probe path bit for bit.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import observability as obs
from repro.bipartitions.scan import SplitBatch
from repro.core import api, table as table_module
from repro.core.bfhrf import bfhrf_average_rf, build_bfh
from repro.core.shmrf import shm_average_rf
from repro.core.table import BipartitionTable, masks_to_words, \
    row_fingerprints
from repro.core.variants import size_filter_transform
from repro.core.vectorized import VectorizedBFH
from repro.newick import write_newick
from repro.observability.metrics import metrics_snapshot
from repro.runtime import BACKENDS

from tests.conftest import make_collection

_real_mix = table_module._mix


def _aliasing_mix(source: int, target: int):
    """A mixer that feeds ``target`` where the input word is ``source``.

    Under salt 0 a one-word key's only mixer input is the key itself, so
    ``source`` and ``target`` get one fingerprint.  Splits always hold
    bit 0 (the anchor taxon), so under salt 1 no split's input is
    ``source`` and the mixer acts as the real one.
    """
    source, target = np.uint64(source), np.uint64(target)

    def mix(h):
        return _real_mix(np.where(h == source, target, h))

    return mix


@pytest.fixture(scope="module")
def trees():
    return make_collection(20, 24, seed=15)


@pytest.fixture
def colliding(trees, monkeypatch):
    """Patch the mixer so two of the collection's splits collide at salt 0."""
    a, b = sorted(build_bfh(trees).counts)[:2]
    assert a & 1 and b & 1
    monkeypatch.setattr(table_module, "_mix", _aliasing_mix(a, b))
    keys = masks_to_words([a, b], 1)
    assert row_fingerprints(keys, 0)[0] == row_fingerprints(keys, 0)[1]
    return a, b


class TestCollisions:
    def test_build_retries_with_the_next_salt(self, trees, colliding):
        table = BipartitionTable.from_splits(SplitBatch.from_trees(trees))
        assert table.salt == 1
        assert table.to_counts() == build_bfh(trees).counts

    def test_counts_build_retries_too(self, trees, colliding):
        counts = build_bfh(trees).counts
        table = BipartitionTable.from_counts(counts, n_taxa=20,
                                             n_trees=len(trees))
        assert table.salt == 1
        assert table.to_counts() == counts

    @pytest.mark.parametrize("backend", ["serial", "thread", "fork", "spawn"])
    def test_answers_match_the_dict_backend(self, trees, colliding, backend):
        # Spawn workers import the real mixer; with the table's salt from
        # the descriptor they order keys exactly as the parent built them.
        if not BACKENDS[backend].available():
            pytest.skip(f"{backend} unavailable here")
        want = bfhrf_average_rf(trees, trees)
        assert shm_average_rf(trees, trees, n_workers=1) == want
        assert shm_average_rf(trees, trees, n_workers=2,
                              executor=backend) == want

    def test_fingerprint_match_with_other_words_scores_zero(
            self, trees, monkeypatch):
        counts = build_bfh(trees).counts
        key = min(counts)
        absent = next(m for m in range(3, 1 << 20, 2) if m not in counts)
        vbfh = BipartitionTable.from_splits(
            SplitBatch.from_trees(trees)).vectorized()
        monkeypatch.setattr(table_module, "_mix", _aliasing_mix(absent, key))
        rows = masks_to_words([absent, key], 1)
        fingerprints = row_fingerprints(rows, vbfh.salt)
        assert fingerprints[0] == fingerprints[1]
        assert vbfh.lookup_frequencies(rows).tolist() == [0, counts[key]]

    def test_keys_out_of_probe_order_are_refused(self, trees):
        table = BipartitionTable.from_splits(SplitBatch.from_trees(trees))
        with pytest.raises(ValueError, match="probe order"):
            VectorizedBFH(table.keys[::-1].copy(), table.counts,
                          table.n_trees, table.total)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(0, (1 << 64) - 1), unique=True,
                    max_size=300),
           st.integers(0, 1 << 16))
    def test_one_word_fingerprints_never_collide(self, words, salt):
        keys = np.array(words, dtype=np.uint64).reshape(-1, 1)
        assert len(np.unique(row_fingerprints(keys, salt))) == len(words)


def _write(tmp_path, trees, name="t.nwk"):
    path = tmp_path / name
    path.write_text("".join(write_newick(t) + "\n" for t in trees),
                    encoding="utf-8")
    return path


class TestSelfQuery:
    """``average_rf(path)`` (answered from the build) against
    ``average_rf(path, reference=path)`` (two scans, probed)."""

    @pytest.mark.parametrize("method", ["shm", "vectorized"])
    @pytest.mark.parametrize("n_taxa", [63, 64, 65, 128, 129])
    def test_word_boundaries(self, tmp_path, method, n_taxa):
        path = _write(tmp_path, make_collection(n_taxa, 12, seed=n_taxa))
        got = api.average_rf(path, method=method)
        assert got == api.average_rf(path, reference=path, method=method)
        assert got == api.average_rf(path, method="bfhrf")

    def test_include_trivial(self, tmp_path):
        path = _write(tmp_path, make_collection(65, 10, seed=3))
        got = api.average_rf(path, include_trivial=True)
        assert got == api.average_rf(path, reference=path,
                                     include_trivial=True)

    @pytest.mark.parametrize("bounds", [(2, 3), (3, None), (1, 1)])
    def test_transform(self, tmp_path, bounds):
        path = _write(tmp_path, make_collection(30, 10, seed=4))
        transform = size_filter_transform(*bounds)
        got = api.average_rf(path, transform=transform)
        assert got == api.average_rf(path, reference=path,
                                     transform=transform)

    @pytest.mark.parametrize("text", [
        "(A,B,C,D);\n(A,B,C,D,E);\n",
        "(A,B,C,D);\n((A,B),(C,D));\n(A,B,C,D);\n",
        "((A,B),(C,(D,E)));\n",
    ])
    def test_star_trees_and_one_tree(self, tmp_path, text):
        path = tmp_path / "t.nwk"
        path.write_text(text, encoding="utf-8")
        got = api.average_rf(path)
        assert got == api.average_rf(path, reference=path)
        assert got == api.average_rf(path, method="bfhrf")

    def test_fan_out_creates_no_segment(self, tmp_path):
        if not BACKENDS["fork"].available():
            pytest.skip("fork unavailable here")
        path = _write(tmp_path, make_collection(20, 12, seed=5))
        obs.reset()
        obs.enable()
        try:
            api.average_rf(path, n_workers=2, executor="fork")
            assert metrics_snapshot()["counters"].get(
                "shm.segments_created", 0) == 0
            # The probe path on the same input does fan out.
            api.average_rf(path, reference=path, n_workers=2,
                           executor="fork")
            assert metrics_snapshot()["counters"][
                "shm.segments_created"] >= 1
        finally:
            obs.disable()
            obs.reset()
