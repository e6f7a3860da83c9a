"""Golden word layouts for ``masks_to_words`` / ``words_to_masks``.

Masks pack into ``words_for_taxa(n)`` big-endian-ordered 64-bit words
(word 0 most significant).  The pins sit on both sides of the 64- and
128-bit edges, where the row width changes.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bipartitions.encoding import words_for_taxa
from repro.core.table import masks_to_words, words_to_masks

F = 0xFFFF_FFFF_FFFF_FFFF
PATTERN = 0x0123_4567_89AB_CDEF_FEDC_BA98_7654_3210

GOLDEN = {
    63: [((1 << 63) - 1, [0x7FFF_FFFF_FFFF_FFFF]),
         (1 << 62, [0x4000_0000_0000_0000]),
         (0b1011, [0xB])],
    64: [((1 << 64) - 1, [F]),
         (1 << 63, [0x8000_0000_0000_0000]),
         (PATTERN & F, [0xFEDC_BA98_7654_3210])],
    65: [((1 << 65) - 1, [0x1, F]),
         (1 << 64, [0x1, 0x0]),
         (0b1011, [0x0, 0xB])],
    127: [((1 << 127) - 1, [0x7FFF_FFFF_FFFF_FFFF, F]),
          (1 << 126, [0x4000_0000_0000_0000, 0x0]),
          (PATTERN >> 1, [0x0091_A2B3_C4D5_E6F7, 0xFF6E_5D4C_3B2A_1908])],
    128: [((1 << 128) - 1, [F, F]),
          (1 << 127, [0x8000_0000_0000_0000, 0x0]),
          (PATTERN, [0x0123_4567_89AB_CDEF, 0xFEDC_BA98_7654_3210])],
    129: [((1 << 129) - 1, [0x1, F, F]),
          (1 << 128, [0x1, 0x0, 0x0]),
          (PATTERN, [0x0, 0x0123_4567_89AB_CDEF, 0xFEDC_BA98_7654_3210])],
}


@pytest.mark.parametrize("n_taxa", sorted(GOLDEN))
def test_golden_rows(n_taxa):
    n_words = words_for_taxa(n_taxa)
    masks = [mask for mask, _ in GOLDEN[n_taxa]]
    rows = masks_to_words(masks, n_words)
    assert rows.dtype == np.uint64 and rows.flags.c_contiguous
    assert rows.shape == (len(masks), n_words)
    assert rows.tolist() == [words for _, words in GOLDEN[n_taxa]]
    assert words_to_masks(rows) == masks


@pytest.mark.parametrize("n_taxa", sorted(GOLDEN))
def test_too_wide_mask_is_refused_by_name(n_taxa):
    n_words = words_for_taxa(n_taxa)
    wide = 1 << (64 * n_words)
    with pytest.raises(ValueError, match=f"{wide:#x} does not fit"):
        masks_to_words([1, wide], n_words)


def test_negative_mask_is_refused_by_name():
    with pytest.raises(ValueError, match="-0x5 does not fit"):
        masks_to_words([3, -5], 1)


def test_empty_inputs():
    rows = masks_to_words([], 2)
    assert rows.shape == (0, 2) and rows.dtype == np.uint64
    assert words_to_masks(rows) == []
