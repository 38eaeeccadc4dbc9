"""The Rereference Matrix encode against its former column-loop form.

``_encode_entries`` computes each epoch's distance to the next
referencing epoch as a running minimum over the reversed epoch axis, in
place in one int32 array. The oracle below is the implementation it
replaced: a right-to-left scan that carries the next referencing epoch
through one Python iteration per column.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.popt.rereference import VARIANTS, _encode_entries
from repro.sim.constants import rm_msb, rm_next_bit, rm_sentinel

ENTRY_BITS = (3, 4, 8, 12, 16)


def encode_oracle(referenced, last_sub, entry_bits, variant):
    """The former column-loop encode (int64)."""
    rows, num_epochs = referenced.shape
    sentinel = rm_sentinel(entry_bits, variant)

    next_epoch = np.full(rows, np.iinfo(np.int64).max // 2, np.int64)
    distance = np.empty((rows, num_epochs), dtype=np.int64)
    for epoch in range(num_epochs - 1, -1, -1):
        column_referenced = referenced[:, epoch]
        gap = np.minimum(next_epoch - epoch, sentinel)
        distance[:, epoch] = np.where(column_referenced, 0, gap)
        next_epoch = np.where(column_referenced, epoch, next_epoch)

    entries = np.empty((rows, num_epochs), dtype=np.int64)
    if variant == "inter_only":
        entries[:] = np.minimum(distance, sentinel)
    else:
        msb = rm_msb(entry_bits)
        clamped_sub = np.minimum(last_sub, sentinel)
        inter = msb | np.minimum(distance, sentinel)
        entries[:] = np.where(referenced, clamped_sub, inter)
        if variant == "single_epoch":
            next_bit = rm_next_bit(entry_bits, variant)
            accessed_next = np.zeros((rows, num_epochs), dtype=bool)
            accessed_next[:, :-1] = referenced[:, 1:]
            entries[:] = np.where(
                referenced & accessed_next, entries | next_bit, entries
            )
    return entries


#: Row shapes: random density, never referenced, always referenced, and
#: referenced in the last epoch only (the longest distances).
ROW_KINDS = ("random", "empty", "full", "last_only")


@st.composite
def reference_events(draw):
    rows = draw(st.integers(1, 40))
    num_epochs = draw(st.integers(1, 300))
    kinds = draw(st.lists(
        st.sampled_from(ROW_KINDS), min_size=rows, max_size=rows
    ))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.floats(0.0, 1.0))
    referenced = rng.random((rows, num_epochs)) < density
    for row, kind in enumerate(kinds):
        if kind == "empty":
            referenced[row] = False
        elif kind == "full":
            referenced[row] = True
        elif kind == "last_only":
            referenced[row] = False
            referenced[row, -1] = True
    # Up to 2**17, past every entry width's sentinel, so the clamp runs.
    last_sub = rng.integers(0, 2**17, (rows, num_epochs), dtype=np.int64)
    return referenced, last_sub


@settings(max_examples=60, deadline=None)
@given(events=reference_events())
def test_encode_matches_column_loop(events):
    referenced, last_sub = events
    for entry_bits in ENTRY_BITS:
        for variant in VARIANTS:
            got = _encode_entries(referenced, last_sub, entry_bits, variant)
            want = encode_oracle(referenced, last_sub, entry_bits, variant)
            assert got.dtype == np.int32
            np.testing.assert_array_equal(got, want, err_msg=(
                f"entry_bits={entry_bits} variant={variant}"
            ))


def test_encode_leaves_inputs_untouched():
    rng = np.random.default_rng(3)
    referenced = rng.random((8, 50)) < 0.3
    last_sub = rng.integers(0, 2**17, (8, 50), dtype=np.int64)
    before = referenced.copy(), last_sub.copy()
    for variant in VARIANTS:
        _encode_entries(referenced, last_sub, 8, variant)
    np.testing.assert_array_equal(referenced, before[0])
    np.testing.assert_array_equal(last_sub, before[1])
