"""Run-time width contracts: ``check_width_contracts`` at the declared
``WIDTH_CONTRACTS`` boundaries, and sanitized replays that run it.

Near-capacity fabrications are driven through the checks at each
boundary, and a ``sanitize=True`` replay exercising them must stay
bit-identical to an unsanitized one. The last class writes the bugs the
retired static width rules were seeded with as run-time tests against
the checks that replace them (DESIGN.md §9).
"""

import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from repro.apps import PageRank
from repro.cache import scaled_hierarchy
from repro.errors import GraphFormatError, SanitizerError
from repro.graph import from_edges, uniform_random
from repro.graph.csr import MAX_VERTICES
from repro.popt.rereference import build_rereference_matrix
from repro.sim import prepare_run, simulate_prepared
from repro.sim.constants import WIDTH_CONTRACTS
from repro.sim.widthcontracts import (
    check_prepared_contracts,
    check_width_contracts,
)


# ----------------------------------------------------------------------
# Runtime half: check_width_contracts at the declared boundaries
# ----------------------------------------------------------------------


def tiny_graph():
    return uniform_random(128, avg_degree=4.0, seed=11)


class TestWidthContractRegistry:
    def test_schema(self):
        for name, spec in WIDTH_CONTRACTS.items():
            assert isinstance(spec["dtype"], tuple), name
            assert spec["dtype"], name
            assert isinstance(spec["max_bits"], int), name
            assert spec["holds"], name
            assert spec["guard"], name

    def test_binds_name_real_fields(self):
        bound = [
            b for spec in WIDTH_CONTRACTS.values()
            for b in spec.get("binds", ())
        ]
        assert "RereferenceMatrix.entries" in bound
        assert "CSRGraph.offsets" in bound
        assert "CSRGraph.neighbors" in bound


class TestCheckWidthContracts:
    def test_healthy_matrix_passes(self):
        matrix = build_rereference_matrix(
            tiny_graph().transpose(), elems_per_line=16, entry_bits=8
        )
        report = check_width_contracts(matrix=matrix)
        assert report["checks"] >= 2
        assert report["rm_entries_max"] < 1 << 8
        assert report["rm_num_epochs"] == matrix.num_epochs

    def test_entry_exceeding_encoding_fails(self):
        matrix = build_rereference_matrix(
            tiny_graph().transpose(), elems_per_line=16, entry_bits=4
        )
        matrix.entries[0, 0] = np.uint8(1 << 4)  # one past the ceiling
        with pytest.raises(SanitizerError, match=r"rm\.entries"):
            check_width_contracts(matrix=matrix)

    def test_wrong_storage_dtype_fails(self):
        matrix = build_rereference_matrix(
            tiny_graph().transpose(), elems_per_line=16, entry_bits=8
        )
        wide = SimpleNamespace(
            entry_bits=matrix.entry_bits,
            entries=matrix.entries.astype(np.uint16),
            num_epochs=matrix.num_epochs,
        )
        with pytest.raises(SanitizerError, match="storage dtype"):
            check_width_contracts(matrix=wide)

    def test_healthy_graph_passes(self):
        report = check_width_contracts(graph=tiny_graph())
        assert report["csr_num_edges"] >= 1
        assert report["num_vertices"] == 128

    def test_graph_with_widened_neighbors_fails(self):
        graph = tiny_graph()
        fake = SimpleNamespace(
            offsets=graph.offsets,
            neighbors=graph.neighbors.astype(np.int64),
            num_vertices=graph.num_vertices,
        )
        with pytest.raises(SanitizerError, match=r"csr\.neighbors"):
            check_width_contracts(graph=fake)

    def test_trace_at_streaming_sentinel_fails(self):
        """The exact boundary: a trace of length 2^30 would make a real
        next-use index collide with POPT_STREAMING_NEXT_REF."""
        with pytest.raises(SanitizerError, match=r"trace\.next_use"):
            check_width_contracts(trace_length=1 << 30)

    def test_trace_just_under_the_sentinel_passes(self):
        report = check_width_contracts(trace_length=(1 << 30) - 1)
        assert report["trace_length"] == (1 << 30) - 1

    def test_errors_name_the_contract(self):
        with pytest.raises(SanitizerError, match=r"width-contracts\["):
            check_width_contracts(trace_length=1 << 40)


# ----------------------------------------------------------------------
# End-to-end: sanitize=True runs the width checks, bit-identically
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def prepared_run():
    return prepare_run(PageRank(), uniform_random(256, avg_degree=5.0,
                                                  seed=3))


class TestSanitizedWidthChecks:
    def test_prepared_contracts_pass_on_real_run(self, prepared_run):
        report = check_prepared_contracts(prepared_run)
        assert report["checks"] >= 1
        assert report["trace_length"] == len(prepared_run.trace)

    def test_sanitized_replay_reports_width_contracts(self, prepared_run):
        result = simulate_prepared(
            prepared_run, "P-OPT", scaled_hierarchy("tiny"), sanitize=True
        )
        report = result.details["width_contracts"]
        # Replay setup checks plus the per-matrix pass at RM build time.
        assert report["checks"] >= 2
        assert report["rm_entries_max"] < 1 << 8

    def test_unsanitized_replay_skips_width_checks(self, prepared_run):
        result = simulate_prepared(
            prepared_run, "P-OPT", scaled_hierarchy("tiny")
        )
        assert "width_contracts" not in result.details

    def test_bit_identical_to_unsanitized(self, prepared_run):
        hierarchy = scaled_hierarchy("tiny")
        for name in ("LRU", "P-OPT"):
            clean = simulate_prepared(prepared_run, name, hierarchy)
            sane = simulate_prepared(
                prepared_run, name, hierarchy, sanitize=True
            )
            assert clean.levels == sane.levels, name
            assert clean.cycles == sane.cycles, name


# ----------------------------------------------------------------------
# The retired static width rules' seeded bugs, caught at run time
# ----------------------------------------------------------------------


class TestRetiredDtypeRules:
    def test_wide_store_into_contract_field_fails(self):
        """``dtype-overflow``'s contract-bound fixture: an unguarded
        int64 running sum stored into the RM's entries field."""
        matrix = build_rereference_matrix(
            tiny_graph().transpose(), elems_per_line=16, entry_bits=8
        )
        matrix.entries = np.cumsum(matrix.entries.astype(np.int64), axis=1)
        with pytest.raises(SanitizerError, match=r"rm\.entries"):
            check_width_contracts(matrix=matrix)

    def test_unclamped_narrow_entry_fails(self):
        """``dtype-overflow``'s generic fixture on the one narrow counter
        the simulator stores: an unclamped distance in a 4-bit RM held in
        uint8 storage."""
        matrix = build_rereference_matrix(
            tiny_graph().transpose(), elems_per_line=16, entry_bits=4
        )
        entries = matrix.entries.copy()
        entries[0, 0] = np.int64(200)
        matrix.entries = entries
        with pytest.raises(SanitizerError, match="does not fit"):
            check_width_contracts(matrix=matrix)

    def test_wide_accumulation_into_narrow_counter_raises(self):
        """``dtype-overflow``'s accumulation fixture: numpy refuses an
        in-place int64 add into a uint16 counter (same-kind casting)."""
        counts = np.zeros(4, dtype=np.uint16)
        with pytest.raises(TypeError):
            counts += np.full(4, 70_000, dtype=np.int64)

    def test_vertex_ids_past_int32_rejected_before_the_cast(self):
        """``dtype-narrowing-cast``'s fixture: every int32 cast of vertex
        ids (CSR neighbors, trace vertices) is guarded by the vertex
        count checked at graph build."""
        with pytest.raises(GraphFormatError, match="int32"):
            from_edges(np.array([[0, MAX_VERTICES]], dtype=np.int64))
        with pytest.raises(GraphFormatError, match="int32"):
            from_edges(np.zeros((0, 2), dtype=np.int64),
                       num_vertices=MAX_VERTICES + 1)

    def test_mixed_width_arithmetic_allocates_only_its_result(self):
        """``dtype-implicit-upcast``'s premise was a materialized upcast
        copy of the narrow operand. numpy casts in buffered chunks, so
        ``int32 + int64`` peaks at the result's size, as aligned
        arithmetic does."""
        n = 1 << 20
        tags = np.zeros(n, dtype=np.int32)
        ages = np.zeros(n, dtype=np.int64)
        tracemalloc.start()
        try:
            total = tags + ages
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert total.dtype == np.int64
        # An upcast copy of ``tags`` would add another n * 8 bytes.
        assert peak < total.nbytes + n * 2
