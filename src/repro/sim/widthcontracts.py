"""Runtime width-contract checks.

This module checks the declared storage widths
(:data:`repro.sim.constants.WIDTH_CONTRACTS`) on sanitized runs: a
narrow field fed an unguarded wide value fails here, not in a static
pass (DESIGN.md §9 maps the retired static rules to these checks). It
mirrors the :class:`~repro.cache.sanitizer.CacheSanitizer`
pattern: read-only assertions, a where-prefixed
:class:`~repro.errors.SanitizerError` on violation, and bit-identical
results — :func:`check_width_contracts` only ever computes maxima over
existing arrays.

``simulate_prepared(..., sanitize=True)`` invokes it twice:

- at replay setup over the prepared run (trace length vs the next-use
  sentinels, every irregular stream's reference graph vs the CSR
  contracts);
- at Rereference Matrix build time over each constructed matrix
  (storage dtype vs ``entry_bits``, entry maxima vs ``2^entry_bits``,
  epoch count vs the epoch-index contract).
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from ..errors import SanitizerError
from .constants import TOPT_NEVER, POPT_STREAMING_NEXT_REF, WIDTH_CONTRACTS

__all__ = ["check_width_contracts", "check_prepared_contracts"]


def _fail(where: str, message: str) -> None:
    raise SanitizerError(f"width-contracts[{where}]: {message}")


def _declared(name: str) -> Dict[str, object]:
    spec = WIDTH_CONTRACTS.get(name)
    if spec is None:
        _fail(name, "contract missing from constants.WIDTH_CONTRACTS")
    return spec  # type: ignore[return-value]


def _check_dtype(where: str, array: np.ndarray, spec: Dict[str, object],
                 expect: Optional[str] = None) -> None:
    admissible = spec["dtype"]
    if expect is not None:
        if array.dtype.name != expect:
            _fail(
                where,
                f"storage dtype is {array.dtype.name}, declared "
                f"{expect}",
            )
    elif array.dtype.name not in admissible:  # type: ignore[operator]
        _fail(
            where,
            f"storage dtype is {array.dtype.name}, contract admits "
            f"{admissible}",
        )


def check_width_contracts(
    matrix=None,
    graph=None,
    trace_length: Optional[int] = None,
) -> Dict[str, int]:
    """Assert actual maxima fit the declared widths; return what was
    measured (recorded under ``details["width_contracts"]``).

    ``matrix`` is a :class:`~repro.popt.rereference.RereferenceMatrix`,
    ``graph`` a :class:`~repro.graph.csr.CSRGraph`, ``trace_length`` the
    access-trace length; any subset may be given. Never mutates its
    arguments.
    """
    measured: Dict[str, int] = {}

    if matrix is not None:
        spec = _declared("rm.entries")
        entry_bits = int(matrix.entry_bits)
        if entry_bits > int(spec["max_bits"]):  # type: ignore[arg-type]
            _fail(
                "rm.entries",
                f"entry_bits={entry_bits} exceeds the declared "
                f"{spec['max_bits']}-bit ceiling",
            )
        expect = "uint16" if entry_bits > 8 else "uint8"
        _check_dtype("rm.entries", matrix.entries, spec, expect=expect)
        ceiling = 1 << entry_bits
        top = int(matrix.entries.max()) if matrix.entries.size else 0
        if top >= ceiling:
            _fail(
                "rm.entries",
                f"stored entry {top} does not fit the declared "
                f"{entry_bits}-bit encoding (max {ceiling - 1})",
            )
        measured["rm_entries_max"] = top
        epoch_spec = _declared("rm.epoch_index")
        num_epochs = int(matrix.num_epochs)
        if num_epochs > ceiling:
            _fail(
                "rm.epoch_index",
                f"{num_epochs} epoch columns exceed the 2^entry_bits="
                f"{ceiling} addressable by a {entry_bits}-bit entry",
            )
        if num_epochs > 1 << int(epoch_spec["max_bits"]):  # type: ignore[arg-type]
            _fail(
                "rm.epoch_index",
                f"{num_epochs} epoch columns exceed the declared "
                f"{epoch_spec['max_bits']}-bit epoch index",
            )
        measured["rm_num_epochs"] = num_epochs

    if graph is not None:
        off_spec = _declared("csr.offsets")
        _check_dtype("csr.offsets", graph.offsets, off_spec)
        nbr_spec = _declared("csr.neighbors")
        _check_dtype("csr.neighbors", graph.neighbors, nbr_spec)
        num_edges = int(graph.offsets[-1]) if len(graph.offsets) else 0
        if num_edges >> int(off_spec["max_bits"]):  # type: ignore[arg-type]
            _fail(
                "csr.offsets",
                f"edge count {num_edges} exceeds the declared "
                f"{off_spec['max_bits']}-bit offset range",
            )
        measured["csr_num_edges"] = num_edges
        nbr_max = int(graph.neighbors.max()) if graph.neighbors.size else -1
        nbr_ceiling = 1 << int(nbr_spec["max_bits"])  # type: ignore[arg-type]
        if nbr_max >= nbr_ceiling:
            _fail(
                "csr.neighbors",
                f"neighbor id {nbr_max} does not fit the declared "
                f"{nbr_spec['max_bits']}-bit range",
            )
        measured["csr_neighbors_max"] = nbr_max
        vtx_spec = _declared("trace.vertex")
        num_vertices = int(graph.num_vertices)
        if num_vertices > min(1 << int(vtx_spec["max_bits"]), TOPT_NEVER):  # type: ignore[arg-type]
            _fail(
                "trace.vertex",
                f"{num_vertices} vertices reach the TOPT_NEVER "
                f"sentinel ({TOPT_NEVER}); never-again lines would be "
                f"indistinguishable from real vertices",
            )
        measured["num_vertices"] = num_vertices

    if trace_length is not None:
        spec = _declared("trace.next_use")
        ceiling = min(
            1 << int(spec["max_bits"]),  # type: ignore[arg-type]
            POPT_STREAMING_NEXT_REF,
        )
        if trace_length >= ceiling:
            _fail(
                "trace.next_use",
                f"trace length {trace_length} reaches the streaming "
                f"next-ref sentinel ({POPT_STREAMING_NEXT_REF}); real "
                f"next-use indices would collide with it",
            )
        measured["trace_length"] = int(trace_length)

    measured["checks"] = measured.get("checks", 0) + len(measured)
    return measured


def check_prepared_contracts(prepared) -> Dict[str, int]:
    """Contract pass over a whole PreparedRun (replay setup time)."""
    summary = check_width_contracts(trace_length=len(prepared.trace))
    for irregular in prepared.irregular_streams:
        report = check_width_contracts(graph=irregular.reference_graph)
        for key, value in report.items():
            summary[key] = max(summary.get(key, 0), value) \
                if key != "checks" else summary.get("checks", 0) + value
    return summary
