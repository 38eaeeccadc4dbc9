"""PR, tiled PR, CC and PB hand ``PreparedRun`` a deferred answer: their
traces do not depend on it, so ``prepare`` never runs the reference
algorithm, and the first read of ``reference_result`` runs it once."""

import pickle
from unittest import mock

import numpy as np
import pytest

from repro.apps import (
    ConnectedComponents,
    PageRank,
    PropagationBlockingBinning,
    TiledPageRank,
    binning_reference,
    pagerank_reference,
    shiloach_vishkin_reference,
)
from repro.apps.base import Deferred, PreparedRun
from repro.graph import uniform_random

#: (app factory, where prepare looks the reference up, the direct call)
CASES = {
    "PR": (
        PageRank,
        "repro.apps.pagerank.pagerank_reference",
        lambda graph, app: pagerank_reference(graph),
    ),
    "PR-Tiled": (
        TiledPageRank,
        "repro.apps.tiled_pagerank.pagerank_reference",
        lambda graph, app: pagerank_reference(graph),
    ),
    "CC": (
        ConnectedComponents,
        "repro.apps.components.shiloach_vishkin_reference",
        lambda graph, app: shiloach_vishkin_reference(graph),
    ),
    "PB": (
        PropagationBlockingBinning,
        "repro.apps.pb.binning_reference",
        lambda graph, app: binning_reference(graph, app.num_bins),
    ),
    "PHI": (
        lambda: PropagationBlockingBinning(phi=True),
        "repro.apps.pb.binning_reference",
        lambda graph, app: binning_reference(graph, app.num_bins),
    ),
}


@pytest.fixture(scope="module")
def graph():
    return uniform_random(400, avg_degree=6.0, seed=11)


@pytest.mark.parametrize("name", sorted(CASES))
def test_prepare_does_not_run_the_reference(name, graph):
    factory, target, _ = CASES[name]
    with mock.patch(target, side_effect=AssertionError("reference ran")):
        prepared = factory().prepare(graph)
    assert len(prepared.trace) > 0


@pytest.mark.parametrize("name", sorted(CASES))
def test_forced_reference_equals_a_direct_call(name, graph):
    factory, _, direct = CASES[name]
    app = factory()
    prepared = app.prepare(graph)
    first = prepared.reference_result
    assert np.array_equal(first, direct(graph, app))
    # Computed once, then cached.
    assert prepared.reference_result is first


def test_unforced_prepared_run_pickles(graph):
    prepared = pickle.loads(pickle.dumps(PageRank().prepare(graph)))
    assert np.array_equal(
        prepared.reference_result, pagerank_reference(graph)
    )


def test_values_and_defaults_pass_through():
    calls = []

    def answer():
        calls.append(1)
        return 42

    def run(**kwargs):
        return PreparedRun("app", None, None, [], **kwargs)

    lazy = run(reference_result=Deferred(answer))
    assert calls == []
    assert lazy.reference_result == 42 and lazy.reference_result == 42
    assert calls == [1]
    assert run(reference_result=7).reference_result == 7
    assert run().reference_result is None
