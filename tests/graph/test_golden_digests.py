"""Golden digests of every named graph, so a build change cannot
silently alter a graph.

Each digest is the sha256 of the little-endian int64 ``offsets`` bytes
followed by the little-endian int32 ``neighbors`` bytes, built with
``datasets.load(name, scale, seed=42)``. They were recorded with the
``np.unique``/``np.lexsort`` build that the packed-key sort replaced,
which is what makes them an oracle for it. A deliberate change to a
generator or to the build must update them, and say why.
"""

import hashlib

import pytest

from repro.graph import datasets

GOLDEN = {
    ("DBP", "tiny"): (
        "e370bc17c91929e38e7cffd070504364861f22d5f75bc68aeb3142dde02692a8"
    ),
    ("DBP", "small"): (
        "a85486b3ac9cd6f8b255a660b12d3577b0feecc7e19d6e66590a17f5db19be08"
    ),
    ("UK-02", "tiny"): (
        "c508be10f25870b03ac64178d0831b94cb11d612dfffb6151985abbeba3830a6"
    ),
    ("UK-02", "small"): (
        "deda9c84fea29f82e9cd674c9e6545849d3e7dde88e35ef1ed69da709a9a78c5"
    ),
    ("KRON", "tiny"): (
        "b5a751b02aff6945bd31b84397c86f86561b4a760cc3f7c7c18ec1c647a0871b"
    ),
    ("KRON", "small"): (
        "62d67755b67f46266694fe45f005f7ed8fbadd930c8a643c318c2483b4c8d9ac"
    ),
    ("URAND", "tiny"): (
        "7a39047a580fe330b34d30e04ab67eadd262b81b670a93893b0103e06cad3eec"
    ),
    ("URAND", "small"): (
        "23ca86cbb61bf871595d137985f309d96582ffb58e058e6519707195d0025036"
    ),
    ("HBUBL", "tiny"): (
        "73553f73ff76234e187b624351ab4fa5db3816e0522ac6b793954d88f701e166"
    ),
    ("HBUBL", "small"): (
        "8266fa15f9833f000397b939037765894ba15aeb517c9d39c901ba6845c39efd"
    ),
    ("GPL", "tiny"): (
        "e29a219d3834af425f4e8c080baeef1bd15795f65fa1ccdd04533fa44545b0fd"
    ),
    ("GPL", "small"): (
        "47e2b4df81bf1593b63c790bc798e0037c33b7f0beffc08c0374cd1e51c56ee4"
    ),
    ("ARAB", "tiny"): (
        "15673b478071992f351756975544825fc623c300327423f59b9e6762baee075c"
    ),
    ("ARAB", "small"): (
        "3df7b2c875b310cc07c56538a1be10ab0f0ee9abd9fdad3297882b98a39cb275"
    ),
    ("URAND64", "tiny"): (
        "b2b22b2366008ed4455796b65ca41750bc0a162ad62e9901c2995a3ade207521"
    ),
    ("URAND64", "small"): (
        "88d118e868556bd9286a950d0c6f7073159ab7d8665023344cc3b3e4dbc81c73"
    ),
}


#: The power-law stand-ins at the scales e2ebench and the paper-scale
#: runs use, so the guide-table draw in ``generators.power_law`` is pinned
#: to ``Generator.choice``'s stream where its buckets are widest. Recorded
#: with the ``rng.choice`` draw that the guide table replaced.
GOLDEN_LARGE = {
    ("DBP", "medium"): (
        "befd9ccbc6d72ee87ab2a2bf2415accc83a54965e9fa4339338adafe01d1f981"
    ),
    ("DBP", "large"): (
        "d6a2bc618f459b837b93964389d05ba09230079b1c2c3e384a80ba507b0f26fe"
    ),
    ("GPL", "medium"): (
        "2c5a6cb766ef1f4dcd7c9f7f44e4f2f176664f41311f1cc56b1ee8aa65a4bdc4"
    ),
    ("GPL", "large"): (
        "b590fc54330c549c26bcfb36cd8136d09215d523df220730dc062aa21dfcbcf4"
    ),
}


def graph_digest(graph) -> str:
    digest = hashlib.sha256()
    digest.update(graph.offsets.astype("<i8").tobytes())
    digest.update(graph.neighbors.astype("<i4").tobytes())
    return digest.hexdigest()


def test_every_named_graph_is_pinned():
    names = {spec.name for spec in datasets.PAPER_GRAPHS
             + datasets.EXTENDED_GRAPHS}
    assert {name for name, _ in GOLDEN} == names
    assert {scale for _, scale in GOLDEN} == {"tiny", "small"}


@pytest.mark.parametrize("name,scale", sorted(GOLDEN))
def test_graph_matches_golden_digest(name, scale):
    graph = datasets.load(name, scale=scale, seed=42)
    assert graph_digest(graph) == GOLDEN[(name, scale)]


@pytest.mark.parametrize("name,scale", sorted(GOLDEN_LARGE))
def test_power_law_graph_matches_golden_digest_at_scale(name, scale):
    graph = datasets.load(name, scale=scale, seed=42)
    assert graph_digest(graph) == GOLDEN_LARGE[(name, scale)]
