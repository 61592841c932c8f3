"""Shared fixtures: fields, exhaustive subspace sweeps and seeded multigraphs reused across tests."""
from __future__ import annotations

import random

import pytest

from clutterforge.gf import build_field
from clutterforge.graphs import MultiGraph
from clutterforge.verify import enumerate_subspaces


@pytest.fixture(scope="session")
def f2():
    return build_field(2)


@pytest.fixture(scope="session")
def f3():
    return build_field(3)


@pytest.fixture(scope="session")
def f4():
    return build_field(4)


@pytest.fixture(scope="session")
def f8():
    return build_field(8)


@pytest.fixture(scope="session")
def subspaces_gf2_3():
    return list(enumerate_subspaces(2, 3))


@pytest.fixture(scope="session")
def subspaces_gf3_3():
    return list(enumerate_subspaces(3, 3))


@pytest.fixture(scope="session")
def subspaces_gf4_3():
    return list(enumerate_subspaces(4, 3))


@pytest.fixture(scope="session")
def subspaces_gf3_4():
    return list(enumerate_subspaces(3, 4))


@pytest.fixture(scope="session")
def random_multigraphs():
    """Seeded multigraphs on at most 7 vertices and 10 edges, then the 14-edge bundle.

    Endpoints are drawn uniformly, so loops, parallel edges and disconnected
    graphs all occur; the last graph is two vertices joined by 14 edges, the
    largest input the K4/e search accepts.
    """
    rng = random.Random(2026)
    graphs = []
    for _ in range(200):
        n = rng.randint(1, 7)
        edges = tuple((rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 10)))
        graphs.append(MultiGraph(n, edges))
    graphs.append(MultiGraph(2, ((0, 1),) * 14))
    return graphs
