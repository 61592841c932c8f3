"""Shared fixtures: fields, exhaustive subspace sweeps and seeded multigraphs reused across tests."""
from __future__ import annotations

import random

import pytest

from clutterforge.gf import build_field
from clutterforge.graphs import MultiGraph
from clutterforge.verify import enumerate_subspaces
from clutterforge.vspace import _monomial_generators, span, support


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
def structure_spaces():
    """Every subspace of GF(2)^4, GF(2)^5, GF(3)^3, GF(3)^4, GF(4)^3, GF(4)^4, GF(5)^3 and GF(8)^3."""
    shapes = ((2, 4), (2, 5), (3, 3), (3, 4), (4, 3), (4, 4), (5, 3), (8, 3))
    return [s for q, n in shapes for s in enumerate_subspaces(q, n)]


def _support_line_by_scan(space, supp):
    """The line of the space with support exactly supp, found by scanning every point.

    The points supported inside supp must be one line (q points) whose q - 1
    nonzero points all have support supp. Returns the first of those in
    sorted order, scaled to 1 at min(supp), or None.
    """
    inside = [p for p in sorted(space.points()) if support(p) <= supp]
    exact = [p for p in inside if support(p) == supp]
    if len(inside) != space.q or len(exact) != space.q - 1:
        return None
    f = space.field
    return f.vec_scale(f.inv(exact[0][min(supp)]), exact[0])


@pytest.fixture(scope="session")
def support_line_by_scan():
    """The point-scan route to a support's line, the reference for vspace._support_line."""
    return _support_line_by_scan


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


def _monomial_image_by_span(sigma, space):
    """The image of the space under the relabeling sigma, built by span from the image rows."""
    rows = []
    for row in space.basis:
        y = [0] * space.n
        for i, v in enumerate(row):
            j, b = sigma[(i, v)]
            y[j] = b
        rows.append(y)
    return span(space.field, space.n, rows)


def _monomial_orbits_by_subspaces(spaces):
    """Monomial orbits by a BFS that builds every image as a Subspace through span.

    Same contract as vspace.monomial_orbits: per subspace, the index of its
    orbit's first subspace and the composed relabeling along the BFS path.
    """
    field, n = spaces[0].field, spaces[0].n
    gens = _monomial_generators(field, n)
    where = {space.basis: k for k, space in enumerate(spaces)}
    orbits = [None] * len(spaces)
    for k in range(len(spaces)):
        if orbits[k] is not None:
            continue
        orbits[k] = (k, {(i, a): (i, a) for i in range(n) for a in range(field.q)})
        queue = [k]
        for cur in queue:
            sigma = orbits[cur][1]
            for g in gens:
                j = where[_monomial_image_by_span(g, spaces[cur]).basis]
                if orbits[j] is None:
                    orbits[j] = (k, {e: g[sigma[e]] for e in sigma})
                    queue.append(j)
    return orbits


@pytest.fixture(scope="session")
def monomial_image_by_span():
    """The span route to a monomial image, the reference for vspace.monomial_image."""
    return _monomial_image_by_span


@pytest.fixture(scope="session")
def monomial_orbits_by_subspaces():
    """The Subspace-building orbit search, the reference for vspace.monomial_orbits."""
    return _monomial_orbits_by_subspaces
