"""Small multigraph utilities: blocks, path-bundle recognition, K4/e minors.

A multigraph is a vertex count plus an edge list; loops and parallel edges
are allowed and edges are labeled by their list index. The shape checks here
back the structural characterization of graphic matroids with no K4/e minor:
every block is a bridge, a circuit, or a subdivision of a two-vertex bundle
of t parallel edges. Blocks come from the fundamental cycles of one GF(2)
elimination, O(edges x vertices) mask XORs, sized for small graphs.
"""
from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Iterable
from dataclasses import dataclass
from typing import Optional

from .errors import BadIndex, BudgetExceeded, WrongShape, WrongType, _require_int, _require_type
from .matroid import CircuitMatroid, _fundamental_cycles, _graph_circuits, _merge_overlaps, has_minor

MAX_MINOR_EDGES = 14
SMALL_ORDERS = 12  # up to this many labellings, trying each beats the search's set-up


@dataclass(frozen=True)
class MultiGraph:
    """Vertices 0..n_vertices-1 with labeled edges; loops and parallels allowed."""

    n_vertices: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        _require_int(self.n_vertices, "vertex count")
        _require_type(self.edges, Iterable)
        if self.n_vertices < 0:
            raise BadIndex("vertex count must be nonnegative")
        norm = []
        for edge in self.edges:
            try:
                u, v = edge
            except (TypeError, ValueError):
                raise WrongShape(f"edge {edge!r} is not a pair of vertices") from None
            if not (type(u) is int and type(v) is int):
                raise WrongType(f"edge {edge!r} has a non-integer endpoint")
            if not (0 <= u < self.n_vertices and 0 <= v < self.n_vertices):
                raise BadIndex(f"edge ({u}, {v}) out of range")
            norm.append((u, v) if u <= v else (v, u))
        object.__setattr__(self, "edges", tuple(norm))

    def degrees(self) -> list[int]:
        """Degree per vertex; a loop contributes 2 to its endpoint."""
        deg = [0] * self.n_vertices
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return deg


def blocks(g: MultiGraph) -> list[frozenset[int]]:
    """Partition of the edge labels into 2-connected blocks, ordered by least edge.

    The blocks are the components of the cycle matroid: the classes of
    overlapping fundamental cycles, so each cycle is merged with every group
    it meets. An edge on no cycle is a bridge, a singleton block; a loop is
    its own cycle and block; parallel edges share a block (a 2-edge cycle).
    The elimination behind the cycles costs O(edges x vertices) mask XORs.
    """
    _require_type(g, MultiGraph)
    return [frozenset(b) for b in _merge_overlaps(_fundamental_cycles(g.edges), len(g.edges))]


def is_subdivision_of_At(g: MultiGraph) -> Optional[int]:
    """The t >= 3 when g is t internally disjoint paths between two hubs.

    Exactly when g has edges and no loop, is one block, and has two hubs
    (vertices of degree other than 0 and 2), both of degree t >= 3: with the
    degree-2 vertices suppressed, an ear from a hub back to itself would make
    it a cut vertex, so all t ears join the two hubs. Plain cycles (no hub)
    report None. The one-block test costs what `blocks` does.
    """
    _require_type(g, MultiGraph)
    if not g.edges or any(u == v for u, v in g.edges):
        return None
    hubs = [d for d in g.degrees() if d not in (0, 2)]
    if len(hubs) != 2 or hubs[0] != hubs[1] or hubs[0] < 3 or len(blocks(g)) != 1:
        return None
    return hubs[0]


def has_K4e_graph_minor(g: MultiGraph) -> bool:
    """Whether g has K4/e as a graph minor, searched block by block.

    K4/e is the 3-vertex multigraph with pair multiplicities 1, 2, 2 (a
    triangle with two doubled sides). Every graph minor gives a matroid
    minor, and a graph whose cycle matroid is M(K4/e) is K4/e plus isolated
    vertices: M(K4/e) is connected of rank 2, so its 5 edges form one block
    on 3 vertices with two parallel pairs. For the same reason M(K4/e) is a
    minor of the cycle matroid, the direct sum of its blocks' cycle
    matroids, only if it is a minor of one block's. So the verdict is the
    MK4e search of `matroid.has_minor` on each block's cycle matroid,
    skipping blocks below 5 edges or below cycle rank 3 (that of K4/e,
    which no minor raises). Loops are blocks of their own and block ranks
    sum to the graph's, so a graph with fewer than 5 loopless edges, or
    loopless cycle rank (edges - vertices + components) below 3, is False
    at once. Every other block within 14 edges is searched, its vertices
    relabelled 0..k-1 in order so that a repeated block is looked up in a
    bounded cache (`_block_has_K4e`); only when none has the minor and some
    are over the cap is BudgetExceeded raised, naming the largest. Skipped
    blocks may be any size.
    """
    _require_type(g, MultiGraph)
    loopless = [(u, v) for u, v in g.edges if u != v]
    if len(loopless) < 5 or len(_fundamental_cycles(loopless)) < 3:
        return False
    over = 0
    for block in blocks(g):
        edges = [g.edges[e] for e in sorted(block)]
        vertices = sorted({x for edge in edges for x in edge})
        if len(edges) < 5 or len(edges) - len(vertices) + 1 < 3:
            continue
        if len(edges) > MAX_MINOR_EDGES:
            over = max(over, len(edges))
        else:
            index = {x: i for i, x in enumerate(vertices)}
            if _block_has_K4e(tuple(sorted((index[u], index[v]) for u, v in edges))):
                return True
    if over:
        raise BudgetExceeded(f"a block of {over} edges exceeds the {MAX_MINOR_EDGES}-edge search cap")
    return False


@functools.lru_cache(maxsize=4096)
def _block_has_K4e(edges: tuple[tuple[int, int], ...]) -> bool:
    """The MK4e search on one block's cycle matroid, its vertices relabelled 0..k-1."""
    return has_minor(CircuitMatroid(len(edges), _graph_circuits(edges)), "MK4e") is not None


def _signature_classes(n: int, edges: tuple[tuple[int, int], ...]) -> list[list[int]]:
    """The vertices grouped by refined signature, the groups in signature order.

    A vertex's signature starts as (loops, non-loop degree) and is refined
    twice, each time paired with the sorted signatures of its neighbours;
    the groups are ordered as those nested tuples compare. Each round uses
    the ranks of the previous signatures in their place, which keeps that
    order, and stops early once a round splits no group (no later round
    would) or every group is one vertex.
    """
    loops = [0] * n
    neigh: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        if u == v:
            loops[u] += 1
        else:
            neigh[u].append(v)
            neigh[v].append(u)
    sig: list = [(loops[v], len(neigh[v])) for v in range(n)]
    classes: list[list[int]] = []
    for last in (False, False, True):
        index = {s: i for i, s in enumerate(sorted(set(sig)))}
        if len(index) == len(classes):
            break
        classes = [[] for _ in index]
        for v in range(n):
            classes[index[sig[v]]].append(v)
        if last or len(classes) == n:
            break
        rank = [index[x] for x in sig]
        sig = [(rank[v], tuple(sorted([rank[x] for x in neigh[v]]))) for v in range(n)]
    return classes


def _canonical_edges(
    n: int, edges: tuple[tuple[int, int], ...]
) -> tuple[tuple[int, int], ...]:
    """Lexicographically least relabeling among signature-preserving ones.

    Vertices get labels class by class, the classes in the order of their
    signature tuples (nested tuples of ints, compared as tuples), and the
    least sorted edge list over every order inside each class wins. Up to
    SMALL_ORDERS orders (one when every class is a singleton) are all tried.
    Past that they are searched depth first, one label at a time: a least
    sorted edge list is a greatest row-major vector of multiplicities over
    the types (0, 0), (0, 1), ..., so once labels 0..d-1 are placed, the
    unlabelled vertices of each class must follow in descending order of
    their multiplicity to label 0, ties in descending order to label 1, and
    so on; that ordered partition fixes rows 0..d-1, and a partial labelling
    whose rows fall below the best complete one is dropped. Twins, vertices
    whose swap fixes every multiplicity (an automorphism), are labelled in
    index order only.
    """
    classes = _signature_classes(n, edges)
    if math.prod(math.factorial(len(c)) for c in classes) <= SMALL_ORDERS:
        label = [0] * n
        best = None
        for parts in itertools.product(*(itertools.permutations(c) for c in classes)):
            for k, v in enumerate(itertools.chain.from_iterable(parts)):
                label[v] = k
            cand = tuple(
                sorted(
                    (label[u], label[v]) if label[u] <= label[v] else (label[v], label[u])
                    for u, v in edges
                )
            )
            if best is None or cand < best:
                best = cand
        return best if best is not None else ()
    mult = [[0] * n for _ in range(n)]
    for u, v in edges:
        mult[u][v] += 1
        if u != v:
            mult[v][u] += 1
    twin = [-1] * n  # the previous twin of each vertex
    for c in classes:
        for i, v in enumerate(c):
            for u in reversed(c[:i]):
                if mult[u][u] == mult[v][v] and all(
                    mult[u][x] == mult[v][x] for x in range(n) if x != u and x != v
                ):
                    twin[v] = u
                    break
    rows: list[int] = []  # rows 0..d-1 of the vector, fixed by labels 0..d-1
    best_rows: list[int] = []

    def search(cells: list[list[int]]) -> None:
        if rows < best_rows[: len(rows)]:
            return
        if not cells:
            best_rows[:] = rows
            return
        for v in cells[0]:
            if twin[v] in cells[0]:
                continue
            row = mult[v]
            split: list[list[int]] = []
            for cell in [[x for x in cells[0] if x != v]] + cells[1:]:
                groups: dict[int, list[int]] = {}
                for x in cell:
                    groups.setdefault(row[x], []).append(x)
                split += [groups[k] for k in sorted(groups, reverse=True)]
            size = len(rows)
            rows.append(row[v])
            rows.extend([row[x] for cell in split for x in cell])
            search(split)
            del rows[size:]

    search(classes)
    return tuple(t for t, k in zip(_edge_types(n), best_rows) for _ in range(k))


def _edge_types(n: int) -> list[tuple[int, int]]:
    """Every vertex pair (u, v), u <= v, of an n-vertex multigraph, in lexicographic order."""
    return [(u, v) for u in range(n) for v in range(u, n)]


def _automorphisms(n: int, edges: tuple[tuple[int, int], ...]) -> list[tuple[int, ...]]:
    """The non-identity automorphisms of a multigraph, as maps on edge types.

    An automorphism σ becomes the tuple whose i-th entry is the index in
    `_edge_types(n)` of the image of the i-th edge type; each edge (u, v)
    has u <= v. Only relabelings inside the signature classes are tried: an
    automorphism keeps every vertex's refined signature.
    """
    types = _edge_types(n)
    index = {t: i for i, t in enumerate(types)}
    edge_ids = sorted(index[e] for e in edges)
    classes = _signature_classes(n, edges)
    identity = list(range(n))
    image = identity[:]
    out = []
    for parts in itertools.product(*(itertools.permutations(c) for c in classes)):
        for c, p in zip(classes, parts):
            for v, w in zip(c, p):
                image[v] = w
        if image == identity:
            continue
        sigma = tuple(
            index[(image[u], image[v]) if image[u] <= image[v] else (image[v], image[u])]
            for u, v in types
        )
        if sorted(sigma[i] for i in edge_ids) == edge_ids:
            out.append(sigma)
    return out


def _next_tree_level(
    trees: list[tuple[tuple[int, int], ...]], m: int
) -> list[tuple[tuple[int, int], ...]]:
    """The canonical trees on m vertices, sorted, from those on m - 1.

    Every tree on m vertices is a tree on m - 1 vertices plus a leaf, so
    attaching vertex m - 1 to each vertex of each canonical tree on m - 1
    vertices reaches every class, and `_canonical_edges` merges the
    duplicates.
    """
    return sorted(
        {
            _canonical_edges(m, tree + ((v, m - 1),))
            for tree in trees
            for v in range(m - 1)
        }
    )


def enumerate_connected_multigraphs(
    max_vertices: int, max_edges: int
) -> list[MultiGraph]:
    """All connected multigraphs up to isomorphism within the given bounds.

    Loops and parallel edges included; one canonical representative per class.
    Every connected multigraph is a spanning tree plus extra edges, so the
    sweep grows each canonical tree T by all extra-edge multisets, k extras
    at a time in the lexicographic order of their sorted edge-type indices —
    far fewer candidates than enumerating raw edge multisets. The spanning
    trees are grown one leaf at a time, once per call, keeping one
    representative per class by `_canonical_edges`.

    An extra is skipped, without a canonical form, when an automorphism σ of
    T maps it to a smaller sorted index tuple. That is sound and keeps the
    output order: σ is an isomorphism from T + extra onto T + σ(extra), and
    σ(extra) came earlier in the same (T, k) loop, so its class — the
    class of this extra — is already in the output, and no first occurrence
    of a class is ever skipped. Aut(T) is computed once per tree, and only
    when extras fit within the edge bound. The k-extras are grown from the
    (k-1)-extras kept, each extended by a type no smaller than its last: a
    multiset that is least in its Aut(T) orbit stays least with its largest
    element dropped, and parents in order with the new type ascending give
    the lexicographic order.
    """
    _require_int(max_vertices, "vertex bound")
    _require_int(max_edges, "edge bound")
    out: list[MultiGraph] = []
    trees: list[tuple[tuple[int, int], ...]] = [()]
    for n in range(1, max_vertices + 1):
        if n - 1 > max_edges:
            break
        if n > 1:
            trees = _next_tree_level(trees, n)
        types = _edge_types(n)
        room = max_edges - (n - 1)
        seen: set[tuple[tuple[int, int], ...]] = set()
        for tree in trees:
            autos = _automorphisms(n, tree) if room else []
            kept: list[tuple[int, ...]] = [()]
            for k in range(room + 1):
                if k:
                    kept = [
                        extra
                        for parent in kept
                        for extra in (parent + (t,) for t in range(parent[-1] if parent else 0, len(types)))
                        if not any(tuple(sorted(map(s.__getitem__, extra))) < extra for s in autos)
                    ]
                for extra in kept:
                    canon = _canonical_edges(n, tree + tuple(types[i] for i in extra))
                    if canon not in seen:
                        seen.add(canon)
                        out.append(MultiGraph(n, canon))
    return out
