"""Tests for multigraph blocks, bundle-subdivision recognition, K4/e minors."""
from __future__ import annotations

import itertools
import math
import random

import pytest

from clutterforge.errors import BadIndex, BudgetExceeded
from clutterforge.graphs import (
    SMALL_ORDERS,
    MultiGraph,
    _automorphisms,
    _block_has_K4e,
    _canonical_edges,
    _edge_types,
    _signature_classes,
    blocks,
    enumerate_connected_multigraphs,
    has_K4e_graph_minor,
    is_subdivision_of_At,
)
from clutterforge.matroid import CircuitMatroid, _fundamental_cycles, _graph_circuits, has_minor
from test_acceptance import wall_clock_under


def bundle(t: int) -> MultiGraph:
    """Two vertices joined by t parallel edges."""
    return MultiGraph(2, tuple((0, 1) for _ in range(t)))


def cycle(k: int) -> MultiGraph:
    return MultiGraph(k, tuple((i, (i + 1) % k) for i in range(k)))


def spanning_trees(n: int) -> list:
    """One canonical edge tuple per free tree on n vertices, read off the public enumerator."""
    return [g.edges for g in enumerate_connected_multigraphs(n, n - 1) if g.n_vertices == n]


K4 = MultiGraph(4, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)))
K4E = MultiGraph(3, ((0, 1), (0, 2), (0, 2), (1, 2), (1, 2)))


# -- reference: the exhaustive graph-side search, every 5-edge subset kept and
# the other edges split into deletions and contractions with a union-find -----

class _UnionFind:
    def __init__(self, n: int) -> None:
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


def _cyclomatic(g: MultiGraph) -> int:
    uf = _UnionFind(g.n_vertices)
    active = set()
    for u, v in g.edges:
        uf.union(u, v)
        active.add(u)
        active.add(v)
    roots = {uf.find(v) for v in active}
    return len(g.edges) - (len(active) - len(roots))


def _component_count(g: MultiGraph) -> int:
    uf = _UnionFind(g.n_vertices)
    for u, v in g.edges:
        uf.union(u, v)
    return len({uf.find(v) for v in range(g.n_vertices)})


def ref_has_K4e_graph_minor(g: MultiGraph) -> bool:
    """Some delete/contract split of the other edges leaves 5 edges forming K4/e."""
    m = len(g.edges)
    if m < 5 or _cyclomatic(g) < 3:
        return False
    for keep in itertools.combinations(range(m), 5):
        keep_set = set(keep)
        rest = [e for e in range(m) if e not in keep_set]
        for flags in itertools.product((False, True), repeat=len(rest)):
            uf = _UnionFind(g.n_vertices)
            for e, contracted in zip(rest, flags):
                if contracted:
                    uf.union(*g.edges[e])
            counts: dict[tuple[int, int], int] = {}
            vertices = set()
            ok = True
            for e in keep:
                a, b = uf.find(g.edges[e][0]), uf.find(g.edges[e][1])
                if a == b:
                    ok = False  # kept edge became a loop
                    break
                pair = (a, b) if a <= b else (b, a)
                counts[pair] = counts.get(pair, 0) + 1
                vertices.add(a)
                vertices.add(b)
            if ok and len(vertices) == 3 and sorted(counts.values()) == [1, 2, 2]:
                return True
    return False


# -- reference: the Tarjan DFS and the path walk that `blocks` and
# `is_subdivision_of_At` replaced, kept verbatim but for the adjacency
# lists, which were a MultiGraph method -----------------------------------

def _ref_adjacency(g: MultiGraph) -> list[list[tuple[int, int]]]:
    """Per-vertex list of (edge label, other endpoint)."""
    adj: list[list[tuple[int, int]]] = [[] for _ in range(g.n_vertices)]
    for e, (u, v) in enumerate(g.edges):
        adj[u].append((e, v))
        if u != v:
            adj[v].append((e, u))
    return adj


def ref_blocks(g: MultiGraph) -> list[frozenset[int]]:
    adj = _ref_adjacency(g)
    disc = [-1] * g.n_vertices
    low = [0] * g.n_vertices
    out: list[frozenset[int]] = []
    stack: list[int] = []
    counter = itertools.count()

    def dfs(root: int) -> None:
        # iterative DFS so deep paths cannot overflow the recursion limit
        work = [(root, -1, iter(adj[root]))]
        disc[root] = low[root] = next(counter)
        while work:
            u, parent_edge, it = work[-1]
            advanced = False
            for e, v in it:
                if e == parent_edge:
                    continue
                if v == u:
                    out.append(frozenset({e}))
                    continue
                if disc[v] == -1:
                    stack.append(e)
                    disc[v] = low[v] = next(counter)
                    work.append((v, e, iter(adj[v])))
                    advanced = True
                    break
                if disc[v] < disc[u]:
                    stack.append(e)
                    low[u] = min(low[u], disc[v])
            if advanced:
                continue
            work.pop()
            if work:
                p = work[-1][0]
                low[p] = min(low[p], low[u])
                if low[u] >= disc[p]:
                    block = set()
                    while True:
                        e = stack.pop()
                        block.add(e)
                        if e == parent_edge:
                            break
                    out.append(frozenset(block))

    for r in range(g.n_vertices):
        if disc[r] == -1:
            dfs(r)
    return out


def ref_is_subdivision_of_At(g: MultiGraph):
    if not g.edges or any(u == v for u, v in g.edges):
        return None
    deg = g.degrees()
    hubs = [v for v in range(g.n_vertices) if deg[v] not in (0, 2)]
    if len(hubs) != 2:
        return None
    u, w = hubs
    t = deg[u]
    if t != deg[w] or t < 3:
        return None
    adj = _ref_adjacency(g)
    used = [False] * len(g.edges)
    paths = 0
    for e0, v0 in adj[u]:
        if used[e0]:
            continue
        used[e0] = True
        cur, prev_edge = v0, e0
        while cur != w:
            if cur == u:
                return None  # walked back into the start hub: a cycle at u
            nxt = [(e, x) for e, x in adj[cur] if e != prev_edge and not used[e]]
            if len(nxt) != 1:
                return None
            prev_edge, cur = nxt[0][0], nxt[0][1]
            used[prev_edge] = True
        paths += 1
    if paths != t or not all(used):
        return None
    return t


def theta(paths: int, length: int) -> MultiGraph:
    """Hubs 0 and 1 joined by `paths` internally disjoint paths of `length` edges."""
    edges = []
    n = 2
    for _ in range(paths):
        prev = 0
        for _ in range(length - 1):
            edges.append((prev, n))
            prev, n = n, n + 1
        edges.append((prev, 1))
    return MultiGraph(n, tuple(edges))


def large_graphs() -> list[MultiGraph]:
    """A 5,000-edge path, a 1,000-edge bundle, 200 paths of 5, the 30x30 grid, K60."""
    grid = [(30 * r + c, 30 * r + c + 1) for r in range(30) for c in range(29)]
    grid += [(30 * r + c, 30 * r + c + 30) for r in range(29) for c in range(30)]
    return [
        MultiGraph(5001, tuple((i, i + 1) for i in range(5000))),
        bundle(1000),
        theta(200, 5),
        MultiGraph(900, tuple(grid)),
        MultiGraph(60, tuple(itertools.combinations(range(60), 2))),
    ]


def random_small_multigraphs(count: int, seed: int) -> list[MultiGraph]:
    """Seeded graphs on 1-8 vertices and 0-12 uniform edges: loops, parallels, isolated vertices."""
    rng = random.Random(seed)
    graphs = []
    for _ in range(count):
        n = rng.randint(1, 8)
        graphs.append(MultiGraph(n, tuple((rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 12)))))
    return graphs


class TestBlocksMatchTheGraphWalks:
    @staticmethod
    def assert_match(graphs: list[MultiGraph]) -> None:
        for g in graphs:
            assert sorted(map(sorted, blocks(g))) == sorted(map(sorted, ref_blocks(g))), (g.n_vertices, g.edges)
            assert is_subdivision_of_At(g) == ref_is_subdivision_of_At(g), (g.n_vertices, g.edges)

    def test_blocks_come_ordered_by_least_edge(self):
        for g in random_small_multigraphs(200, 5):
            assert [min(b) for b in blocks(g)] == sorted(min(b) for b in blocks(g))

    def test_every_connected_multigraph_up_to_8_vertices_and_8_edges(self):
        graphs = enumerate_connected_multigraphs(8, 8)
        assert len(graphs) == 6414
        self.assert_match(graphs)
        assert sum(ref_is_subdivision_of_At(g) is not None for g in graphs) > 20

    def test_random_multigraphs(self):
        graphs = random_small_multigraphs(2000, 15)
        assert any(u == v for g in graphs for u, v in g.edges)
        assert any(len(g.edges) != len(set(g.edges)) for g in graphs)
        assert any(0 in g.degrees() for g in graphs)
        self.assert_match(graphs)

    def test_large_graphs_and_thetas(self):
        large = large_graphs()
        self.assert_match(large + [theta(t, length) for t in range(1, 8) for length in (1, 2, 3, 5)])
        assert [is_subdivision_of_At(g) for g in large] == [None, 1000, 200, None, None]

    def test_fundamental_cycle_count_is_the_cycle_rank(self):
        graphs = random_small_multigraphs(500, 16) + enumerate_connected_multigraphs(5, 7)
        for g in graphs:
            rank = g.n_vertices - _component_count(g)
            assert len(_fundamental_cycles(g.edges)) == len(g.edges) - rank, (g.n_vertices, g.edges)


class TestMultiGraph:
    def test_endpoint_normalization(self):
        g = MultiGraph(3, ((2, 1),))
        assert g.edges == ((1, 2),)

    def test_out_of_range(self):
        with pytest.raises(BadIndex):
            MultiGraph(2, ((0, 2),))
        with pytest.raises(BadIndex):
            MultiGraph(1, ((-1, 0),))

    def test_degrees_count_loops_twice(self):
        g = MultiGraph(2, ((0, 0), (0, 1)))
        assert g.degrees() == [3, 1]


class TestBlocks:
    def test_bundle_single_block(self):
        assert blocks(bundle(3)) == [frozenset({0, 1, 2})]

    def test_path_three_bridges(self):
        g = MultiGraph(4, ((0, 1), (1, 2), (2, 3)))
        assert sorted(blocks(g), key=min) == [
            frozenset({0}),
            frozenset({1}),
            frozenset({2}),
        ]

    def test_two_triangles_sharing_vertex(self):
        g = MultiGraph(5, ((0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)))
        assert sorted(blocks(g), key=min) == [
            frozenset({0, 1, 2}),
            frozenset({3, 4, 5}),
        ]

    def test_loop_is_own_block(self):
        g = MultiGraph(2, ((0, 0), (0, 1)))
        assert sorted(blocks(g), key=min) == [frozenset({0}), frozenset({1})]

    def test_parallel_pair_shares_block(self):
        g = MultiGraph(3, ((0, 1), (0, 1), (1, 2)))
        assert sorted(blocks(g), key=min) == [frozenset({0, 1}), frozenset({2})]

    def test_disconnected(self):
        g = MultiGraph(4, ((0, 1), (2, 3)))
        assert sorted(blocks(g), key=min) == [frozenset({0}), frozenset({1})]

    def test_empty(self):
        assert blocks(MultiGraph(3, ())) == []

    def test_partition_property(self):
        for g in enumerate_connected_multigraphs(4, 5):
            bs = blocks(g)
            all_edges = sorted(e for b in bs for e in b)
            assert all_edges == list(range(len(g.edges)))


class TestSubdivisionRecognition:
    def test_bundles_themselves(self):
        assert is_subdivision_of_At(bundle(3)) == 3
        assert is_subdivision_of_At(bundle(5)) == 5

    def test_subdivided_bundle(self):
        g = MultiGraph(3, ((0, 1), (0, 1), (0, 1), (0, 2), (1, 2)))
        assert is_subdivision_of_At(g) == 4

    def test_fully_subdivided(self):
        g = MultiGraph(5, ((0, 2), (2, 1), (0, 3), (3, 1), (0, 4), (4, 1)))
        assert is_subdivision_of_At(g) == 3

    def test_cycle_absent(self):
        assert is_subdivision_of_At(cycle(4)) is None
        assert is_subdivision_of_At(bundle(2)) is None

    def test_k4_absent(self):
        assert is_subdivision_of_At(K4) is None

    def test_loop_absent(self):
        assert is_subdivision_of_At(MultiGraph(1, ((0, 0),))) is None

    def test_path_absent(self):
        assert is_subdivision_of_At(MultiGraph(3, ((0, 1), (1, 2)))) is None

    def test_star_absent(self):
        g = MultiGraph(4, ((0, 1), (0, 2), (0, 3)))
        assert is_subdivision_of_At(g) is None

    def test_bundle_with_pendant_absent(self):
        g = MultiGraph(3, ((0, 1), (0, 1), (0, 1), (1, 2)))
        assert is_subdivision_of_At(g) is None


class TestK4eMinor:
    def test_k4e_itself(self):
        assert has_K4e_graph_minor(K4E)

    def test_k4_contracts_to_it(self):
        assert has_K4e_graph_minor(K4)

    def test_subdivided_bundle_has_none(self):
        g = MultiGraph(3, ((0, 1), (0, 1), (0, 1), (0, 1), (0, 2), (1, 2)))
        assert not has_K4e_graph_minor(g)

    def test_small_graphs_have_none(self):
        assert not has_K4e_graph_minor(cycle(5))
        assert not has_K4e_graph_minor(bundle(6))
        assert not has_K4e_graph_minor(MultiGraph(4, ((0, 1), (1, 2), (2, 3))))

    def test_k4_with_extra_edge(self):
        g = MultiGraph(4, K4.edges + ((0, 1),))
        assert has_K4e_graph_minor(g)

    def test_budget(self):
        g = MultiGraph(2, tuple((0, 1) for _ in range(15)))
        with pytest.raises(BudgetExceeded):
            has_K4e_graph_minor(g)

    def test_budget_counts_searched_blocks_only(self):
        # every block of a path is a bridge, so nothing is searched
        path = MultiGraph(16, tuple((i, i + 1) for i in range(15)))
        assert not has_K4e_graph_minor(path)
        # K4/e on vertices 0..2, then a 20-edge path from vertex 2
        tail = tuple((i, i + 1) for i in range(2, 22))
        assert has_K4e_graph_minor(MultiGraph(23, K4E.edges + tail))

    def test_a_block_over_the_cap_does_not_hide_a_k4e_block(self):
        k4e = ((0, 2), (0, 1), (1, 2), (0, 1), (1, 2))
        over = ((2, 3),) * 15
        assert has_K4e_graph_minor(MultiGraph(4, k4e + over))
        assert has_K4e_graph_minor(MultiGraph(4, over + k4e))
        # no K4/e block: the largest block over the cap is named, not the first
        with pytest.raises(BudgetExceeded, match="block of 16 edges"):
            has_K4e_graph_minor(MultiGraph(4, ((0, 1),) * 3 + ((1, 2),) * 15 + ((2, 3),) * 16))

    def test_matches_the_graph_side_search(self, random_multigraphs):
        graphs = random_multigraphs
        assert any(u == v for g in graphs for u, v in g.edges)
        assert any(len(g.edges) != len(set(g.edges)) for g in graphs)
        assert any(_component_count(g) > 1 for g in graphs)
        verdicts = [has_K4e_graph_minor(g) for g in graphs]
        assert verdicts == [ref_has_K4e_graph_minor(g) for g in graphs]
        assert 10 <= sum(verdicts) < len(graphs) - 10

    def test_the_filter_counts_components_and_no_loops(self):
        # K4/e plus an isolated vertex: loopless rank 5 - 4 + 2 = 3, where
        # edges - vertices + 1 would read 2
        assert has_K4e_graph_minor(MultiGraph(4, K4E.edges))
        _block_has_K4e.cache_clear()
        loops = ((0, 0), (1, 1), (2, 2), (2, 2))
        # 4 loopless edges, then 5 of loopless rank 2 (a doubled triangle side
        # and a pendant edge): loops raise neither count, and nothing is searched
        assert not has_K4e_graph_minor(MultiGraph(3, K4E.edges[1:] + loops))
        assert not has_K4e_graph_minor(MultiGraph(4, K4E.edges[:4] + ((2, 3),) + loops))
        assert _block_has_K4e.cache_info().currsize == 0

    def test_a_block_over_the_cap_still_raises_cold_and_warm(self):
        # a subdivided A_4 (8 edges, cycle rank 3, searched, no K4/e) and a
        # 15-edge bundle over the cap, joined at vertex 0
        theta = tuple(e for i in range(2, 6) for e in ((0, i), (i, 1)))
        g = MultiGraph(7, theta + ((0, 6),) * 15)
        _block_has_K4e.cache_clear()
        for _ in range(2):
            with pytest.raises(BudgetExceeded, match="block of 15 edges"):
                has_K4e_graph_minor(g)
        assert _block_has_K4e.cache_info().hits == 1

    def test_verdicts_cold_and_warm_match_the_uncached_search(self):
        rng = random.Random(19)
        graphs = enumerate_connected_multigraphs(5, 7)
        for _ in range(500):
            n = rng.randint(1, 7)
            graphs.append(MultiGraph(n, tuple((rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 9)))))
        want = [
            has_minor(CircuitMatroid(len(g.edges), _graph_circuits(g.edges)), "MK4e") is not None
            for g in graphs
        ]
        assert 50 <= sum(want) < len(graphs) - 50
        _block_has_K4e.cache_clear()
        assert [has_K4e_graph_minor(g) for g in graphs] == want
        assert _block_has_K4e.cache_info().hits > 0
        assert [has_K4e_graph_minor(g) for g in reversed(graphs)] == want[::-1]

    def test_block_search_matches_the_whole_graph_search(self, random_multigraphs):
        def whole_graph(g: MultiGraph) -> bool:
            m = len(g.edges)
            return has_minor(CircuitMatroid(m, _graph_circuits(g.edges)), "MK4e") is not None

        # two A_3 bundles joined at a cut vertex: cycle rank 4, but each block has 3 edges
        thetas = MultiGraph(3, ((0, 1),) * 3 + ((1, 2),) * 3)
        assert _cyclomatic(thetas) == 4
        graphs = random_multigraphs + [thetas]
        assert [has_K4e_graph_minor(g) for g in graphs] == [whole_graph(g) for g in graphs]
        assert not has_K4e_graph_minor(thetas)


def _block_is_allowed(g: MultiGraph, block: frozenset[int]) -> bool:
    """Bridge, circuit, or bundle subdivision — the allowed block shapes."""
    edges = tuple(g.edges[e] for e in sorted(block))
    if len(edges) == 1 and edges[0][0] != edges[0][1]:
        return True  # bridge
    sub = MultiGraph(g.n_vertices, edges)
    deg = sub.degrees()
    if all(d in (0, 2) for d in deg):
        return True  # circuit (includes loops and parallel pairs)
    return is_subdivision_of_At(sub) is not None


# -- reference: the enumerator before the automorphism skip, with its classes
# ordered by the repr of their signatures and every extra canonicalised -----

def _ref_signatures(n: int, edges) -> list:
    loops = [0] * n
    neigh: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        if u == v:
            loops[u] += 1
        else:
            neigh[u].append(v)
            neigh[v].append(u)
    sig = [(loops[v], len(neigh[v])) for v in range(n)]
    for _ in range(2):
        sig = [(sig[v], tuple(sorted(sig[x] for x in neigh[v]))) for v in range(n)]
    return sig


def ref_canonical_edges(n: int, edges) -> tuple:
    sig = _ref_signatures(n, edges)
    classes: dict = {}
    for v in range(n):
        classes.setdefault(sig[v], []).append(v)
    ordered = [classes[s] for s in sorted(classes, key=repr)]
    best = None
    for perm_parts in itertools.product(*(itertools.permutations(c) for c in ordered)):
        label = {}
        nxt = 0
        for part in perm_parts:
            for v in part:
                label[v] = nxt
                nxt += 1
        cand = tuple(sorted(
            (label[u], label[v]) if label[u] <= label[v] else (label[v], label[u])
            for u, v in edges
        ))
        if best is None or cand < best:
            best = cand
    return best if best is not None else ()


def ref_enumerate(max_vertices: int, max_edges: int) -> list[MultiGraph]:
    out: list[MultiGraph] = []
    seen: set = set()
    for n in range(1, max_vertices + 1):
        if n - 1 > max_edges:
            break
        trees: list = [()]
        for m in range(2, n + 1):
            trees = sorted({ref_canonical_edges(m, t + ((v, m - 1),)) for t in trees for v in range(m - 1)})
        all_types = [(u, v) for u in range(n) for v in range(u, n)]
        for tree in trees:
            for k in range(max_edges - (n - 1) + 1):
                for extra in itertools.combinations_with_replacement(all_types, k):
                    canon = ref_canonical_edges(n, tuple(sorted(tree + extra)))
                    if (n, canon) not in seen:
                        seen.add((n, canon))
                        out.append(MultiGraph(n, canon))
    return out


class TestEnumeration:
    def test_bounds_and_connectivity(self):
        graphs = enumerate_connected_multigraphs(3, 3)
        for g in graphs:
            assert g.n_vertices <= 3 and len(g.edges) <= 3
            reached = {0}
            frontier = [0]
            while frontier:
                u = frontier.pop()
                for a, b in g.edges:
                    for x, y in ((a, b), (b, a)):
                        if x == u and y not in reached:
                            reached.add(y)
                            frontier.append(y)
            assert reached == set(range(g.n_vertices))
        # no duplicates up to isomorphism: canonical forms are the identity
        assert len({(g.n_vertices, g.edges) for g in graphs}) == len(graphs)

    def test_counts_match_bruteforce(self):
        def brute_count(max_n: int, max_m: int) -> int:
            reps: set = set()
            for n in range(1, max_n + 1):
                types = [(u, v) for u in range(n) for v in range(u, n)]
                for m in range(max(0, n - 1), max_m + 1):
                    for combo in itertools.combinations_with_replacement(types, m):
                        uf: dict[int, int] = {v: v for v in range(n)}

                        def find(x: int) -> int:
                            while uf[x] != x:
                                x = uf[x]
                            return x

                        for u, v in combo:
                            uf[find(u)] = find(v)
                        if len({find(v) for v in range(n)}) > 1:
                            continue
                        canon = min(
                            tuple(
                                sorted(
                                    tuple(sorted((p[u], p[v]))) for u, v in combo
                                )
                            )
                            for p in itertools.permutations(range(n))
                        )
                        reps.add((n, canon))
            return len(reps)

        for max_n, max_m in ((2, 3), (3, 3), (4, 4)):
            got = enumerate_connected_multigraphs(max_n, max_m)
            assert len(got) == brute_count(max_n, max_m), (max_n, max_m)

    def test_spanning_trees_match_bruteforce(self):
        def brute_trees(n: int) -> list:
            reps = set()
            pairs = list(itertools.combinations(range(n), 2))
            for combo in itertools.combinations(pairs, n - 1):
                root = list(range(n))

                def find(x: int) -> int:
                    while root[x] != x:
                        x = root[x]
                    return x

                for u, v in combo:
                    root[find(u)] = find(v)
                if len({find(v) for v in range(n)}) == 1:
                    reps.add(_canonical_edges(n, combo))
            return sorted(reps)

        for n in range(1, 8):
            assert spanning_trees(n) == brute_trees(n), n

    def test_spanning_tree_counts_are_free_tree_counts(self):
        # OEIS A000055: number of unlabeled trees on n vertices
        counts = [len(spanning_trees(n)) for n in range(1, 9)]
        assert counts == [1, 1, 1, 2, 3, 6, 11, 23]

    @pytest.mark.parametrize(
        "bounds", [(7, 7), (8, 7), (8, 8), (5, 9), (4, 5), (5, 4)], ids=lambda b: "%d-%d" % b
    )
    def test_matches_the_reference_enumerator(self, bounds):
        assert enumerate_connected_multigraphs(*bounds) == ref_enumerate(*bounds)

    def test_same_classes_in_the_same_order_past_single_digit_signatures(self):
        # a vertex of degree 10 puts a 10 in its signature, where tuple order and
        # repr order part: representatives may differ, classes and order may not
        got = enumerate_connected_multigraphs(3, 10)
        want = ref_enumerate(3, 10)
        assert got != want
        assert [MultiGraph(g.n_vertices, ref_canonical_edges(g.n_vertices, g.edges)) for g in got] == want

    def test_canonical_form_matches_the_reference_on_named_graphs(self):
        rng = random.Random(7)
        named = [cycle(k) for k in range(3, 9)]
        named += [MultiGraph(k, tuple(itertools.combinations(range(k), 2))) for k in range(2, 7)]
        named.append(MultiGraph(6, tuple((u, v) for u in range(3) for v in range(3, 6))))
        # stars, some spokes doubled, some leaves looped; at most 9 spokes, where
        # the reference's repr order of signatures is their tuple order
        for leaves in range(2, 7):
            spokes = tuple((0, i) for i in range(1, leaves + 1))
            named.append(MultiGraph(leaves + 1, spokes + spokes[: leaves // 2]))
            named.append(MultiGraph(leaves + 1, spokes + tuple((i, i) for i in range(1, leaves, 2))))
        for g in named:
            p = list(range(g.n_vertices))
            rng.shuffle(p)
            for edges in (g.edges, tuple((p[u], p[v]) for u, v in g.edges)):
                assert _canonical_edges(g.n_vertices, edges) == ref_canonical_edges(g.n_vertices, edges), g

    def test_canonical_form_matches_the_reference_on_random_multigraphs(self):
        # at most 9 edges keeps every signature entry one digit, where the
        # reference's repr order of classes is the tuple order
        rng = random.Random(19)
        graphs = []
        for _ in range(2000):
            n = rng.randint(1, 8)
            graphs.append((n, tuple((rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 9)))))
        orders = [math.prod(math.factorial(len(c)) for c in _signature_classes(n, e)) for n, e in graphs]
        assert any(k == 1 for k in orders) and 200 <= sum(k > SMALL_ORDERS for k in orders)
        assert any(u == v for _, e in graphs for u, v in e)
        assert any(len(e) != len(set(e)) for _, e in graphs)
        for n, edges in graphs:
            assert _canonical_edges(n, edges) == ref_canonical_edges(n, edges), (n, edges)

    def test_symmetric_graphs_canonicalise_quickly(self):
        # the plain product over class orders takes 9! and 9! labellings here
        with wall_clock_under(0.25):
            assert _canonical_edges(9, cycle(9).edges) == ((0, 1), (0, 2)) + tuple(
                (i, i + 2) for i in range(1, 7)
            ) + ((7, 8),)
        with wall_clock_under(0.25):
            assert _canonical_edges(10, tuple((9, i) for i in range(9))) == tuple((i, 9) for i in range(9))

    def test_canonical_form_is_invariant_under_relabeling(self):
        rng = random.Random(13)
        graphs = []
        for _ in range(150):
            n = rng.randint(1, 6)
            graphs.append((n, [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 9))]))
        for _ in range(30):  # a hub of degree >= 10 among random edges
            n = rng.randint(2, 5)
            hub = [(0, rng.randrange(1, n)) for _ in range(rng.randint(10, 12))]
            graphs.append((n, hub + [(rng.randrange(n), rng.randrange(n)) for _ in range(3)]))
        assert any(max(MultiGraph(n, tuple(e)).degrees()) >= 10 for n, e in graphs)
        for n, edges in graphs:
            canon = _canonical_edges(n, tuple(edges))
            for _ in range(4):
                p = list(range(n))
                rng.shuffle(p)
                moved = [(p[u], p[v]) for u, v in edges]
                rng.shuffle(moved)
                assert _canonical_edges(n, tuple(moved)) == canon, (n, edges, p)

    def test_automorphisms_match_bruteforce(self):
        for n in range(1, 8):
            index = {t: i for i, t in enumerate(_edge_types(n))}
            for tree in spanning_trees(n):
                want = []
                for p in itertools.permutations(range(n)):
                    if list(p) == sorted(p):
                        continue
                    if sorted(tuple(sorted((p[u], p[v]))) for u, v in tree) == list(tree):
                        want.append(tuple(index[tuple(sorted((p[u], p[v])))] for u, v in _edge_types(n)))
                assert sorted(_automorphisms(n, tree)) == sorted(want), tree

    def test_block_shape_characterization_of_k4e_minors(self):
        graphs = enumerate_connected_multigraphs(5, 7)
        assert len(graphs) > 500
        for g in graphs:
            allowed = all(_block_is_allowed(g, b) for b in blocks(g))
            assert has_K4e_graph_minor(g) == (not allowed), (g.n_vertices, g.edges)
