"""Circuit matroids: construction axioms, minors, structure, small minor search."""
from __future__ import annotations

import itertools
import random

import pytest

from clutterforge.errors import BadIndex, BudgetExceeded, OverlapError, TooLarge
from clutterforge.matroid import (
    MINOR_BUDGET,
    TARGETS,
    CircuitMatroid,
    StructureReport,
    _graph_circuits,
    circuits_isomorphic,
    classify,
    components,
    has_minor,
    intersecting_circuits,
    matroid_minor,
    matroid_of,
    series_classes,
)
from clutterforge.verify import enumerate_subspaces
from clutterforge.vspace import span, subspace_minor


# -- reference implementations: minors, isomorphism and named-minor search
# written directly from the definitions on circuit families -----------------

def ref_matroid_minor(m, delete, contract):
    """Circuits avoiding `delete`, less `contract`, minimal and nonempty."""
    shrunk = {c - contract for c in m.circuits if not c & delete and c - contract}
    minimal = [c for c in shrunk if not any(d < c for d in shrunk)]
    kept = [e for e in range(m.size) if e not in delete | contract]
    relabel = {e: i for i, e in enumerate(kept)}
    return CircuitMatroid(len(kept), tuple(frozenset(relabel[e] for e in c) for c in minimal))


def ref_circuits_isomorphic(m1, m2):
    """First ground permutation carrying circuits onto circuits, or None."""
    if m1.size != m2.size:
        return None
    want = set(m2.circuits)
    for perm in itertools.permutations(range(m2.size)):
        if {frozenset(perm[e] for e in c) for c in m1.circuits} == want:
            return dict(enumerate(perm))
    return None


def ref_has_minor(m, name):
    """First (delete, contract) split of the other elements giving the target."""
    t = TARGETS[name]
    free = m.size - t.size
    if free < 0:
        return None
    for rest in itertools.combinations(range(m.size), free):
        for pick in range(2 ** free):
            delete = frozenset(rest[i] for i in range(free) if pick >> i & 1)
            contract = frozenset(rest) - delete
            if ref_circuits_isomorphic(ref_matroid_minor(m, delete, contract), t) is not None:
                return delete, contract
    return None


def ref_graph_circuits(edges):
    """Minimal edge subsets holding a cycle, by enumerating subsets in size order."""

    def has_cycle(idxs):
        root = {}
        for i in idxs:
            u, v = edges[i]
            while u in root:
                u = root[u]
            while v in root:
                v = root[v]
            if u == v:
                return True
            root[u] = v
        return False

    circuits = []
    for r in range(1, len(edges) + 1):
        for idxs in itertools.combinations(range(len(edges)), r):
            chosen = frozenset(idxs)
            if not any(c <= chosen for c in circuits) and has_cycle(idxs):
                circuits.append(chosen)
    return tuple(circuits)


def ref_classify(m):
    """Classification by the minor round trip: contract all but one element of
    each series class of a component, then ask whether every 2-subset of the
    t >= 3 survivors is a circuit."""
    kinds, ts = [], []
    for comp in components(m):
        comp_set = frozenset(comp)
        local = [c for c in m.circuits if c <= comp_set]
        if not local:
            kinds.append("coloop")
            ts.append(None)
            continue
        if len(local) == 1 and local[0] == comp_set:
            kinds.append("circuit")
            ts.append(None)
            continue
        classes = [cl for cl in series_classes(m) if set(cl) <= comp_set]
        contract = frozenset(e for cl in classes for e in cl[1:])
        reduced = matroid_minor(m, frozenset(range(m.size)) - comp_set, contract)
        pairs = {frozenset(p) for p in itertools.combinations(range(reduced.size), 2)}
        if reduced.size >= 3 and set(reduced.circuits) == pairs:
            kinds.append("subdivision")
            ts.append(reduced.size)
        else:
            kinds.append("unclassified")
            ts.append(None)
    return StructureReport(components(m), tuple(kinds), tuple(ts))


@pytest.fixture(scope="module")
def small_matroids():
    """Every subspace matroid of GF(2)^4, GF(3)^3 and GF(4)^3, then the targets."""
    spaces = itertools.chain(*(enumerate_subspaces(q, n) for q, n in ((2, 4), (3, 3), (4, 3))))
    return [matroid_of(s) for s in spaces] + list(TARGETS.values())


@pytest.fixture(scope="module")
def a3():
    return TARGETS["A3"]


@pytest.fixture(scope="module")
def u24():
    return TARGETS["U24"]


class TestConstruction:
    def test_fixed_targets(self, a3, u24):
        assert {tuple(sorted(c)) for c in a3.circuits} == {(0, 1), (0, 2), (1, 2)}
        assert {tuple(sorted(c)) for c in u24.circuits} == {
            (0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3),
        }
        mk4e = TARGETS["MK4e"]
        assert {tuple(sorted(c)) for c in mk4e.circuits} == {
            (1, 3), (2, 4), (0, 1, 2), (0, 1, 4), (0, 2, 3), (0, 3, 4),
        }
        assert len(TARGETS["MK4"].circuits) == 7  # 4 triangles + 3 four-cycles

    def test_graphic_targets_match_subset_enumeration(self):
        graphs = {
            "A3": [(0, 1), (0, 1), (0, 1)],
            "MK4e": [(0, 2), (0, 1), (1, 2), (0, 1), (1, 2)],
            "MK4": [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)],
        }
        for name, edges in graphs.items():
            assert TARGETS[name] == CircuitMatroid(len(edges), ref_graph_circuits(edges))

    def test_graph_circuits_match_subset_enumeration(self, random_multigraphs):
        for g in random_multigraphs:
            got = _graph_circuits(g.edges)
            assert len(got) == len(set(got))
            assert set(got) == set(ref_graph_circuits(g.edges)), (g.n_vertices, g.edges)

    def test_empty_circuit_rejected(self):
        with pytest.raises(ValueError):
            CircuitMatroid(2, (frozenset(),))

    def test_nested_circuits_rejected(self):
        with pytest.raises(ValueError):
            CircuitMatroid(3, (frozenset({0}), frozenset({0, 1})))

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            CircuitMatroid(3, (frozenset({0, 1}), frozenset({1, 0})))

    def test_elimination_axiom_enforced(self):
        with pytest.raises(ValueError):
            CircuitMatroid(3, (frozenset({0, 1}), frozenset({1, 2})))

    def test_out_of_range_element(self):
        with pytest.raises(BadIndex):
            CircuitMatroid(2, (frozenset({5}),))

    def test_rank(self, a3, u24):
        assert a3.rank() == 1
        assert u24.rank() == 2
        assert CircuitMatroid(3, ()).rank() == 3


class TestMatroidOf:
    def test_r11_is_a3(self, f2, a3):
        m = matroid_of(span(f2, 3, [(0, 1, 1), (1, 0, 1)]))
        assert circuits_isomorphic(m, a3) is not None
        assert {tuple(sorted(c)) for c in m.circuits} == {(0, 1), (0, 2), (1, 2)}

    def test_zero_space_has_no_circuits(self, f4):
        m = matroid_of(span(f4, 3, []))
        assert m.circuits == ()
        assert m.rank() == 3

    def test_sum_zero_gf4_is_a3(self, f4, a3):
        s = span(f4, 3, [(1, 0, 1), (0, 1, 1)])
        assert all(f4.add(f4.add(x[0], x[1]), x[2]) == 0 for x in s.points())
        assert circuits_isomorphic(matroid_of(s), a3) is not None

    def test_rank_identity_everywhere(self, subspaces_gf3_3, subspaces_gf4_3):
        for s in itertools.chain(subspaces_gf3_3, subspaces_gf4_3):
            assert matroid_of(s).rank() == s.n - s.dim


class TestMinors:
    def test_a3_delete_leaves_one_circuit(self, a3):
        m = matroid_minor(a3, delete=frozenset({0}))
        assert m.size == 2
        assert m.circuits == (frozenset({0, 1}),)

    def test_u24_contract_gives_all_pairs(self, u24):
        m = matroid_minor(u24, contract=frozenset({0}))
        assert m.size == 3
        assert {tuple(sorted(c)) for c in m.circuits} == {(0, 1), (0, 2), (1, 2)}

    def test_overlap_rejected(self, a3):
        with pytest.raises(OverlapError):
            matroid_minor(a3, frozenset({0}), frozenset({0}))

    def test_bad_element(self, a3):
        with pytest.raises(BadIndex):
            matroid_minor(a3, frozenset({7}), frozenset())

    def test_dual_route_equality(self, subspaces_gf3_3, subspaces_gf4_3):
        # abstract circuit-formula minors match the subspace construction:
        # zero the deleted coordinates, then drop deleted and contracted ones
        for s in itertools.chain(subspaces_gf3_3, subspaces_gf4_3):
            m = matroid_of(s)
            for assignment in itertools.product((0, 1, 2), repeat=s.n):
                delete = frozenset(i for i, a in enumerate(assignment) if a == 1)
                contract = frozenset(i for i, a in enumerate(assignment) if a == 2)
                if len(delete | contract) == s.n:
                    continue
                left = matroid_minor(m, delete, contract)
                right = matroid_of(subspace_minor(s, delete, contract))
                assert left == right


class TestStructure:
    def test_components_split(self, f3):
        m = matroid_of(span(f3, 3, [(1, 1, 0), (0, 0, 1)]))
        assert components(m) == ((0, 1), (2,))

    def test_a3_singleton_series_classes(self, a3):
        assert components(a3) == ((0, 1, 2),)
        assert series_classes(a3) == ((0,), (1,), (2,))

    def test_subdivision_series_classes(self, f4):
        m = matroid_of(span(f4, 5, [(1, 1, 1, 0, 0), (1, 1, 0, 1, 1)]))
        assert series_classes(m) == ((0, 1), (2,), (3, 4))

    def test_classify_r11(self, f2):
        report = classify(matroid_of(span(f2, 3, [(0, 1, 1), (1, 0, 1)])))
        assert report.kinds == ("subdivision",)
        assert report.t_values == (3,)
        assert report.all_structured and not report.all_disjoint_circuits

    def test_classify_single_circuit(self):
        f5 = __import__("clutterforge.gf", fromlist=["build_field"]).build_field(5)
        report = classify(matroid_of(span(f5, 3, [(1, 1, 1)])))
        assert report.kinds == ("circuit",)
        assert report.all_disjoint_circuits

    def test_classify_u24_unclassified(self, u24):
        report = classify(u24)
        assert report.kinds == ("unclassified",)
        assert not report.all_structured

    def test_classify_coloops(self, f3):
        report = classify(matroid_of(span(f3, 2, [])))
        assert report.kinds == ("coloop", "coloop")
        assert report.all_disjoint_circuits

    def test_structured_iff_sunflower_or_small_factors(self, subspaces_gf4_3):
        from clutterforge.vspace import factor, sunflower_basis

        for s in subspaces_gf4_3:
            report = classify(matroid_of(s))
            structured = all(
                piece.dim <= 1 or sunflower_basis(piece) is not None
                for _, piece in factor(s)
            )
            assert report.all_structured == structured


class TestHasMinor:
    def test_identity_witnesses(self, a3, u24):
        assert has_minor(a3, "A3") == (frozenset(), frozenset())
        assert has_minor(u24, "U24") == (frozenset(), frozenset())
        assert has_minor(TARGETS["MK4"], "MK4") == (frozenset(), frozenset())

    def test_target_name_normalization(self, a3):
        assert has_minor(a3, "a3") == (frozenset(), frozenset())
        with pytest.raises(KeyError):
            has_minor(a3, "NOPE")

    def test_disjoint_circuits_have_no_a3(self, f3):
        m = matroid_of(span(f3, 3, [(1, 1, 0), (0, 0, 1)]))
        assert has_minor(m, "A3") is None

    def test_mk4e_contains_a3(self):
        witness = has_minor(TARGETS["MK4e"], "A3")
        assert witness is not None
        delete, contract = witness
        minor = matroid_minor(TARGETS["MK4e"], delete, contract)
        assert circuits_isomorphic(minor, TARGETS["A3"]) is not None

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            has_minor(CircuitMatroid(16, ()), "U24")

    def test_budget_message_states_the_budget_applied(self):
        with pytest.raises(BudgetExceeded, match=f"needs 3075072 candidates, budget is {MINOR_BUDGET}$"):
            has_minor(CircuitMatroid(15, ()), "MK4e")

    def test_too_large(self):
        with pytest.raises(TooLarge):
            has_minor(CircuitMatroid(17, ()), "A3")

    def test_witnesses_replay(self, subspaces_gf3_3):
        for s in subspaces_gf3_3:
            m = matroid_of(s)
            witness = has_minor(m, "A3")
            if witness is not None:
                minor = matroid_minor(m, *witness)
                assert circuits_isomorphic(minor, TARGETS["A3"]) is not None


class TestAgainstReference:
    def test_minors_on_seeded_splits(self, small_matroids):
        rng = random.Random(7)
        for m in small_matroids:
            for _ in range(6):
                roles = [rng.randrange(3) for _ in range(m.size)]
                delete = frozenset(e for e, r in enumerate(roles) if r == 1)
                contract = frozenset(e for e, r in enumerate(roles) if r == 2)
                assert matroid_minor(m, delete, contract) == ref_matroid_minor(m, delete, contract)

    def test_named_minor_presence_and_witnesses(self, small_matroids):
        for m in small_matroids:
            for name, target in TARGETS.items():
                witness = has_minor(m, name)
                assert (witness is None) == (ref_has_minor(m, name) is None), (m, name)
                if witness is not None:
                    for minor_of, iso in (
                        (matroid_minor, circuits_isomorphic),
                        (ref_matroid_minor, ref_circuits_isomorphic),
                    ):
                        assert iso(minor_of(m, *witness), target) is not None

    def test_classify_matches_the_minor_round_trip(self, structure_spaces, random_multigraphs):
        matroids = [matroid_of(s) for s in structure_spaces] + list(TARGETS.values())
        matroids += [CircuitMatroid(len(g.edges), _graph_circuits(g.edges)) for g in random_multigraphs]
        kinds = set()
        for m in matroids:
            report = classify(m)
            assert report == ref_classify(m), m
            kinds.update(report.kinds)
        assert kinds == {"coloop", "circuit", "subdivision", "unclassified"}

    def test_isomorphism_existence(self, small_matroids):
        by_size: dict[int, list] = {}
        for m in small_matroids:
            by_size.setdefault(m.size, []).append(m)
        for group in by_size.values():
            for m1, m2 in itertools.product(group, repeat=2):
                iso = circuits_isomorphic(m1, m2)
                assert (iso is None) == (ref_circuits_isomorphic(m1, m2) is None)
                if iso is not None:
                    assert {frozenset(iso[e] for e in c) for c in m1.circuits} == set(m2.circuits)


class TestIntersectingCircuits:
    def test_a3(self, a3):
        pair = intersecting_circuits(a3)
        assert pair is not None and pair[0] & pair[1]

    def test_disjoint_none(self, f3):
        m = matroid_of(span(f3, 3, [(1, 1, 0), (0, 0, 1)]))
        assert intersecting_circuits(m) is None

    def test_ex92_matroid_has_pair(self, f4):
        m = matroid_of(span(f4, 3, [(1, 1, 0), (1, 0, 1)]))
        assert intersecting_circuits(m) is not None

    def test_a3_minor_iff_intersecting_pair(self, subspaces_gf3_4):
        # the obstruction shortcut and the exhaustive search must agree
        for s in subspaces_gf3_4:
            m = matroid_of(s)
            assert (has_minor(m, "A3") is not None) == (
                intersecting_circuits(m) is not None
            )
