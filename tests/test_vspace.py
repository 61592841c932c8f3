"""Subspace construction, enumeration, structure operations, structured bases."""
from __future__ import annotations

import itertools

import pytest

from clutterforge.errors import (
    BadIndex,
    DimensionMismatch,
    FieldMismatch,
    NotConnectedComponent,
    OverlapError,
    ParseError,
    TooLarge,
    VerificationFailure,
)
from clutterforge.verify import enumerate_subspaces
from clutterforge.vspace import (
    SetSystem,
    Subspace,
    SunflowerWitness,
    _support_line,
    disjoint_support_basis,
    enumerate_points,
    factor,
    format_subspace,
    parse_subspace,
    permute,
    product,
    project,
    restrict,
    span,
    subspace_minor,
    subspace_to_json,
    sunflower_basis,
    support,
)

R11_POINTS = {(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)}

# the 16 points of span{(1,1,0),(1,0,1)} over GF(4), frozen from the
# element encoding 0,1,2,3 with 2*2=3, 2*3=1, 3*3=2
EX92_POINTS = {
    (0, 0, 0), (1, 1, 0), (2, 2, 0), (3, 3, 0),
    (1, 0, 1), (0, 1, 1), (3, 2, 1), (2, 3, 1),
    (2, 0, 2), (3, 1, 2), (0, 2, 2), (1, 3, 2),
    (3, 0, 3), (2, 1, 3), (1, 2, 3), (0, 3, 3),
}


@pytest.fixture(scope="module")
def r11(f2):
    return span(f2, 3, [(0, 1, 1), (1, 0, 1)])


@pytest.fixture(scope="module")
def ex92(f4):
    return span(f4, 3, [(1, 1, 0), (1, 0, 1)])


class TestSpan:
    def test_r11(self, r11):
        assert r11.dim == 2
        assert set(enumerate_points(r11)) == R11_POINTS

    def test_empty_generators(self, f4):
        z = span(f4, 3, [])
        assert z.dim == 0
        assert enumerate_points(z) == [(0, 0, 0)]

    def test_ex92_sixteen_points(self, ex92):
        assert set(enumerate_points(ex92)) == EX92_POINTS

    def test_rref_is_canonical(self, f3):
        a = span(f3, 3, [(1, 1, 0), (0, 0, 1)])
        b = span(f3, 3, [(1, 1, 1), (0, 0, 2), (1, 1, 2)])
        assert a == b
        assert hash(a) == hash(b)

    def test_constructor_rejects_non_rref(self, f2):
        with pytest.raises(ValueError):
            Subspace(f2, 2, ((1, 1), (1, 0)))

    def test_dimension_mismatch(self, f3):
        with pytest.raises(DimensionMismatch):
            span(f3, 3, [(1, 2)])

    def test_entry_outside_field(self, f3):
        with pytest.raises(BadIndex):
            span(f3, 2, [(1, 5)])

    def test_span_of_enumeration_is_identity(self, subspaces_gf3_3, subspaces_gf2_3):
        for s in itertools.chain(subspaces_gf3_3, subspaces_gf2_3):
            assert span(s.field, s.n, enumerate_points(s)) == s


class TestEnumeratePoints:
    def test_sorted_lexicographically(self, ex92):
        pts = enumerate_points(ex92)
        assert pts == sorted(pts)

    def test_count_is_q_to_dim(self, subspaces_gf3_3):
        for s in subspaces_gf3_3:
            assert len(enumerate_points(s)) == 3 ** s.dim

    def test_cap(self, ex92):
        with pytest.raises(TooLarge):
            enumerate_points(ex92, cap=10)

    def test_contains_agrees_with_enumeration(self, subspaces_gf3_3):
        for s in subspaces_gf3_3:
            pts = set(enumerate_points(s))
            for x in itertools.product(range(3), repeat=3):
                assert s.contains(x) == (x in pts)


class TestProduct:
    def test_dimensions_add(self, f3):
        a = span(f3, 2, [(1, 1)])
        p = product(a, a)
        assert p.n == 4 and p.dim == 2

    def test_zero_factor_appends_zeros(self, f3, r11):
        a = span(f3, 2, [(1, 1)])
        z = span(f3, 1, [])
        p = product(a, z)
        assert set(enumerate_points(p)) == {(0, 0, 0), (1, 1, 0), (2, 2, 0)}

    def test_pairing_bruteforce(self, f2, f3):
        cases = [
            (span(f2, 2, [(1, 1)]), span(f2, 3, [(0, 1, 1), (1, 0, 1)])),
            (span(f3, 1, [(1,)]), span(f3, 2, [(1, 2)])),
        ]
        for s1, s2 in cases:
            got = set(enumerate_points(product(s1, s2)))
            want = {x + y for x in enumerate_points(s1) for y in enumerate_points(s2)}
            assert got == want

    def test_field_mismatch(self, f2, f3):
        with pytest.raises(FieldMismatch):
            product(span(f2, 1, []), span(f3, 1, []))


class TestProject:
    def test_r11_drops_to_full_plane(self, r11, f2):
        assert project(r11, {2}) == span(f2, 2, [(1, 0), (0, 1)])

    def test_drop_nothing(self, r11):
        assert project(r11, set()) == r11

    def test_ex92_to_line(self, ex92, f4):
        assert project(ex92, {1, 2}) == span(f4, 1, [(1,)])

    def test_bruteforce_agreement(self, subspaces_gf3_3):
        for s in subspaces_gf3_3:
            for drop in [{0}, {1}, {2}, {0, 2}]:
                kept = [i for i in range(3) if i not in drop]
                want = {tuple(x[i] for i in kept) for x in enumerate_points(s)}
                assert set(enumerate_points(project(s, drop))) == want

    def test_bad_index(self, r11):
        with pytest.raises(BadIndex):
            project(r11, {3})
        with pytest.raises(BadIndex):
            project(r11, {0, 1, 2})


class TestPermute:
    def test_cycle(self, ex92):
        p = permute(ex92, (2, 0, 1))
        want = {(x[2], x[0], x[1]) for x in enumerate_points(ex92)}
        assert set(enumerate_points(p)) == want

    def test_identity(self, ex92):
        assert permute(ex92, (0, 1, 2)) == ex92

    def test_not_a_permutation(self, ex92):
        with pytest.raises(BadIndex):
            permute(ex92, (0, 1, 1))


class TestSubspaceMinor:
    def test_delete_constrains_then_drops(self, r11, f2):
        got = subspace_minor(r11, delete={0})
        assert got == span(f2, 2, [(1, 1)])

    def test_contract_only_projects(self, r11, f2):
        got = subspace_minor(r11, contract={0})
        assert got == span(f2, 2, [(1, 0), (0, 1)])

    def test_overlap(self, r11):
        with pytest.raises(OverlapError):
            subspace_minor(r11, delete={0}, contract={0, 1})


class TestRestrict:
    def test_ex92_binary_box_is_r11(self, ex92):
        rs = restrict(ex92, [{0, 1}, {0, 1}, {0, 1}])
        assert rs.coords == (0, 1, 2)
        assert set(rs.points) == R11_POINTS
        assert rs.dropped == ()

    def test_full_box_keeps_everything(self, ex92):
        full = [set(range(4))] * 3
        rs = restrict(ex92, full)
        assert rs.coords == (0, 1, 2)
        assert set(rs.points) == EX92_POINTS

    def test_agreed_coordinate_dropped(self, r11):
        rs = restrict(r11, [{0}, {0, 1}, {0, 1}])
        assert rs.coords == (1, 2)
        assert rs.dropped == ((0, 0),)
        assert set(rs.points) == {(0, 0), (1, 1)}

    def test_constant_coordinate_dropped_even_on_full_box(self, f3):
        s = span(f3, 2, [(1, 0)])
        rs = restrict(s, [{0, 1, 2}, {0, 1, 2}])
        assert rs.coords == (0,)
        assert rs.dropped == ((1, 0),)
        assert set(rs.points) == {(0,), (1,), (2,)}

    def test_empty_intersection(self, f3):
        z = span(f3, 2, [])
        rs = restrict(z, [{1}, {1, 2}])
        assert rs.points == ()
        assert rs.coords == (0, 1)
        assert rs.dropped == ()

    def test_single_survivor_drops_all(self, r11):
        rs = restrict(r11, [{0}, {0}, {0}])
        assert rs.coords == ()
        assert rs.points == ((),)
        assert rs.dropped == ((0, 0), (1, 0), (2, 0))

    def test_points_stay_in_box(self, subspaces_gf3_3):
        box = [{0, 1}, {0, 2}, {1, 2, 0}]
        for s in subspaces_gf3_3:
            rs = restrict(s, box)
            survivors = [
                x for x in enumerate_points(s) if all(x[i] in box[i] for i in range(3))
            ]
            kept = rs.coords
            assert set(rs.points) == {tuple(x[i] for i in kept) for x in survivors}

    def test_empty_box_rejected(self, r11):
        with pytest.raises(BadIndex):
            restrict(r11, [set(), {0}, {0}])


class TestDisjointSupportBasis:
    def test_disjoint_generators(self, f3):
        s = span(f3, 3, [(1, 1, 0), (0, 0, 1)])
        basis = disjoint_support_basis(s)
        assert basis is not None
        assert support(basis[0]) & support(basis[1]) == frozenset()
        assert span(f3, 3, basis) == s

    def test_r11_absent(self, r11):
        assert disjoint_support_basis(r11) is None

    def test_zero_space_empty_basis(self, f3):
        assert disjoint_support_basis(span(f3, 2, [])) == ()

    def test_matches_disjoint_circuits_oracle(self, subspaces_gf3_4, subspaces_gf4_3):
        from clutterforge.matroid import matroid_of

        for s in itertools.chain(subspaces_gf3_4, subspaces_gf4_3):
            m = matroid_of(s)
            disjoint = all(
                not (a & b) for a, b in itertools.combinations(m.circuits, 2)
            )
            basis = disjoint_support_basis(s)
            assert (basis is not None) == disjoint
            if basis is not None:
                assert len(basis) == s.dim
                for a, b in itertools.combinations(basis, 2):
                    assert not (support(a) & support(b))
                assert span(s.field, s.n, basis) == s


class TestSupportLine:
    def test_circuit_lines_match_the_point_scan(self, structure_spaces, support_line_by_scan):
        from clutterforge.matroid import matroid_of

        for s in structure_spaces:
            for circuit in matroid_of(s).circuits:
                line = support_line_by_scan(s, circuit)
                assert line is not None
                assert _support_line(s, circuit) == line

    def test_every_support_matches_the_point_scan(
        self, subspaces_gf3_3, subspaces_gf4_3, support_line_by_scan
    ):
        spaces = itertools.chain(
            enumerate_subspaces(2, 4), enumerate_subspaces(2, 5), subspaces_gf3_3, subspaces_gf4_3
        )
        lines = 0
        for s in spaces:
            for r in range(1, s.n + 1):
                for supp in map(frozenset, itertools.combinations(range(s.n), r)):
                    line = support_line_by_scan(s, supp)
                    if line is None:
                        with pytest.raises(VerificationFailure):
                            _support_line(s, supp)
                    else:
                        assert _support_line(s, supp) == line
                        lines += 1
        assert lines > 0


class TestSunflowerBasis:
    def test_ex92(self, ex92):
        w = sunflower_basis(ex92)
        assert w is not None
        assert w.block_sizes == (1, 1, 1)
        assert w.head == (1,)
        assert len(w.rows) == 2
        w.validate(ex92)

    def test_head_block_of_size_two(self, f4):
        s = span(f4, 5, [(1, 1, 1, 0, 0), (1, 1, 0, 1, 1)])
        w = sunflower_basis(s)
        assert w is not None
        assert w.block_sizes == (2, 1, 2)
        assert w.head == (1, 1)
        w.validate(s)

    def test_single_circuit_absent(self, f4):
        s = span(f4, 3, [(1, 1, 1)])
        assert sunflower_basis(s) is None

    def test_disconnected_rejected(self, f4):
        s = span(f4, 3, [(1, 1, 0), (0, 0, 1)])
        with pytest.raises(NotConnectedComponent):
            sunflower_basis(s)

    def test_coloop_rejected(self, f4):
        with pytest.raises(NotConnectedComponent):
            sunflower_basis(span(f4, 1, []))

    def test_validate_catches_tampering(self, ex92):
        w = sunflower_basis(ex92)
        bad = SunflowerWitness(w.field, w.permutation, w.block_sizes, (w.rows[0],) * 2)
        with pytest.raises(VerificationFailure):
            bad.validate(ex92)

    def test_all_gf4_cubed_witnesses_validate(self, subspaces_gf4_3):
        from clutterforge.matroid import classify, matroid_of

        for s in subspaces_gf4_3:
            report = classify(matroid_of(s))
            if len(report.components) != 1 or report.kinds[0] == "coloop":
                continue
            w = sunflower_basis(s)
            assert (w is not None) == (report.kinds[0] == "subdivision")


class TestFactor:
    def test_two_factors(self, f3):
        s = span(f3, 3, [(1, 1, 0), (0, 0, 1)])
        groups = [coords for coords, _ in factor(s)]
        assert groups == [(0, 1), (2,)]

    def test_r11_single_factor(self, r11):
        assert [c for c, _ in factor(r11)] == [(0, 1, 2)]

    def test_zero_space_coloop_factors(self, f3):
        s = span(f3, 2, [])
        pieces = factor(s)
        assert [c for c, _ in pieces] == [(0,), (1,)]
        assert all(p.dim == 0 for _, p in pieces)

    def test_factor_dims_sum(self, subspaces_gf4_3):
        for s in subspaces_gf4_3:
            pieces = factor(s)
            assert sum(p.dim for _, p in pieces) == s.dim
            assert sorted(i for c, _ in pieces for i in c) == list(range(s.n))


class TestParsing:
    def test_text_round_trip(self, ex92):
        assert parse_subspace(format_subspace(ex92)) == ex92

    def test_json_round_trip(self, ex92):
        assert parse_subspace(subspace_to_json(ex92)) == ex92

    def test_json_literal(self, ex92):
        s = parse_subspace('{"q":4,"n":3,"generators":[[1,1,0],[1,0,1]]}')
        assert s == ex92

    def test_text_literal(self, f2):
        s = parse_subspace("2 3\n0 1 1\n1 0 1\n")
        assert set(enumerate_points(s)) == R11_POINTS

    def test_zero_space_round_trip(self, f4):
        z = span(f4, 2, [])
        assert parse_subspace(format_subspace(z)) == z

    @pytest.mark.parametrize(
        "text",
        ["", "2\n1 0", "x y\n1 0", "2 2\n1 z", '{"q":4,"generators":[]}', '{"q":"4","n":3,"generators":[]}'],
    )
    def test_parse_errors(self, text):
        with pytest.raises(ParseError):
            parse_subspace(text)

    def test_parse_validates_entries(self):
        with pytest.raises(BadIndex):
            parse_subspace("3 2\n1 7")
