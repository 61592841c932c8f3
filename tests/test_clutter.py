"""Tests for clutters: mult, minors, products, localizations, minor search."""
from __future__ import annotations

import itertools
import random

import pytest

import clutterforge.clutter as clutter_module
from clutterforge.clutter import (
    MAX_COPY_GROUND,
    Clutter,
    MinorSpec,
    apply_chain,
    builtin,
    compose_chain,
    find_minor,
    format_minor_certificate,
    is_isomorphic,
    localization,
    minor,
    mult,
    parse_minor_certificate,
    product,
    replay_minor,
)
from clutterforge.clutter import _embed, _holds, _labelled_copies, _minimal_masks
from clutterforge.errors import (
    BadIndex,
    BudgetExceeded,
    DimensionMismatch,
    OverlapError,
    ParseError,
    TooLarge,
    VerificationFailure,
)
from clutterforge.gf import build_field
from clutterforge.matroid import TARGETS, _circuit_clutter
from clutterforge.polyhedral import has_packing_property
from clutterforge.vspace import factor, project, span
from clutterforge.vspace import product as space_product
from clutterforge.verify import c5sq_witness, enumerate_subspaces


@pytest.fixture(scope="module")
def r11(f2):
    return span(f2, 3, [(0, 1, 1), (1, 0, 1)])


@pytest.fixture(scope="module")
def ex92(f4):
    return span(f4, 3, [(1, 1, 0), (1, 0, 1)])


def relabel_parts(c: Clutter, part_map: dict[int, int]) -> Clutter:
    """Rename the part component of every (part, value) label, order kept."""
    return Clutter(tuple((part_map[p], v) for p, v in c.ground), c.members)


def naive_has_minor(c: Clutter, target: Clutter) -> bool:
    """Oracle: sweep every keep/delete/contract assignment, then isomorphism."""
    big_n = len(c.ground)
    k = len(target.ground)
    if k > big_n:
        return False
    for keep in itertools.combinations(range(big_n), k):
        rest = [i for i in range(big_n) if i not in keep]
        for flags in itertools.product((0, 1), repeat=len(rest)):
            spec = MinorSpec(
                frozenset(c.ground[i] for i, f in zip(rest, flags) if f == 0),
                frozenset(c.ground[i] for i, f in zip(rest, flags) if f == 1),
            )
            if is_isomorphic(minor(c, spec), target) is not None:
                return True
    return False


class TestConstruction:
    def test_minimality_filter_and_order(self):
        c = Clutter((1, 2, 3), ({1, 2}, {1, 2, 3}, {2, 3}, {2, 3}))
        assert c.member_sets() == (frozenset({1, 2}), frozenset({2, 3}))

    def test_mask_members_equal_label_members(self):
        assert Clutter((1, 2, 3), (0b011,)) == Clutter((1, 2, 3), ({1, 2},))

    def test_duplicate_ground_rejected(self):
        with pytest.raises(ValueError):
            Clutter((1, 1, 2), ())

    def test_unknown_member_label_rejected(self):
        with pytest.raises(BadIndex):
            Clutter((1, 2), ({1, 7},))

    def test_empty_member_dominates(self):
        c = Clutter((1, 2), (frozenset(), {1, 2}))
        assert c.member_sets() == (frozenset(),)

    def test_ground_cap(self):
        with pytest.raises(TooLarge):
            Clutter(tuple(range(65)), ())

    def test_parts_and_multipartite(self, r11):
        c = mult(r11)
        assert c.parts() == {
            0: ((0, 0), (0, 1)),
            1: ((1, 0), (1, 1)),
            2: ((2, 0), (2, 1)),
        }
        assert c.is_multipartite()
        assert builtin("Delta3").parts() is None
        assert not builtin("Delta3").is_multipartite()

    def test_index_lookup(self):
        c = Clutter(("a", "b"), ())
        assert c.index("b") == 1
        with pytest.raises(BadIndex):
            c.index("z")


class TestBuiltin:
    def test_delta3(self):
        c = builtin("Delta3")
        assert c.ground == (1, 2, 3)
        assert set(c.member_sets()) == {
            frozenset({1, 2}),
            frozenset({2, 3}),
            frozenset({3, 1}),
        }

    def test_q6(self):
        c = builtin("Q6")
        assert c.ground == (1, 2, 3, 4, 5, 6)
        assert set(c.member_sets()) == {
            frozenset({1, 3, 5}),
            frozenset({1, 4, 6}),
            frozenset({2, 3, 6}),
            frozenset({2, 4, 5}),
        }

    def test_c5sq(self):
        c = builtin("C5sq")
        assert c.ground == (1, 2, 3, 4, 5)
        assert set(c.member_sets()) == {
            frozenset({1, 2}),
            frozenset({2, 3}),
            frozenset({3, 4}),
            frozenset({4, 5}),
            frozenset({5, 1}),
        }

    def test_case_insensitive_and_unknown(self):
        assert builtin("q6") == builtin("Q6")
        with pytest.raises(KeyError):
            builtin("K5")


class TestMult:
    def test_r11_members(self, r11):
        c = mult(r11)
        assert c.ground == tuple((i, v) for i in range(3) for v in range(2))
        assert set(c.member_sets()) == {
            frozenset({(0, 0), (1, 0), (2, 0)}),
            frozenset({(0, 0), (1, 1), (2, 1)}),
            frozenset({(0, 1), (1, 0), (2, 1)}),
            frozenset({(0, 1), (1, 1), (2, 0)}),
        }

    def test_r11_is_q6_under_value_order_labeling(self, r11):
        c = mult(r11)
        to_q6 = {(i, v): 2 * i + v + 1 for i in range(3) for v in range(2)}
        mapped = {frozenset(to_q6[e] for e in m) for m in c.member_sets()}
        assert mapped == set(builtin("Q6").member_sets())
        assert is_isomorphic(c, builtin("Q6")) is not None

    def test_zero_space(self, f3):
        c = mult(span(f3, 2, []))
        assert c.member_sets() == (frozenset({(0, 0), (1, 0)}),)
        assert len(c.ground) == 6

    def test_full_space_count(self, f3):
        c = mult(span(f3, 2, [(1, 0), (0, 1)]))
        assert len(c.members) == 9
        assert c.is_multipartite()

    def test_example_two_dim_gf4(self, ex92):
        c = mult(ex92)
        assert len(c.ground) == 12
        assert len(c.members) == 16
        assert all(m.bit_count() == 3 for m in c.members)
        assert c.is_multipartite()

    def test_ground_too_large(self):
        from clutterforge.gf import build_field

        f5 = build_field(5)
        with pytest.raises(TooLarge):
            mult(span(f5, 13, []))

    def test_too_many_points(self, f2):
        basis = [tuple(1 if j == i else 0 for j in range(17)) for i in range(17)]
        with pytest.raises(TooLarge):
            mult(span(f2, 17, basis))

    def test_rejects_other_types(self):
        with pytest.raises(TypeError):
            mult([(0, 0)])


class TestMinor:
    def test_delete_drops_meeting_members(self):
        c = minor(builtin("Delta3"), MinorSpec(delete={1}))
        assert c.ground == (2, 3)
        assert c.member_sets() == (frozenset({2, 3}),)

    def test_contract_removes_and_minimalizes(self):
        c = minor(builtin("Delta3"), MinorSpec(contract={1}))
        assert c.ground == (2, 3)
        assert set(c.member_sets()) == {frozenset({2}), frozenset({3})}

    def test_contract_to_empty_member(self):
        c = minor(builtin("Delta3"), MinorSpec(contract={1, 2}))
        assert c.ground == (3,)
        assert c.member_sets() == (frozenset(),)

    def test_unknown_label(self):
        with pytest.raises(BadIndex):
            minor(builtin("Delta3"), MinorSpec(delete={9}))

    def test_overlap_rejected(self):
        with pytest.raises(OverlapError):
            MinorSpec(delete={1}, contract={1})

    def test_composition_order_free(self, r11):
        c = mult(r11)
        singles = list(c.ground)
        for a, b in itertools.permutations(singles, 2):
            for da, db in itertools.product((True, False), repeat=2):
                s1 = MinorSpec(delete={a} if da else frozenset(),
                               contract=frozenset() if da else {a})
                s2 = MinorSpec(delete={b} if db else frozenset(),
                               contract=frozenset() if db else {b})
                combined = MinorSpec(s1.delete | s2.delete, s1.contract | s2.contract)
                assert apply_chain(c, [s1, s2]) == minor(c, combined)
                assert apply_chain(c, [s2, s1]) == minor(c, combined)


class TestLocalization:
    def test_point_in_space_gives_empty_member(self, r11):
        c = localization(r11, (0, 0, 0))
        assert c.ground == ((0, 1), (1, 1), (2, 1))
        assert c.member_sets() == (frozenset(),)

    def test_point_off_space_gives_singletons(self, r11):
        c = localization(r11, (1, 0, 0))
        assert set(c.member_sets()) == {
            frozenset({(0, 0)}),
            frozenset({(1, 1)}),
            frozenset({(2, 1)}),
        }

    def test_membership_iff_empty_member(self, f2, subspaces_gf2_3):
        for s in subspaces_gf2_3:
            for v in itertools.product(range(2), repeat=3):
                c = localization(s, v)
                expected_ground = tuple(
                    (i, u) for i in range(3) for u in range(2) if u != v[i]
                )
                assert c.ground == expected_ground
                assert (c.member_sets() == (frozenset(),)) == s.contains(v)

    def test_bad_inputs(self, r11):
        with pytest.raises(DimensionMismatch):
            localization(r11, (0, 0))
        with pytest.raises(BadIndex):
            localization(r11, (0, 0, 2))


class TestProduct:
    def test_disjoint_grounds_kept(self):
        c1 = Clutter(("a", "b"), ({"a"},))
        c2 = Clutter((1, 2), ({1, 2},))
        c = product(c1, c2)
        assert c.ground == ("a", "b", 1, 2)
        assert c.member_sets() == (frozenset({"a", 1, 2}),)

    def test_member_counts_multiply(self):
        c = product(builtin("Delta3"), builtin("C5sq"))
        assert len(c.members) == 15
        assert all(m.bit_count() == 4 for m in c.members)

    def test_wrap_relabeling_on_collision(self):
        c = product(builtin("Delta3"), builtin("Delta3"))
        assert c.ground == tuple((0, e) for e in (1, 2, 3)) + tuple(
            (1, e) for e in (1, 2, 3)
        )
        assert frozenset({(0, 1), (0, 2), (1, 1), (1, 2)}) in c.member_sets()

    def test_part_shift_matches_space_product(self):
        subs = list(enumerate_subspaces(3, 2))
        assert len(subs) == 6
        for s1, s2 in itertools.product(subs, repeat=2):
            assert product(mult(s1), mult(s2)) == mult(space_product(s1, s2))

    def test_product_too_large(self):
        c1 = Clutter(tuple(range(33)), ())
        with pytest.raises(TooLarge):
            product(c1, c1)


class TestProductLemma:
    """mult of a coordinate product is the clutter product of its factors'
    mults. verify_theorem decides absence of delta3, q6 and c5sq, and the
    packing property, on those factors first; both must equal the answer
    on the whole clutter."""

    NAMES = ("delta3", "q6", "c5sq")

    def test_targets_are_not_products(self):
        for name in self.NAMES:
            target = builtin(name)
            members = set(target.member_sets())
            for size in range(1, len(target.ground)):
                for left in map(frozenset, itertools.combinations(target.ground, size)):
                    a = {m & left for m in members}
                    b = {m - left for m in members}
                    assert {x | y for x in a for y in b} != members, (name, sorted(left))

    def test_factors_decide_the_product(self, f3):
        spaces = [
            s for q, n in ((2, 4), (2, 5), (3, 3), (4, 3)) for s in enumerate_subspaces(q, n)
        ]
        # a GF(3) plane holding delta3 next to a free coordinate
        spaces.append(space_product(span(f3, 3, [(1, 0, 1), (0, 1, 1)]), span(f3, 1, [(1,)])))
        present = dict.fromkeys(self.NAMES + ("no packing",), 0)
        products = 0
        for space in spaces:
            pieces = factor(space)
            if len(pieces) < 2:
                continue
            products += 1
            whole = mult(space)
            mults = [mult(piece) for _, piece in pieces]
            for name in self.NAMES:
                target = builtin(name)
                absent = find_minor(whole, target) is None
                assert absent == all(find_minor(m, target) is None for m in mults), (space, name)
                present[name] += not absent
            packs = has_packing_property(whole) is None
            assert packs == all(has_packing_property(m) is None for m in mults), space
            present["no packing"] += not packs
        assert products == 428
        assert present == {"delta3": 1, "q6": 128, "c5sq": 0, "no packing": 129}

    def test_minimal_masks_of_one_size_are_all_kept(self):
        rng = random.Random(5)
        for _ in range(200):
            masks = [rng.randrange(1, 1 << 8) for _ in range(rng.randint(0, 12))]
            if rng.random() < 0.5:
                size = rng.randint(1, 7)
                masks = [m for m in masks if m.bit_count() == size] + masks[:1]
            uniq = sorted(set(masks), key=lambda m: (m.bit_count(), m))
            want = tuple(m for m in uniq if not any(s != m and s & m == s for s in uniq))
            assert _minimal_masks(masks) == want, masks


class TestCoordinateMinorSpecs:
    def test_projection_spec_matches_projected_space(self, subspaces_gf3_3):
        for s in subspaces_gf3_3:
            for r in (1, 2):
                for drop in itertools.combinations(range(3), r):
                    # a projection contracts the dropped coordinates' whole parts
                    spec = MinorSpec(contract={(j, v) for j in drop for v in range(3)})
                    got = minor(mult(s), spec)
                    kept = [i for i in range(3) if i not in drop]
                    part_map = {old: new for new, old in enumerate(kept)}
                    assert relabel_parts(got, part_map) == mult(project(s, drop))

    def test_restriction_spec_on_binary_box(self, ex92, r11):
        # every coordinate keeps both binary values, so restricting to the
        # box deletes the values outside it and contracts nothing
        spec = MinorSpec(delete={(i, v) for i in range(3) for v in (2, 3)})
        got = minor(mult(ex92), spec)
        assert got == mult(r11)
        assert is_isomorphic(got, builtin("Q6")) is not None


class TestIsomorphic:
    def test_identity(self):
        c = builtin("Q6")
        mapping = is_isomorphic(c, c)
        assert mapping is not None
        mapped = {frozenset(mapping[e] for e in m) for m in c.member_sets()}
        assert mapped == set(c.member_sets())

    def test_relabeled(self):
        c1 = builtin("C5sq")
        perm = {1: 3, 2: 4, 3: 5, 4: 1, 5: 2}
        c2 = Clutter(
            (1, 2, 3, 4, 5),
            tuple(frozenset(perm[e] for e in m) for m in c1.member_sets()),
        )
        mapping = is_isomorphic(c1, c2)
        assert mapping is not None
        mapped = {frozenset(mapping[e] for e in m) for m in c1.member_sets()}
        assert mapped == set(c2.member_sets())

    def test_different_sizes(self):
        assert is_isomorphic(builtin("Delta3"), builtin("Q6")) is None
        assert is_isomorphic(builtin("Delta3"), Clutter((1, 2, 3), ({1, 2},))) is None

    def test_same_profile_different_structure(self):
        path = Clutter((1, 2, 3), ({1, 2}, {2, 3}))
        disjoint = Clutter((1, 2, 3, 4), ({1, 2}, {3, 4}))
        assert is_isomorphic(path, disjoint) is None

    def test_empty_member_clutters(self):
        assert is_isomorphic(Clutter((), (frozenset(),)), Clutter((), (frozenset(),))) == {}
        a = Clutter((1,), (frozenset(),))
        b = Clutter((2,), (frozenset(),))
        assert is_isomorphic(a, b) == {1: 2}

    def test_too_large(self):
        big = Clutter(tuple(range(21)), ())
        with pytest.raises(TooLarge):
            is_isomorphic(big, big)


class TestFindMinor:
    def test_identity_witness(self):
        d3 = builtin("Delta3")
        spec, mapping = find_minor(d3, d3)
        assert spec.delete == frozenset() and spec.contract == frozenset()
        mapped = {frozenset(mapping[e] for e in m) for m in d3.member_sets()}
        assert mapped == set(d3.member_sets())

    def test_q6_inside_r11_mult(self, r11):
        spec, mapping = find_minor(mult(r11), builtin("Q6"))
        got = minor(mult(r11), spec)
        want = {
            frozenset(mapping[e] for e in m) for m in builtin("Q6").member_sets()
        }
        assert set(got.member_sets()) == want

    def test_no_delta3_inside_q6(self):
        assert find_minor(builtin("Q6"), builtin("Delta3")) is None

    def test_no_delta3_inside_c5sq(self):
        assert find_minor(builtin("C5sq"), builtin("Delta3")) is None

    def test_q6_inside_gf4_example(self, ex92):
        c = mult(ex92)
        spec, mapping = find_minor(c, builtin("Q6"))
        got = minor(c, spec)
        want = {
            frozenset(mapping[e] for e in m) for m in builtin("Q6").member_sets()
        }
        assert set(got.member_sets()) == want

    def test_delta3_present_odd_q(self, f3):
        s = span(f3, 3, [(1, 1, 0), (1, 0, 1)])
        c = mult(s)
        found = find_minor(c, builtin("Delta3"))
        assert found is not None
        spec, mapping = found
        got = minor(c, spec)
        want = {
            frozenset(mapping[e] for e in m)
            for m in builtin("Delta3").member_sets()
        }
        assert set(got.member_sets()) == want
        assert naive_has_minor(c, builtin("Delta3"))

    def test_matches_naive_oracle_gf2(self, subspaces_gf2_3):
        for s in subspaces_gf2_3:
            c = mult(s)
            for name in ("Delta3", "Q6"):
                target = builtin(name)
                assert (find_minor(c, target) is not None) == naive_has_minor(
                    c, target
                ), (s.basis, name)

    def test_target_larger_than_ground(self):
        assert find_minor(builtin("Delta3"), builtin("Q6")) is None

    def test_over_budget_raises_and_a_covering_budget_searches(self, f3):
        rows = [(1, 1, 0, 0, 0), (1, 0, 1, 0, 0)]
        s = span(f3, 5, rows)
        c = mult(s)
        assert len(c.ground) == 15
        with pytest.raises(BudgetExceeded):
            find_minor(c, builtin("Delta3"))
        spec, mapping = find_minor(c, builtin("Delta3"), budget=3 ** 15)
        got = minor(c, spec)
        want = {
            frozenset(mapping[e] for e in m)
            for m in builtin("Delta3").member_sets()
        }
        assert set(got.member_sets()) == want

    def test_over_budget_absence_uncertified(self, f2):
        s = span(f2, 7, [(1, 0, 0, 0, 0, 0, 0)])
        with pytest.raises(BudgetExceeded):
            find_minor(mult(s), builtin("Delta3"))

    def test_budget_without_parts(self):
        with pytest.raises(BudgetExceeded):
            find_minor(builtin("Q6"), builtin("Delta3"), budget=3 ** 5)

    def test_budget_override_allows_exhaustive(self, f2):
        s = span(f2, 7, [(1, 0, 0, 0, 0, 0, 0)])
        assert find_minor(mult(s), builtin("Delta3"), budget=3 ** 14) is None

    def test_matches_bruteforce_oracle_on_random_clutters(self):
        rng = random.Random(5)
        q6 = builtin("q6")
        found = {"Delta3": 0, "Q6": 0}
        for trial in range(80):
            if trial % 4 == 0:
                # Q6 on six random elements of seven, some members reaching
                # the seventh, plus random members through it
                size = 7
                *image, extra = rng.sample(range(size), size)
                members = [
                    {image[x - 1] for x in t} | ({extra} if rng.random() < 0.5 else set())
                    for t in q6.member_sets()
                ]
                members += [
                    {extra} | set(rng.sample(image, rng.randint(1, 4)))
                    for _ in range(rng.randint(0, 2))
                ]
            else:
                size = rng.randint(3, 7)
                members = [
                    {e for e in range(size) if rng.random() < 0.45} or {rng.randrange(size)}
                    for _ in range(rng.randint(2, 8))
                ]
            c = Clutter(tuple(range(size)), members)
            for name in found:
                target = builtin(name)
                hit = find_minor(c, target)
                assert (hit is not None) == naive_has_minor(c, target), (c, name)
                if hit is not None:
                    found[name] += 1
                    spec, mapping = hit
                    want = {frozenset(mapping[x] for x in t) for t in target.member_sets()}
                    assert set(minor(c, spec).member_sets()) == want
        assert found["Delta3"] >= 10 and found["Q6"] >= 5, found

    def test_first_hit_is_pinned(self):
        # (delete, contract, mapping) of the first hit in keep-set order;
        # skipping keep-sets that cannot hold the target must not move it
        plane = mult(span(build_field(4), 3, [(1, 1, 0), (1, 0, 1)]))
        gf3 = mult(span(build_field(3), 3, [(1, 1, 0), (1, 0, 1)]))
        hosts = {
            "delta3": builtin("delta3"),
            "q6": builtin("q6"),
            "c5sq": builtin("c5sq"),
            "plane": plane,
            "gf3": gf3,
        }
        identity = {
            name: ([], [], [(x, x) for x in builtin(name).ground])
            for name in ("delta3", "q6", "c5sq")
        }
        pinned = {
            ("delta3", "delta3"): identity["delta3"],
            ("q6", "q6"): identity["q6"],
            ("c5sq", "c5sq"): identity["c5sq"],
            ("plane", "q6"): (
                [(0, 2), (0, 3), (1, 2), (1, 3), (2, 2), (2, 3)],
                [],
                [(1, (0, 0)), (2, (0, 1)), (3, (1, 0)), (4, (1, 1)), (5, (2, 0)), (6, (2, 1))],
            ),
            ("gf3", "delta3"): (
                [(0, 2), (1, 1), (2, 2)],
                [(0, 1), (1, 2), (2, 0)],
                [(1, (0, 0)), (2, (1, 0)), (3, (2, 1))],
            ),
        }
        for host, c in hosts.items():
            for name in ("delta3", "q6", "c5sq"):
                hit = find_minor(c, builtin(name))
                got = None
                if hit is not None:
                    spec, mapping = hit
                    got = (sorted(spec.delete), sorted(spec.contract), sorted(mapping.items()))
                assert got == pinned.get((host, name)), (host, name)


def _planted_clutter(rng: random.Random, target: Clutter, size: int) -> Clutter:
    """A clutter holding the target: contracting one spare group and deleting
    the other leaves the target's members on random elements."""
    k = len(target.ground)
    image = rng.sample(range(size), size)
    cut = rng.randint(k, size)
    contract, delete = image[k:cut], image[cut:]
    members = [
        {image[target.ground.index(x)] for x in t}
        | set(rng.sample(contract, rng.randint(0, min(2, len(contract)))))
        for t in target.member_sets()
    ]
    if delete:
        members += [
            {rng.choice(delete)} | {e for e in range(size) if rng.random() < 0.3}
            for _ in range(rng.randint(0, 3))
        ]
    return Clutter(tuple(range(size)), members)


def _random_clutter(rng: random.Random, size: int) -> Clutter:
    members = [
        {e for e in range(size) if rng.random() < 0.45} or {rng.randrange(size)}
        for _ in range(rng.randint(2, 9))
    ]
    return Clutter(tuple(range(size)), members)


class TestDecideThenLabel:
    SEARCHED = {
        "delta3": builtin("delta3"),
        "q6": builtin("q6"),
        "c5sq": builtin("c5sq"),
        "U24": _circuit_clutter(TARGETS["U24"]),
        "MK4e": _circuit_clutter(TARGETS["MK4e"]),
    }

    def test_copy_counts_of_builtins(self):
        counts = {
            name: len(_labelled_copies(len(t.ground), t.members))
            for name, t in self.SEARCHED.items()
            if name in ("delta3", "q6", "c5sq")
        }
        assert counts == {"delta3": 1, "q6": 30, "c5sq": 12}

    def test_copies_are_the_relabelled_images(self):
        rng = random.Random(11)
        for _ in range(40):
            k = rng.randint(1, 6)
            target = _random_clutter(rng, k)
            brute = set()
            for perm in itertools.permutations(range(k)):
                image = frozenset(
                    sum(1 << perm[b] for b in range(k) if m >> b & 1) for m in target.members
                )
                brute.add(image)
            copies = _labelled_copies(k, target.members)
            assert len(copies) == len(brute) and set(copies) == brute, target

    def test_decision_matches_embed_on_every_keep_set(self):
        # every keep-set, including those the pattern-count filter would skip
        rng = random.Random(9)
        agreed = {name: [0, 0] for name in self.SEARCHED}
        for trial in range(30):
            for name, target in self.SEARCHED.items():
                k = len(target.ground)
                size = rng.randint(k, 8)
                if trial % 2:
                    c = _planted_clutter(rng, target, size)
                else:
                    c = _random_clutter(rng, size)
                tmembers = sorted(target.member_sets(), key=lambda t: -len(t))
                copies = _labelled_copies(k, target.members)
                full = (1 << size) - 1
                for combo in itertools.combinations(range(size), k):
                    kmask = sum(1 << b for b in combo)
                    pairs = [(m & kmask, m & ~kmask) for m in c.members]
                    grouped: dict = {}
                    for pat, fp in pairs:
                        grouped.setdefault(pat, []).append(fp)
                    buckets = {pat: _minimal_masks(fps) for pat, fps in grouped.items()}
                    decided = _holds(copies, combo, buckets, pairs)
                    hit = _embed(c, target, kmask, pairs, buckets, tmembers, full)
                    assert decided == (hit is not None), (name, c, combo)
                    agreed[name][decided] += 1
        for name, (no, yes) in agreed.items():
            assert no >= 100 and yes >= 10, (name, no, yes)

    def test_target_above_copy_table_size_is_labelled_directly(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("copy table built for a target above the constant")

        monkeypatch.setattr(clutter_module, "_labelled_copies", refuse)
        rng = random.Random(4)
        size = MAX_COPY_GROUND + 1
        target = _random_clutter(rng, size)
        outcomes = set()
        for trial in range(6):
            c = _planted_clutter(rng, target, size + 1) if trial % 2 else _random_clutter(rng, size + 1)
            hit = find_minor(c, target)
            assert (hit is not None) == naive_has_minor(c, target), c
            outcomes.add(hit is not None)
        assert outcomes == {False, True}


class TestReplayMinor:
    @pytest.fixture(scope="class")
    def hit(self):
        c = mult(span(build_field(3), 3, [(1, 1, 0), (1, 0, 1)]))
        spec, mapping = find_minor(c, builtin("delta3"))
        return c, spec, mapping

    def test_accepts_the_search_hit(self, hit):
        c, spec, mapping = hit
        assert replay_minor(c, spec, "delta3", mapping) == mapping
        found = replay_minor(c, spec, builtin("delta3"))
        assert replay_minor(c, spec, "delta3", found) == found

    def test_refuses_a_map_that_is_not_injective(self, hit):
        c, spec, mapping = hit
        bad = {**mapping, 1: mapping[2]}
        with pytest.raises(VerificationFailure, match="not a bijection"):
            replay_minor(c, spec, "delta3", bad)

    def test_refuses_a_map_onto_the_wrong_ground(self, hit):
        c, spec, mapping = hit
        bad = {**mapping, 1: min(spec.contract)}
        with pytest.raises(VerificationFailure, match="not a bijection"):
            replay_minor(c, spec, "delta3", bad)

    def test_refuses_an_element_moved_from_contract_to_delete(self, hit):
        c, spec, mapping = hit
        moved = min(spec.contract)
        bad = MinorSpec(spec.delete | {moved}, spec.contract - {moved})
        with pytest.raises(VerificationFailure):
            replay_minor(c, bad, "delta3", mapping)
        with pytest.raises(VerificationFailure, match="not isomorphic to delta3"):
            replay_minor(c, bad, "delta3")

    def test_refuses_a_chain_that_misses_the_target(self, f8):
        space = span(f8, 3, [(1, 1, 0), (1, 0, 1)])
        chain = c5sq_witness(space)
        assert replay_minor(mult(space), compose_chain(chain), "c5sq")
        with pytest.raises(VerificationFailure, match="not isomorphic to c5sq"):
            replay_minor(mult(space), compose_chain(chain[:-1]), "c5sq")


class TestTextFormats:
    def test_certificate_round_trip(self, r11):
        spec, mapping = find_minor(mult(r11), builtin("Q6"))
        text = format_minor_certificate(spec, mapping)
        spec2, mapping2 = parse_minor_certificate(text)
        assert spec2 == spec and mapping2 == mapping

    def test_certificate_ascii_arrow(self):
        spec, mapping = parse_minor_certificate("I={1} J={2} map: 3->1")
        assert spec == MinorSpec(delete={1}, contract={2})
        assert mapping == {3: 1}

    def test_certificate_garbage(self):
        with pytest.raises(ParseError):
            parse_minor_certificate("nonsense")
