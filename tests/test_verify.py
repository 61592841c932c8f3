"""Tests for the cross-module verification harness.

Oracles: subspace counts come from the q-binomial product formula checked
against brute-force point-set deduplication on a small case; witness chains
are replayed through the minor machinery independently of the constructors'
own internal replay; localization censuses are cross-counted against the
actual localization clutter; sweep verdicts are cross-checked against direct
polyhedral computation where the ground is small.
"""
from __future__ import annotations

import dataclasses
import itertools
import json
import math
import random
from fractions import Fraction

import pytest

from clutterforge.clutter import (
    SEARCH_BUDGET,
    Clutter,
    MinorSpec,
    apply_chain,
    builtin,
    compose_chain,
    find_minor,
    is_isomorphic,
    localization,
    minor,
    mult,
    replay_minor,
)
from clutterforge.errors import (
    BudgetExceeded,
    NotPrimePower,
    PreconditionViolated,
    VerificationFailure,
    WrongField,
    WrongFieldClass,
    WrongShape,
)
from clutterforge.gf import build_field
from clutterforge.matroid import matroid_of, series_classes
from clutterforge.polyhedral import IdealnessCertificate, has_packing_property, is_ideal, mfmc_check, nu, tau
import clutterforge.clutter as clutter_module
import clutterforge.matroid as matroid_module
import clutterforge.polyhedral as polyhedral_module
import clutterforge.verify as verify_module
import clutterforge.vspace as vspace_module
from clutterforge.verify import (
    LocalizationProfile,
    _blocked_triple_chain,
    c5sq_witness,
    count_subspaces,
    delta3_witness_k4e,
    delta3_witness_u24,
    enumerate_subspaces,
    gaussian_binomial,
    instance_id,
    localization_profile,
    replication_tau2_report,
    summarize_certificate,
    sweep_theorem,
    verify_theorem,
)
from clutterforge.vspace import (
    _is_semilinear,
    disjoint_support_basis,
    factor,
    monomial_image,
    monomial_orbits,
    permute,
    project,
    span,
)


@pytest.fixture(scope="module")
def f16():
    return build_field(16)


@pytest.fixture(scope="module")
def r11(f2):
    return span(f2, 3, [(0, 1, 1), (1, 0, 1)])


@pytest.fixture(scope="module")
def zero_sum_gf3(f3):
    return span(f3, 3, [(1, 1, 0), (1, 0, 1)])


@pytest.fixture(scope="module")
def zero_sum_gf4(f4):
    return span(f4, 3, [(1, 1, 0), (1, 0, 1)])


@pytest.fixture(scope="module")
def zero_sum_gf8(f8):
    return span(f8, 3, [(1, 1, 0), (1, 0, 1)])


# ---------------------------------------------------------------------------
# subspace enumeration
# ---------------------------------------------------------------------------

class TestEnumeration:
    def test_gaussian_binomial_small_values(self):
        assert gaussian_binomial(3, 1, 2) == 7
        assert gaussian_binomial(3, 2, 2) == 7
        assert gaussian_binomial(4, 2, 3) == 130
        assert gaussian_binomial(2, 1, 5) == 6
        assert gaussian_binomial(3, 0, 9) == 1
        for r in (5, -1):
            value = gaussian_binomial(3, r, 3)
            assert value == 0 and type(value) is int

    def test_counts_match_enumeration(self):
        for q, n, expect in [(2, 3, 16), (3, 3, 28), (4, 3, 44), (3, 4, 212), (5, 2, 8)]:
            assert count_subspaces(q, n) == expect
            spaces = list(enumerate_subspaces(q, n))
            assert len(spaces) == expect
            assert len(set(spaces)) == expect

    def test_enumeration_is_exhaustive_by_point_sets(self, f2):
        seen = {frozenset(s.points()) for s in enumerate_subspaces(2, 3)}
        assert len(seen) == 16
        brute = set()
        vecs = list(itertools.product(range(2), repeat=3))
        for gens in itertools.chain.from_iterable(
            itertools.combinations(vecs, r) for r in range(4)
        ):
            brute.add(frozenset(span(f2, 3, gens).points()))
        assert seen == brute

    def test_budget_raises(self):
        with pytest.raises(BudgetExceeded):
            list(enumerate_subspaces(2, 9))

    def test_dimension_order(self):
        dims = [s.dim for s in enumerate_subspaces(2, 2)]
        assert dims == sorted(dims)


# ---------------------------------------------------------------------------
# blocked triples: the checks before a triangle chain is built
# ---------------------------------------------------------------------------

class TestBlockedTripleChain:
    TRIPLE = ((0, 0, 0), (0, 1, 1), (1, 0, 1))

    def test_completion_point_raises(self, r11):
        # (1, 1, 0) completes this triple at (0, 2, 1): it matches c at 0 and a at 2
        with pytest.raises(VerificationFailure, match="unexpected completion point"):
            _blocked_triple_chain(r11, *self.TRIPLE, 0, 2, 1)

    def test_broken_agreement_pattern_raises(self, r11):
        # at (1, 2, 0) a and b disagree at coordinate 1
        with pytest.raises(VerificationFailure, match="cyclic agreement pattern"):
            _blocked_triple_chain(r11, *self.TRIPLE, 1, 2, 0)


# ---------------------------------------------------------------------------
# triangle witness: four coordinates, all 3-subsets minimally dependent
# ---------------------------------------------------------------------------

class TestDelta3WitnessU24:
    def test_example_chain_replays(self, f4):
        space = span(f4, 4, [(1, 0, 1, 1), (0, 1, 1, 2)])
        chain = delta3_witness_u24(space)
        assert len(chain) == 2
        final = apply_chain(mult(space), chain)
        assert is_isomorphic(final, builtin("delta3")) is not None

    def test_second_contraction_has_three_elements(self, f4):
        space = span(f4, 4, [(1, 0, 1, 1), (0, 1, 1, 2)])
        first, second = delta3_witness_u24(space)
        assert len(second.contract) == 3 and not second.delete

    def test_odd_field_rejected(self, f3):
        space = span(f3, 4, [(1, 0, 1, 1), (0, 1, 1, 2)])
        with pytest.raises(WrongField):
            delta3_witness_u24(space)

    def test_wrong_matroid_rejected(self, f4):
        space = span(f4, 4, [(1, 0, 1, 0), (0, 1, 0, 1)])
        with pytest.raises(WrongShape):
            delta3_witness_u24(space)

    def test_wrong_coordinate_count_rejected(self, f4, zero_sum_gf4):
        with pytest.raises(WrongShape):
            delta3_witness_u24(zero_sum_gf4)

    def test_all_qualifying_planes_of_gf4_4(self):
        wins = rejects = 0
        for space in enumerate_subspaces(4, 4):
            if space.dim != 2:
                continue
            try:
                chain = delta3_witness_u24(space)
            except WrongShape:
                m = matroid_of(space)
                assert any(len(c) <= 2 for c in m.circuits)
                rejects += 1
                continue
            final = apply_chain(mult(space), chain)
            assert is_isomorphic(final, builtin("delta3")) is not None
            wins += 1
        assert wins == 54 and rejects == 303

    def test_gf8_instance(self, f8):
        space = span(f8, 4, [(1, 0, 1, 3), (0, 1, 5, 2)])
        chain = delta3_witness_u24(space)
        final = apply_chain(mult(space), chain)
        assert is_isomorphic(final, builtin("delta3")) is not None


# ---------------------------------------------------------------------------
# triangle witness: five coordinates, doubled-triangle minimal supports
# ---------------------------------------------------------------------------

class TestDelta3WitnessK4e:
    BASE = [(1, 0, 0, 1, 1), (0, 1, 0, 1, 0), (0, 0, 1, 0, 1)]

    def test_example_chain_replays(self, f4):
        space = span(f4, 5, self.BASE)
        chain = delta3_witness_k4e(space)
        assert len(chain) == 2
        final = apply_chain(mult(space), chain)
        assert is_isomorphic(final, builtin("delta3")) is not None
        # the composed spec of tests/cli_golden/witness-gf4_k4e-k4e.out
        assert compose_chain(chain) == MinorSpec(
            delete=frozenset({(0, 3), (1, 0), (1, 3), (2, 0), (2, 3), (3, 2), (3, 3), (4, 1), (4, 3)}),
            contract=frozenset({(0, 0), (0, 1), (0, 2), (1, 2), (2, 1), (3, 0), (3, 1), (4, 2)}),
        )

    def test_example_matroid_shape(self, f4):
        space = span(f4, 5, self.BASE)
        m = matroid_of(space)
        sizes = sorted(len(c) for c in m.circuits)
        assert sizes == [2, 2, 3, 3, 3, 3]

    def test_all_coordinate_permutations(self, f4):
        base = span(f4, 5, self.BASE)
        for order in itertools.permutations(range(5)):
            space = permute(base, order)
            chain = delta3_witness_k4e(space)
            final = apply_chain(mult(space), chain)
            assert is_isomorphic(final, builtin("delta3")) is not None

    def test_column_rescalings(self, f4):
        for col, scale in [(0, 2), (3, 3), (4, 2)]:
            rows = [
                tuple(f4.mul(scale, v) if idx == col else v for idx, v in enumerate(row))
                for row in self.BASE
            ]
            space = span(f4, 5, rows)
            chain = delta3_witness_k4e(space)
            final = apply_chain(mult(space), chain)
            assert is_isomorphic(final, builtin("delta3")) is not None

    def test_gf8_instance(self, f8):
        space = span(f8, 5, self.BASE)
        chain = delta3_witness_k4e(space)
        final = apply_chain(mult(space), chain)
        assert is_isomorphic(final, builtin("delta3")) is not None

    def test_chains_match_the_point_scan_route(self, monkeypatch, support_line_by_scan):
        # every tenth 3-dimensional subspace of GF(4)^5; about a fifth have the K4/e shape
        spaces = [s for s in enumerate_subspaces(4, 5) if s.dim == 3][::10]

        def outcomes():
            out = []
            for space in spaces:
                try:
                    out.append(delta3_witness_k4e(space))
                except (VerificationFailure, WrongShape) as exc:
                    out.append((type(exc), str(exc)))
            return out

        def line_by_scan(space, supp):
            line = support_line_by_scan(space, supp)
            if line is None:
                raise VerificationFailure(f"support {sorted(supp)} does not carry a unique line")
            return line

        direct = outcomes()
        monkeypatch.setattr(verify_module, "_support_line", line_by_scan)
        assert outcomes() == direct
        assert sum(isinstance(o[0], MinorSpec) for o in direct) > 50

    def test_small_field_rejected(self, f2):
        space = span(f2, 5, self.BASE)
        with pytest.raises(WrongField):
            delta3_witness_k4e(space)

    def test_odd_field_rejected(self, f3):
        space = span(f3, 5, self.BASE)
        with pytest.raises(WrongField):
            delta3_witness_k4e(space)

    def test_three_coordinate_space_rejected(self, zero_sum_gf4):
        with pytest.raises(WrongShape):
            delta3_witness_k4e(zero_sum_gf4)

    def test_wrong_matroid_rejected(self, f4):
        space = span(f4, 5, [(1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 1, 1, 1)])
        with pytest.raises(WrongShape):
            delta3_witness_k4e(space)


# ---------------------------------------------------------------------------
# 5-cycle-square witness
# ---------------------------------------------------------------------------

EXPECTED_SEVEN = Clutter(range(7), [{0, 1}, {1, 2}, {2, 3}, {3, 4, 6}, {0, 4, 5}])


class TestC5sqWitness:
    def test_default_chain_replays(self, zero_sum_gf8):
        chain = c5sq_witness(zero_sum_gf8)
        assert len(chain) == 3
        final = apply_chain(mult(zero_sum_gf8), chain)
        assert is_isomorphic(final, builtin("c5sq")) is not None

    def test_explicit_alpha(self, zero_sum_gf8):
        chain = c5sq_witness(zero_sum_gf8, alpha=(1, 0, 0))
        final = apply_chain(mult(zero_sum_gf8), chain)
        assert is_isomorphic(final, builtin("c5sq")) is not None

    def test_intermediate_seven_element_structure(self, zero_sum_gf8):
        chain = c5sq_witness(zero_sum_gf8, alpha=(1, 0, 0))
        middle = apply_chain(mult(zero_sum_gf8), chain[:2])
        assert len(middle.ground) == 7
        assert len(middle.members) == 5
        assert is_isomorphic(middle, EXPECTED_SEVEN) is not None

    def test_many_alphas(self, f8, zero_sum_gf8):
        outside = [
            p
            for p in itertools.product(range(8), repeat=3)
            if not zero_sum_gf8.contains(p)
        ]
        for alpha in outside[:12]:
            chain = c5sq_witness(zero_sum_gf8, alpha=alpha)
            final = apply_chain(mult(zero_sum_gf8), chain)
            assert is_isomorphic(final, builtin("c5sq")) is not None

    def test_scaled_plane(self, f8):
        space = span(f8, 3, [(2, 1, 0), (5, 0, 1)])
        chain = c5sq_witness(space)
        final = apply_chain(mult(space), chain)
        assert is_isomorphic(final, builtin("c5sq")) is not None

    def test_gf16(self, f16):
        space = span(f16, 3, [(1, 1, 0), (1, 0, 1)])
        chain = c5sq_witness(space)
        final = apply_chain(mult(space), chain)
        assert is_isomorphic(final, builtin("c5sq")) is not None

    def test_rng_choices_valid_and_deterministic(self, f16):
        space = span(f16, 3, [(1, 1, 0), (1, 0, 1)])
        assert c5sq_witness(space, rng=7) == c5sq_witness(space, rng=7)
        for seed in range(6):
            chain = c5sq_witness(space, rng=seed)
            final = apply_chain(mult(space), chain)
            assert is_isomorphic(final, builtin("c5sq")) is not None

    def test_rng_object_accepted(self, zero_sum_gf8):
        chain = c5sq_witness(zero_sum_gf8, rng=random.Random(3))
        final = apply_chain(mult(zero_sum_gf8), chain)
        assert is_isomorphic(final, builtin("c5sq")) is not None

    def test_gf4_rejected(self, zero_sum_gf4):
        with pytest.raises(WrongField):
            c5sq_witness(zero_sum_gf4)

    def test_odd_field_rejected(self, zero_sum_gf3):
        with pytest.raises(WrongField):
            c5sq_witness(zero_sum_gf3)

    def test_product_plane_rejected(self, f8):
        space = span(f8, 3, [(1, 0, 0), (0, 1, 1)])
        with pytest.raises(WrongShape):
            c5sq_witness(space)

    def test_full_space_rejected(self, f8):
        space = span(f8, 3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
        with pytest.raises(WrongShape):
            c5sq_witness(space)

    def test_four_coordinates_rejected(self, f8):
        space = span(f8, 4, [(1, 1, 0, 0), (1, 0, 1, 0), (1, 0, 0, 1)])
        with pytest.raises(WrongShape):
            c5sq_witness(space)

    def test_alpha_inside_space_rejected(self, zero_sum_gf8):
        with pytest.raises(PreconditionViolated):
            c5sq_witness(zero_sum_gf8, alpha=(0, 0, 0))

    def test_bad_alpha_rejected(self, zero_sum_gf8):
        with pytest.raises(PreconditionViolated):
            c5sq_witness(zero_sum_gf8, alpha=(1, 0))


# ---------------------------------------------------------------------------
# localization profiles
# ---------------------------------------------------------------------------

def _profile_member_total(profile: LocalizationProfile) -> int:
    return (
        len(profile.size_one)
        + sum(len(c.edges) for c in profile.components)
        + len(profile.residual)
    )


class TestLocalizationProfile:
    def test_gf4_three_parts(self, zero_sum_gf4):
        p = localization_profile(zero_sum_gf4, (1, 0, 0))
        assert len(p.size_one) == 3
        assert len(p.components) == 1
        assert len(p.components[0].edges) == 6
        assert p.residual == ()
        actual = localization(zero_sum_gf4, (1, 0, 0))
        assert _profile_member_total(p) == len(actual.members)

    def test_gf8_three_parts(self, zero_sum_gf8):
        p = localization_profile(zero_sum_gf8, (1, 0, 0))
        assert len(p.size_one) == 3
        assert len(p.components) == 3
        assert all(len(c.edges) == 6 for c in p.components)
        assert p.residual and all(len(m) >= 3 for m in p.residual)
        actual = localization(zero_sum_gf8, (1, 0, 0))
        assert _profile_member_total(p) == len(actual.members)

    def test_gf4_four_parts(self, f4):
        space = span(f4, 4, [(1, 1, 0, 0), (1, 0, 1, 0), (1, 0, 0, 1)])
        p = localization_profile(space, (1, 0, 0, 0))
        assert len(p.size_one) == 4
        assert len(p.components) == 1
        assert len(p.components[0].edges) == 12
        assert p.residual == ()

    def test_gf8_four_parts(self, f8):
        space = span(f8, 4, [(1, 1, 0, 0), (1, 0, 1, 0), (1, 0, 0, 1)])
        p = localization_profile(space, (1, 0, 0, 0))
        assert len(p.components) == 3
        assert all(len(c.edges) == 12 for c in p.components)
        assert len(p.residual) == 96

    def test_component_heads_partition_remaining_values(self, zero_sum_gf8):
        p = localization_profile(zero_sum_gf8, (1, 0, 0))
        f = build_field(8)
        covered = set()
        for comp in p.components:
            beta, partner = comp.head
            assert partner == f.add(beta, p.sigma)
            covered.update(comp.head)
        alpha0 = p.alpha[0]
        assert covered == set(range(8)) - {alpha0, f.add(alpha0, p.sigma)}

    def test_scaled_plane_profile(self, f8):
        space = span(f8, 3, [(2, 1, 0), (5, 0, 1)])
        alpha = (1, 1, 1)
        assert not space.contains(alpha)
        p = localization_profile(space, alpha)
        assert len(p.components) == 3
        actual = localization(space, alpha)
        assert _profile_member_total(p) == len(actual.members)

    def test_every_alpha_outside_gf4(self, zero_sum_gf4):
        for alpha in itertools.product(range(4), repeat=3):
            if zero_sum_gf4.contains(alpha):
                continue
            p = localization_profile(zero_sum_gf4, alpha)
            assert p.residual == () and len(p.components) == 1

    def test_odd_field_rejected(self, zero_sum_gf3):
        with pytest.raises(PreconditionViolated):
            localization_profile(zero_sum_gf3, (1, 0, 0))

    def test_alpha_in_space_rejected(self, zero_sum_gf4):
        with pytest.raises(PreconditionViolated):
            localization_profile(zero_sum_gf4, (0, 1, 1))

    def test_product_plane_rejected(self, f4):
        space = span(f4, 3, [(1, 0, 0), (0, 1, 1)])
        with pytest.raises(PreconditionViolated):
            localization_profile(space, (0, 1, 0))


# ---------------------------------------------------------------------------
# series reduction
# ---------------------------------------------------------------------------

class TestSeriesExtension:
    """Dropping one coordinate of a series pair keeps the idealness verdict."""

    @staticmethod
    def reduce(space):
        cls = next(c for c in series_classes(matroid_of(space)) if len(c) >= 2)
        return project(space, [cls[-1]])

    def test_ideal_pair_gf4(self, f4):
        space = span(f4, 4, [(1, 1, 0, 0), (1, 0, 1, 1)])
        reduced = self.reduce(space)
        assert reduced.n == 3
        assert is_ideal(mult(space), max_ground=16).integral
        assert is_ideal(mult(reduced), max_ground=16).integral

    def test_non_ideal_pair_gf3(self, f3):
        space = span(f3, 4, [(1, 2, 0, 0), (1, 0, 2, 2)])
        reduced = self.reduce(space)
        assert reduced.n == 3
        assert not is_ideal(mult(space), max_ground=16).integral
        assert not is_ideal(mult(reduced), max_ground=16).integral

    def test_no_series_pair(self, zero_sum_gf3):
        assert all(len(c) == 1 for c in series_classes(matroid_of(zero_sum_gf3)))


# ---------------------------------------------------------------------------
# replication report
# ---------------------------------------------------------------------------

class TestReplicationReport:
    def test_r11(self, r11):
        rep = replication_tau2_report(r11)
        assert rep.has_packing is False
        assert rep.disjoint_basis is False
        assert rep.ideal is True
        assert rep.minimally_non_packing is True
        assert rep.tau_one == 2
        assert rep.q6_isomorphism is not None

    def test_disjoint_space_packs(self, f3):
        space = span(f3, 3, [(1, 0, 0), (0, 1, 1)])
        rep = replication_tau2_report(space)
        assert rep.has_packing is True
        assert rep.disjoint_basis is True
        assert rep.minimally_non_packing is False
        assert rep.tau_one is None
        assert "covering-number branch inapplicable" in rep.notes

    def test_non_ideal_space_inapplicable(self, zero_sum_gf3):
        rep = replication_tau2_report(zero_sum_gf3)
        assert rep.has_packing is False
        assert rep.ideal is False
        assert rep.tau_one is None

    def test_instance_id_recorded(self, r11):
        rep = replication_tau2_report(r11)
        assert rep.instance == instance_id(r11)


# ---------------------------------------------------------------------------
# three-way equivalence reports
# ---------------------------------------------------------------------------

class TestVerifyTheorem:
    def test_selector_normalization(self, zero_sum_gf3):
        for which in ("1.1", "T1.1", "t1.1"):
            assert verify_theorem(zero_sum_gf3, which).theorem == "1.1"
        with pytest.raises(PreconditionViolated):
            verify_theorem(zero_sum_gf3, "9.9")

    def test_field_class_gates(self, zero_sum_gf3, zero_sum_gf4, zero_sum_gf8):
        with pytest.raises(WrongFieldClass):
            verify_theorem(zero_sum_gf4, "1.1")
        with pytest.raises(WrongFieldClass):
            verify_theorem(zero_sum_gf3, "1.2")
        with pytest.raises(WrongFieldClass):
            verify_theorem(zero_sum_gf8, "1.2")
        with pytest.raises(WrongFieldClass):
            verify_theorem(zero_sum_gf4, "1.3")
        with pytest.raises(WrongFieldClass):
            verify_theorem(zero_sum_gf3, "1.3")

    def test_odd_non_ideal_plane(self, zero_sum_gf3):
        r = verify_theorem(zero_sum_gf3, "1.1")
        assert r.verdicts == {"i": False, "ii": False, "iii": False}
        assert r.agreement and not r.unknown
        name, spec, mapping = r.certificates["iii"]
        assert name == "delta3"
        final = apply_chain(mult(zero_sum_gf3), [spec])
        assert is_isomorphic(final, builtin("delta3")) is not None

    def test_gf4_zero_sum_all_true(self, zero_sum_gf4):
        r = verify_theorem(zero_sum_gf4, "1.2")
        assert r.verdicts == {"i": True, "ii": True, "iii": True}
        assert r.methods["i"] == "exact extreme-point enumeration"

    def test_r11_all_false_with_q6(self, r11):
        r = verify_theorem(r11, "1.4")
        assert r.verdicts == {"i": False, "ii": False, "iii": False}
        assert r.certificates["iii"][0] == "q6"
        assert r.methods["i"].startswith("refuted")

    def test_gf8_witness_route(self, zero_sum_gf8):
        r = verify_theorem(zero_sum_gf8, "1.3")
        assert r.verdicts == {"i": False, "ii": False, "iii": False}
        assert "witness" in r.methods["iii"]
        assert r.methods["i"].startswith("derived")

    def test_gf8_product_derivations(self, f8):
        space = span(f8, 3, [(1, 0, 0), (0, 1, 1)])
        r = verify_theorem(space, "1.3")
        assert r.verdicts == {"i": True, "ii": True, "iii": True}
        assert r.methods["i"].startswith("derived")
        assert r.methods["iii"].startswith("derived")

    def test_minor_budget_below_the_ground_never_searches(self, r11, zero_sum_gf3, zero_sum_gf4, monkeypatch):
        # under 3^|ground| find_minor raises BudgetExceeded before any search,
        # and no builder fits these shapes
        monkeypatch.setattr(clutter_module, "_exhaustive_find_minor", lambda *a: pytest.fail("minor searched"))
        for space, which in ((r11, "1.4"), (zero_sum_gf3, "1.1"), (zero_sum_gf4, "1.2")):
            r = verify_theorem(space, which, budget=3 ** len(mult(space).ground) - 1)
            assert "iii" not in r.certificates
            if which == "1.2":
                assert r.cond_iii is True and r.methods["iii"].startswith("derived")
            else:
                assert r.cond_iii is None
                assert r.methods["iii"] == "unknown: minor search out of budget"

    def test_flow_weight_refuter_runs_only_past_the_packing_budget(self, f2, r11, monkeypatch):
        calls = []
        real = verify_module.mfmc_check
        monkeypatch.setattr(verify_module, "mfmc_check", lambda *a: calls.append(a) or real(*a))
        packing = verify_theorem(span(f2, 3, [(1, 1, 0)]), "1.4")
        assert packing.cond_i is True and "i" not in packing.certificates
        assert packing.methods["i"] == (
            "derived: disjoint-support structure, with an exhaustive "
            "packing-property sweep finding no violation"
        )
        swept = verify_theorem(r11, "1.4")
        assert swept.methods["i"].startswith("refuted: a minor fails to pack")
        assert calls == []
        weighted = verify_theorem(r11, "1.4", budget=1)
        assert weighted.cond_i is False and len(calls) == 1
        assert weighted.methods["i"] == "refuted: explicit weight vector with covering > packing"
        w, cover, packing_value = weighted.certificates["i"]
        assert cover == tau(mult(r11), list(w)) != packing_value == nu(mult(r11), list(w))

    def test_flow_weight_refuter_refuses_a_sweep_it_cannot_afford(self, f4):
        # 20 elements and 64 members: 2^20 unit-weight vectors, each a tau and
        # a nu over every member, would run for tens of minutes
        cl = mult(span(f4, 5, [(1, 0, 0, 1, 1), (0, 1, 0, 1, 0), (0, 0, 1, 0, 1)]))
        assert (len(cl.ground), len(cl.members)) == (20, 64)
        with pytest.raises(BudgetExceeded):
            mfmc_check(cl, 1)
        verdict, method, cert = verify_module._mfmc_condition(cl, False, None)
        assert verdict is None and cert is None
        assert method.startswith("unknown: packing sweep out of budget")

    def test_report_serializes(self, zero_sum_gf3, r11):
        for rep in (verify_theorem(zero_sum_gf3, "1.1"), verify_theorem(r11, "1.4")):
            data = json.loads(json.dumps(rep.to_dict()))
            assert data["theorem"] == rep.theorem
            assert data["agreement"] is True

    def test_summarize_certificate_handles_minor_spec(self):
        spec = MinorSpec(delete={(0, 1)}, contract={(2, 3)})
        out = summarize_certificate(spec)
        assert out == {"delete": ["(0, 1)"], "contract": ["(2, 3)"]}


class TestSearchBudget:
    """One budget, as 3^|ground|, caps both searches over the minors: find_minor and the packing sweep."""

    @staticmethod
    def _clutter(size):
        # contracting 3 leaves delta3, and the members cover twice but pack once
        return Clutter(tuple(range(size)), [{0, 1}, {1, 2}, {0, 2, 3}])

    def test_default_searches_ground_13_and_refuses_ground_14(self):
        assert SEARCH_BUDGET == 3 ** 13
        c = self._clutter(13)
        assert find_minor(c, builtin("delta3")) is not None
        assert has_packing_property(c) == MinorSpec()
        c = self._clutter(14)
        with pytest.raises(BudgetExceeded):
            find_minor(c, builtin("delta3"))
        with pytest.raises(BudgetExceeded):
            has_packing_property(c)

    def test_one_value_gates_both_searches(self, r11):
        # mult(r11) is q6 on 6 ground elements
        below = verify_theorem(r11, "1.4", budget=3 ** 6 - 1)
        assert below.methods["i"] == "refuted: explicit weight vector with covering > packing"
        assert below.cond_iii is None and below.methods["iii"] == "unknown: minor search out of budget"
        at = verify_theorem(r11, "1.4", budget=3 ** 6)
        assert at.methods["i"].startswith("refuted: a minor fails to pack")
        assert at.cond_iii is False and at.methods["iii"] == "minor search (witness replayed)"

    @pytest.mark.parametrize("keyword", ["minor_budget", "packing_budget"])
    def test_budget_is_the_only_search_keyword(self, r11, keyword):
        with pytest.raises(TypeError):
            verify_theorem(r11, "1.4", **{keyword: 3 ** 6})
        with pytest.raises(TypeError):
            sweep_theorem(2, 2, "1.4", **{keyword: 3 ** 6})


class TestNamedMinor:
    """verify._named_minor, the one rule condition (iii) and `analyze` share."""

    BASES = (
        (4, 4, [(1, 0, 1, 1), (0, 1, 1, 2)]),  # U24 plane
        (4, 5, [(1, 0, 0, 1, 1), (0, 1, 0, 1, 0), (0, 0, 1, 0, 1)]),  # MK4e space
        (8, 3, [(1, 1, 0), (1, 0, 1)]),  # zero-sum plane
    )

    def test_builder_hits_agree_with_the_exhaustive_search(self):
        # past the default budget a builder decides presence; a search with a
        # budget covering the ground must then find the same target
        rng = random.Random(26)
        replayed = 0
        for q, n, rows in self.BASES:
            f = build_field(q)
            base = span(f, n, rows)
            spaces = [random_monomial_image(base, rng) for _ in range(4)]
            spaces += [
                span(f, n, [[rng.randrange(q) for _ in range(n)] for _ in rows]) for _ in range(4)
            ]
            for space in spaces:
                cl = mult(space)
                for name in ("delta3", "q6", "c5sq"):
                    present, method, found = verify_module._named_minor(space, cl, name, None)
                    if method != "constructive witness chain (replayed)":
                        assert present is None and found is None
                        continue
                    replayed += 1
                    assert present is True and found[0] == name
                    replay_minor(cl, found[1], name, found[2])
                    assert find_minor(cl, builtin(name), budget=3 ** len(cl.ground)) is not None
        assert replayed >= 12

    def test_u24_plane_is_refuted_by_its_chain(self, f4):
        r = verify_theorem(span(f4, 4, [(1, 0, 1, 1), (0, 1, 1, 2)]), "1.2")
        assert r.verdicts == {"i": False, "ii": False, "iii": False}
        assert r.methods["iii"] == "constructive witness chain (replayed)"
        assert r.methods["i"] == "derived: a non-integral minor was found"
        assert r.certificates["iii"][0] == "delta3"


class TestSweeps:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_odd_q3(self, n):
        reports = sweep_theorem(3, n, "1.1")
        assert len(reports) == count_subspaces(3, n)
        assert all(r.agreement and not r.unknown for r in reports)

    def test_cold_sweep_enumerates_each_point_set_once(self):
        # mult and matroid_of ask for the points under different caps; the
        # cache must hold one entry per distinct space, not one per cap: each
        # subspace, and each coordinate factor of a representative with two
        # or more, whose mult the minor search reads first
        vspace_module._points_cached.cache_clear()
        matroid_module._matroid_cached.cache_clear()
        reports = sweep_theorem(3, 4, "1.1")
        info = vspace_module._points_cached.cache_info()
        spaces = list(enumerate_subspaces(3, 4))
        reps = [spaces[r] for k, (r, _) in enumerate(monomial_orbits(spaces)) if r == k]
        pieces = {piece for rep in reps if len(factor(rep)) > 1 for _, piece in factor(rep)}
        assert len(reports) == 212
        assert info.misses == info.currsize == len(set(spaces) | pieces) == 217

    def test_odd_q5_squares(self):
        reports = sweep_theorem(5, 2, "1.1")
        assert len(reports) == 8
        assert all(r.agreement and not r.unknown for r in reports)

    def test_odd_q5_cubes_with_raised_budget(self):
        reports = sweep_theorem(5, 3, "1.1", budget=3**15)
        assert len(reports) == 64
        assert all(r.agreement and not r.unknown for r in reports)
        assert sum(1 for r in reports if r.cond_ii is False) == 16

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_gf4(self, n):
        reports = sweep_theorem(4, n, "1.2")
        assert len(reports) == count_subspaces(4, n)
        assert all(r.agreement and not r.unknown for r in reports)

    @pytest.mark.parametrize("q", [2, 3])
    def test_flow_statement_cubes(self, q):
        reports = sweep_theorem(q, 3, "1.4")
        assert len(reports) == count_subspaces(q, 3)
        assert all(r.agreement and not r.unknown for r in reports)

    def test_gf8_cubes(self):
        reports = sweep_theorem(8, 3, "1.3")
        assert len(reports) == 148
        assert all(r.agreement and not r.unknown for r in reports)
        witnessed = [r for r in reports if "witness" in r.methods["iii"]]
        assert len(witnessed) == 49
        assert all(r.cond_ii is False for r in witnessed)

    def test_wrong_statement_rejected_before_orbit_search(self, monkeypatch):
        monkeypatch.setattr(verify_module, "monomial_orbits", lambda spaces: pytest.fail("orbits searched"))
        with pytest.raises(WrongFieldClass):
            sweep_theorem(3, 4, "1.2")
        with pytest.raises(PreconditionViolated):
            sweep_theorem(3, 4, "9.9")

    @pytest.mark.parametrize(
        "kwargs, error",
        [
            ({"budget": -1}, PreconditionViolated),
            ({"max_ground": "x"}, TypeError),
            ({"which": "1.9"}, PreconditionViolated),
            ({"minor_budget": 1}, TypeError),
            ({"jobs": 2}, TypeError),
            # GF(2)^9 has 8,283,458 subspaces, over the enumeration budget
            ({"q": 2, "n": 9}, WrongFieldClass),
            # the statement id, then the field order, then the field class
            ({"q": 1, "which": "9.9"}, PreconditionViolated),
            ({"q": 1, "which": "1.2"}, NotPrimePower),
        ],
        ids=[
            "budget-negative",
            "max-ground-str",
            "unknown-statement",
            "misspelt-keyword",
            "jobs",
            "wrong-field-class",
            "statement-before-order",
            "order-before-field-class",
        ],
    )
    def test_arguments_rejected_before_enumeration(self, monkeypatch, kwargs, error):
        monkeypatch.setattr(verify_module, "enumerate_subspaces", lambda q, n: pytest.fail("subspaces enumerated"))
        kwargs = {"q": 3, "n": 4, "which": "1.1", **kwargs}
        with pytest.raises(error):
            sweep_theorem(**kwargs)

    @pytest.mark.parametrize("q, n", [(2, 4), (3, 3)])
    def test_packing_cache_never_reaches_the_report(self, q, n):
        # each representative again, in reverse order and from a cold packing-sweep cache
        spaces = list(enumerate_subspaces(q, n))
        swept = sweep_theorem(q, n, "1.4")
        reps = [k for k, (r, _) in enumerate(monomial_orbits(spaces)) if r == k]
        for k in reversed(reps):
            polyhedral_module._failing_path.cache_clear()
            assert verify_theorem(spaces[k], "1.4").to_dict() == swept[k].to_dict()

    def test_cond_i_matches_direct_idealness(self, subspaces_gf3_3):
        for space, report in zip(subspaces_gf3_3, sweep_theorem(3, 3, "1.1")):
            assert report.cond_i == is_ideal(mult(space)).integral


# ---------------------------------------------------------------------------
# monomial orbits and transported reports
# ---------------------------------------------------------------------------

def image_under(space, perm, scale, power):
    """The image of the space under x -> y, y[perm[i]] = scale[i] * x[i]^(p^power)."""
    f, n = space.field, space.n
    rows = []
    for row in space.basis:
        y = [0] * n
        for i, v in enumerate(row):
            y[perm[i]] = f.mul(scale[i], f.pow(v, f.p ** power))
        rows.append(y)
    return span(f, n, rows)


def random_monomial_image(space, rng):
    """A seeded random monomial image; a non-trivial Frobenius power whenever q = p^k, k > 1."""
    f, n = space.field, space.n
    power = rng.randrange(1, f.k) if f.k > 1 else 0
    return image_under(space, rng.sample(range(n), n), [rng.randrange(1, f.q) for _ in range(n)], power)


def minor_by_definition(ground, members, delete, contract):
    """C minus I contract J: the minimal sets among A - J over members A disjoint from I."""
    kept = {m - contract for m in members if not m & delete}
    return set(ground) - delete - contract, {m for m in kept if not any(o < m for o in kept)}


def rank_by_elimination(rows):
    mat = [list(r) for r in rows]
    rank = 0
    for col in range(len(mat[0]) if mat else 0):
        piv = next((k for k in range(rank, len(mat)) if mat[k][col]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        for k in range(len(mat)):
            if k != rank and mat[k][col]:
                ratio = mat[k][col] / mat[rank][col]
                mat[k] = [a - ratio * b for a, b in zip(mat[k], mat[rank])]
        rank += 1
    return rank


def tight_sets_of_extreme_point(ground, members, x):
    """Tight member indices and zero coordinates of x, which must be an extreme point of Q(C)."""
    assert all(v >= 0 for v in x)
    loads = [sum(x[k] for k, e in enumerate(ground) if e in m) for m in members]
    assert all(load >= 1 for load in loads)
    tight = [k for k, load in enumerate(loads) if load == 1]
    zeros = [k for k, v in enumerate(x) if v == 0]
    rows = [[Fraction(e in members[k]) for e in ground] for k in tight]
    rows += [[Fraction(j == k) for j in range(len(ground))] for k in zeros]
    assert rank_by_elimination(rows) == len(ground)
    return tuple(tight), tuple(zeros)


def cover_value(ground, members, w):
    """Least weight of a set of elements meeting every member, over all subsets."""
    best = math.inf
    for size in range(len(ground) + 1):
        for cover in itertools.combinations(range(len(ground)), size):
            chosen = {ground[k] for k in cover}
            if all(m & chosen for m in members):
                best = min(best, sum(w[k] for k in cover))
    return best


def packing_value(ground, members, w):
    """Most members, with repetition, using each element e at most w[e] times."""
    if frozenset() in members:
        return math.inf
    cap = dict(zip(ground, w))
    members = sorted(members, key=sorted)

    def best(k):
        if k == len(members):
            return 0
        out = best(k + 1)
        if all(cap[e] for e in members[k]):
            for e in members[k]:
                cap[e] -= 1
            out = max(out, 1 + best(k))
            for e in members[k]:
                cap[e] += 1
        return out

    return best(0)


def replay_transported(space, report):
    """Replay the (i) and (iii) certificates of a report on mult(space), by definition."""
    cl = mult(space)
    ground, members = list(cl.ground), list(cl.member_sets())
    cert = report.certificates.get("i")
    if isinstance(cert, IdealnessCertificate):
        assert cert.integral is report.cond_i
        if not cert.integral:
            assert any(v.denominator != 1 for v in cert.fractional_point)
            tight = tight_sets_of_extreme_point(ground, members, cert.fractional_point)
            assert tight == (cert.tight_members, cert.tight_bounds)
    elif cert is not None:
        how, cover, packing = cert
        if isinstance(how, MinorSpec):
            g, ms = minor_by_definition(ground, members, how.delete, how.contract)
            g = sorted(g)
            w = [1] * len(g)
        else:
            g, ms, w = ground, members, list(how)
        assert cover == cover_value(g, ms, w) != packing == packing_value(g, ms, w)
    if report.cond_iii is False and "iii" in report.certificates:
        name, how, mapping = report.certificates["iii"]
        target = builtin(name)
        g, ms = minor_by_definition(ground, members, how.delete, how.contract)
        assert g == set(mapping.values())
        assert ms == {frozenset(mapping[x] for x in t) for t in target.member_sets()}


def orbits_by_brute_force(spaces):
    """The monomial orbits, as sets of RREF bases, by applying every monomial map."""
    f, n = spaces[0].field, spaces[0].n
    maps = [
        (perm, scale, power)
        for perm in itertools.permutations(range(n))
        for scale in itertools.product(range(1, f.q), repeat=n)
        for power in range(f.k)
    ]
    out = set()
    for space in spaces:
        out.add(frozenset(image_under(space, *m).basis for m in maps))
    return out


class TestFactorDecisions:
    """Absence of the target minors and the packing property are decided on
    the coordinate factors first; the reports must equal those of the
    searches on the whole clutter, certificates included."""

    @pytest.mark.parametrize(
        "q, n, which", [(2, 4, "1.4"), (2, 5, "1.4"), (3, 3, "1.4"), (3, 3, "1.1"), (4, 3, "1.2")]
    )
    def test_reports_equal_the_whole_clutter_search(self, q, n, which, monkeypatch):
        products = [s for s in enumerate_subspaces(q, n) if len(factor(s)) > 1]
        assert all(verify_module._factor_mults(factor(s), mult(s), None) for s in products)
        # to_dict, since TheoremReport's == skips methods and certificates
        by_factors = [verify_theorem(s, which).to_dict() for s in products]
        monkeypatch.setattr(verify_module, "_factor_mults", lambda *args: ())
        assert [verify_theorem(s, which).to_dict() for s in products] == by_factors

    def test_one_factorization_per_report(self, monkeypatch):
        spaces = list(enumerate_subspaces(4, 3))  # ground 12, within SEARCH_BUDGET
        calls = []
        monkeypatch.setattr(verify_module, "factor", lambda s: calls.append(s) or factor(s))
        for space in spaces:
            verify_theorem(space, "1.2")
        assert calls == spaces

    def test_no_factor_search_past_the_budget(self, f3):
        space = span(f3, 3, [(1, 0, 0), (0, 1, 0)])
        factors = factor(space)
        assert len(factors) == 3
        assert verify_module._factor_mults(factors, mult(space), 3**9) != ()
        assert verify_module._factor_mults(factors, mult(space), 3**9 - 1) == ()


class TestMonomialOrbits:
    @pytest.mark.parametrize("q, n, count", [(2, 4, 16), (3, 3, 8), (4, 3, 8), (3, 4, 17)])
    def test_orbits_match_brute_force(self, q, n, count):
        spaces = list(enumerate_subspaces(q, n))
        orbits = monomial_orbits(spaces)
        found: dict = {}
        for space, (r, sigma) in zip(spaces, orbits):
            assert r <= spaces.index(space)
            assert monomial_image(sigma, spaces[r]) == space
            found.setdefault(r, set()).add(space.basis)
        assert len(found) == count
        assert {frozenset(bases) for bases in found.values()} == orbits_by_brute_force(spaces)

    # GF(9)^3 is the first odd q whose generators include Frobenius
    @pytest.mark.parametrize("q, n", [(2, 5), (3, 3), (4, 3), (5, 3), (9, 3)])
    def test_orbits_match_the_subspace_search(
        self, q, n, monomial_orbits_by_subspaces, monomial_image_by_span
    ):
        spaces = list(enumerate_subspaces(q, n))
        orbits = monomial_orbits(spaces)
        assert [r for r, _ in orbits] == [r for r, _ in monomial_orbits_by_subspaces(spaces)]
        for space, (r, sigma) in zip(spaces, orbits):
            assert _is_semilinear(sigma, space.field, n)
            assert monomial_image_by_span(sigma, spaces[r]) == space

    def test_orbit_relabelings_compose_frobenius(self, f4):
        spaces = list(enumerate_subspaces(4, 4))
        orbits = monomial_orbits(spaces)
        semilinear = 0
        for space, (r, sigma) in zip(spaces, orbits):
            assert monomial_image(sigma, spaces[r]) == space
            semilinear += any(
                sigma[(i, a)][1] != f4.mul(sigma[(i, 1)][1], a) for i in range(4) for a in range(4)
            )
        assert len({r for r, _ in orbits}) == 17 and semilinear > 0

    @pytest.mark.parametrize(
        "q, n, which, draws",
        [(3, 3, "1.1", 12), (4, 3, "1.2", 12), (8, 3, "1.3", 10), (2, 4, "1.4", 12), (3, 3, "1.4", 8)],
    )
    def test_verdicts_invariant_under_random_monomial_maps(self, q, n, which, draws):
        rng = random.Random(1000 * q + 10 * n + int(which[-1]))
        for space in rng.sample(list(enumerate_subspaces(q, n)), draws):
            image = random_monomial_image(space, rng)
            assert verify_theorem(image, which).verdicts == verify_theorem(space, which).verdicts

    @pytest.mark.parametrize(
        "q, n, which, kwargs",
        [
            (3, 3, "1.1", {}),
            (4, 3, "1.2", {}),
            (8, 3, "1.3", {}),
            (2, 4, "1.4", {}),
            (3, 3, "1.4", {}),
            (3, 3, "1.4", {"budget": 1}),  # refuted by weight vectors
        ],
    )
    def test_transported_certificates_replay(self, q, n, which, kwargs):
        spaces = list(enumerate_subspaces(q, n))
        reports = sweep_theorem(q, n, which, **kwargs)
        transported = [
            (space, r) for space, r in zip(spaces, reports) if "transported from" in r.methods["i"]
        ]
        assert transported
        if kwargs:
            assert any(r.methods["i"].startswith("refuted: explicit weight") for _, r in transported)
        for space, report in transported:
            assert report.instance == instance_id(space)
            assert "transported from" in report.methods["iii"]
            replay_transported(space, report)

    @pytest.mark.parametrize("q, n, which", [(3, 3, "1.1"), (4, 3, "1.2"), (2, 4, "1.4")])
    def test_representatives_are_verified_directly(self, q, n, which):
        spaces = list(enumerate_subspaces(q, n))
        reports = sweep_theorem(q, n, which)
        for k, (r, _) in enumerate(monomial_orbits(spaces)):
            if r == k:
                assert reports[k].to_dict() == verify_theorem(spaces[k], which).to_dict()
            else:
                assert reports[k].methods["i"].endswith(
                    f"; transported from {reports[r].instance} by a checked monomial isomorphism"
                )

    @staticmethod
    def _orbit_case(space, which):
        """(representative's report, the representative, relabeling) for a transported space."""
        spaces = list(enumerate_subspaces(space.q, space.n))
        r, sigma = monomial_orbits(spaces)[spaces.index(space)]
        assert spaces[r] != space
        return verify_theorem(spaces[r], which), spaces[r], sigma

    def test_transport_refuses_a_wrong_relabeling(self, f3):
        space = span(f3, 3, [(1, 1, 0)])
        report, rep, sigma = self._orbit_case(space, "1.1")
        assert verify_module._transport(report, rep, sigma, space) == verify_theorem(space, "1.1")
        wrong = dict(sigma)
        wrong[(0, 1)], wrong[(0, 2)] = sigma[(0, 2)], sigma[(0, 1)]
        with pytest.raises(VerificationFailure, match="does not carry its members"):
            verify_module._transport(report, rep, wrong, space)

    def test_transport_refuses_a_relabeling_that_is_not_semilinear(self, f4):
        # Frobenius on coordinate 0 alone fixes this plane's basis rows,
        # whose coordinate-0 entries are 0 and 1, but not its members
        plane = span(f4, 3, [(1, 0, 1), (0, 1, 1)])
        report = verify_theorem(plane, "1.2")
        sigma = {(i, a): (i, f4.mul(a, a) if i == 0 else a) for i in range(3) for a in range(4)}
        assert monomial_image(sigma, plane).basis == plane.basis
        moved = {frozenset(sigma[e] for e in m) for m in mult(plane).member_sets()}
        assert moved != set(mult(plane).member_sets())
        with pytest.raises(VerificationFailure, match="does not carry its members"):
            verify_module._transport(report, plane, sigma, plane)

    def test_transport_refuses_a_monomial_map_onto_another_space(self, f3):
        space = span(f3, 3, [(1, 1, 0)])
        report, rep, sigma = self._orbit_case(space, "1.1")
        other = span(f3, 3, [(1, 0, 1)])
        assert monomial_image(sigma, rep) == space != other
        with pytest.raises(VerificationFailure, match="does not carry its members"):
            verify_module._transport(report, rep, sigma, other)

    def test_transport_refuses_a_wrong_certificate(self, f3):
        def with_cert(report, key, cert):
            return dataclasses.replace(report, certificates={**report.certificates, key: cert})

        plane = span(f3, 3, [(1, 0, 2), (0, 1, 2)])
        ideal, rep, sigma = self._orbit_case(plane, "1.1")
        flow = self._orbit_case(plane, "1.4")[0]
        assert ideal.cond_i is ideal.cond_iii is flow.cond_i is False
        point = ideal.certificates["i"]
        name, spec, mapping = ideal.certificates["iii"]
        how, cover, packing = flow.certificates["i"]
        assert isinstance(how, MinorSpec)
        removed = min(spec.delete | spec.contract)
        for report in (ideal, flow):
            verify_module._transport(report, rep, sigma, plane)
        bad = [
            dataclasses.replace(ideal, cond_ii=not ideal.cond_ii),
            with_cert(ideal, "i", dataclasses.replace(point, fractional_point=(Fraction(1, 2),) * 9)),
            with_cert(ideal, "iii", (name, spec, {**mapping, 1: removed})),
            with_cert(flow, "i", (how, cover + 1, packing)),
        ]
        for report in bad:
            with pytest.raises(VerificationFailure):
                verify_module._transport(report, rep, sigma, plane)

    def test_transport_refuses_a_wrong_witness_chain(self, f8):
        plane = span(f8, 3, [(1, 0, 2), (0, 1, 3)])
        report, rep, sigma = self._orbit_case(plane, "1.3")
        assert report.methods["iii"] == "constructive witness chain (replayed)"
        name, spec, mapping = report.certificates["iii"]
        assert name == "c5sq" and isinstance(spec, MinorSpec)
        assert set(mapping) == set(builtin("c5sq").ground)
        assert set(mapping.values()) == set(minor(mult(rep), spec).ground)
        verify_module._transport(report, rep, sigma, plane)
        short = MinorSpec(spec.delete, spec.contract - {min(spec.contract)})
        moved = {**mapping, min(mapping): min(spec.delete)}
        for cert in ((name, short, mapping), (name, spec, moved)):
            bad = dataclasses.replace(report, certificates={**report.certificates, "iii": cert})
            with pytest.raises(VerificationFailure):
                verify_module._transport(bad, rep, sigma, plane)

    def test_transported_witness_chain_replays_on_its_map(self, f8, monkeypatch):
        plane = span(f8, 3, [(1, 0, 2), (0, 1, 3)])
        report, rep, sigma = self._orbit_case(plane, "1.3")
        searched = []
        real = clutter_module.is_isomorphic
        monkeypatch.setattr(clutter_module, "is_isomorphic", lambda *a: searched.append(a) or real(*a))
        transported = verify_module._transport(report, rep, sigma, plane)
        assert transported.cond_iii is False and searched == []


class TestCrossStatementInvariants:
    def test_localization_equivalence_gf3(self, subspaces_gf3_3):
        for space in subspaces_gf3_3:
            full = is_ideal(mult(space)).integral
            alllo = all(
                is_ideal(localization(space, v)).integral
                for v in itertools.product(range(3), repeat=3)
            )
            assert full == alllo

    def test_localization_equivalence_gf4(self, subspaces_gf4_3):
        for space in subspaces_gf4_3:
            full = is_ideal(mult(space)).integral
            alllo = all(
                is_ideal(localization(space, v)).integral
                for v in itertools.product(range(4), repeat=3)
            )
            assert full == alllo

    def test_no_disjoint_basis_yields_forbidden_minor(
        self, subspaces_gf2_3, subspaces_gf3_3
    ):
        for space in subspaces_gf3_3:
            if disjoint_support_basis(space) is not None:
                continue
            assert find_minor(mult(space), builtin("delta3")) is not None
        for space in subspaces_gf2_3:
            if disjoint_support_basis(space) is not None:
                continue
            hit = find_minor(mult(space), builtin("delta3")) or find_minor(
                mult(space), builtin("q6")
            )
            assert hit is not None
