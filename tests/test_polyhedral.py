"""Tests for exact covering-polyhedron computations.

Expected values come from independent brute-force oracles defined here:
extreme points by square tight-subsystem enumeration, tau by subset sweep,
nu by bounded multiplicity enumeration and, on cycles at large weights, by
a path greedy.
"""
from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

import clutterforge.polyhedral
from clutterforge.clutter import (
    Clutter,
    MinorSpec,
    _bits,
    _contract_members,
    _delete_members,
    builtin,
    localization,
    minor,
    mult,
)
from clutterforge.errors import (
    BudgetExceeded,
    DimensionMismatch,
    PreconditionViolated,
    TooLarge,
    VerificationFailure,
)
from clutterforge.matroid import _gf2_dependencies
from clutterforge.polyhedral import (
    INFINITY,
    extreme_point_witness,
    extreme_points,
    has_packing_property,
    is_ideal,
    mfmc_check,
    nu,
    packs,
    tau,
    _bareiss,
    _dd_rays,
    _full_rank,
    _gcd_reduce,
    _failing_path,
    _packs,
    _verify_extreme,
)
from clutterforge.verify import enumerate_subspaces
from clutterforge.vspace import span
from test_acceptance import wall_clock_under

HALF = Fraction(1, 2)


# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------

def solve_square(rows, rhs):
    n = len(rows)
    mat = [list(rows[i]) + [rhs[i]] for i in range(n)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if mat[r][col] != 0), None)
        if pivot is None:
            return None
        mat[col], mat[pivot] = mat[pivot], mat[col]
        inv = mat[col][col]
        mat[col] = [x / inv for x in mat[col]]
        for r in range(n):
            if r != col and mat[r][col] != 0:
                f = mat[r][col]
                mat[r] = [a - f * b for a, b in zip(mat[r], mat[col])]
    return [mat[i][n] for i in range(n)]


def fraction_rank(rows) -> int:
    mat = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for col in range(len(mat[0]) if mat else 0):
        pivot = next((r for r in range(rank, len(mat)) if mat[r][col] != 0), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        for r in range(len(mat)):
            if r != rank and mat[r][col] != 0:
                f = mat[r][col] / mat[rank][col]
                mat[r] = [a - f * b for a, b in zip(mat[r], mat[rank])]
        rank += 1
    return rank


def mod2_rank(rows) -> int:
    mat = [[x % 2 for x in row] for row in rows]
    rank = 0
    for col in range(len(mat[0]) if mat else 0):
        pivot = next((r for r in range(rank, len(mat)) if mat[r][col]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        for r in range(len(mat)):
            if r != rank and mat[r][col]:
                mat[r] = [a ^ b for a, b in zip(mat[r], mat[rank])]
        rank += 1
    return rank


def fraction_det(rows) -> Fraction:
    mat = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for col in range(len(mat)):
        pivot = next((r for r in range(col, len(mat)) if mat[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            mat[col], mat[pivot] = mat[pivot], mat[col]
            det = -det
        det *= mat[col][col]
        for r in range(col + 1, len(mat)):
            f = mat[r][col] / mat[col][col]
            mat[r] = [a - f * b for a, b in zip(mat[r], mat[col])]
    return det


def random_clutter(
    rng: random.Random, max_ground: int, max_members: int, min_size: int = 2
) -> Clutter:
    """Members of `min_size` to four elements; two to four is where fractional points are common."""
    n = rng.randint(3, max_ground)
    members = [
        rng.sample(range(n), rng.randint(min_size, min(4, n)))
        for _ in range(rng.randint(2, max_members))
    ]
    return Clutter(tuple(range(n)), members)


def member_bits(c: Clutter) -> list[list[int]]:
    return [[v for v in range(len(c.ground)) if m >> v & 1] for m in c.members]


def brute_extreme_points(c: Clutter) -> list[tuple[Fraction, ...]]:
    """Spec-style oracle: solve every square tight subsystem, keep feasible."""
    n = len(c.ground)
    rows = []
    rhs = []
    for bits in member_bits(c):
        rows.append([Fraction(1 if v in bits else 0) for v in range(n)])
        rhs.append(Fraction(1))
    for v in range(n):
        rows.append([Fraction(1 if u == v else 0) for u in range(n)])
        rhs.append(Fraction(0))
    found = set()
    for subset in itertools.combinations(range(len(rows)), n):
        sol = solve_square([rows[i] for i in subset], [rhs[i] for i in subset])
        if sol is None:
            continue
        if any(x < 0 for x in sol):
            continue
        if all(sum(sol[v] for v in bits) >= 1 for bits in member_bits(c)):
            found.add(tuple(sol))
    return sorted(found)


# reference double description: recomputes each new ray's tight set over every
# coordinate and earlier row, and drops repeated rays with a set
def reference_dd_rays(n: int, member_masks) -> tuple[list[tuple[int, ...]], int]:
    """Extreme rays of {(x, t) >= 0 : a.x - t >= 0 per member}, and rays created.

    Rays are gcd-reduced nonnegative integer vectors of length n+1 (t last).
    Constraint indices for tightness masks: 0..n-1 the x bounds, n the t bound,
    n+1+k the k-th member row.
    """

    d = n + 1
    rays: list[tuple[int, ...]] = []
    masks: list[int] = []
    for i in range(d):
        ray = tuple(1 if j == i else 0 for j in range(d))
        rays.append(ray)
        masks.append(((1 << d) - 1) & ~(1 << i))
    created = d

    member_bits = [_bits(m) for m in member_masks]

    def dot(k: int, ray: tuple[int, ...]) -> int:
        return sum(ray[b] for b in member_bits[k]) - ray[n]

    for k in range(len(member_masks)):
        cst_index = d + k
        vals = [dot(k, r) for r in rays]
        pos = [i for i, v in enumerate(vals) if v > 0]
        zero = [i for i, v in enumerate(vals) if v == 0]
        neg = [i for i, v in enumerate(vals) if v < 0]
        if not neg:
            for i in zero:
                masks[i] |= 1 << cst_index
            continue
        new_rays: list[tuple[int, ...]] = []
        new_masks: list[int] = []
        for i in pos:
            new_rays.append(rays[i])
            new_masks.append(masks[i])
        for i in zero:
            new_rays.append(rays[i])
            new_masks.append(masks[i] | (1 << cst_index))
        seen: set[tuple[int, ...]] = set(new_rays)
        for ip in pos:
            mp = masks[ip]
            for im in neg:
                common = mp & masks[im]
                if common.bit_count() < d - 2:
                    continue
                adjacent = True
                for io, mo in enumerate(masks):
                    if io in (ip, im):
                        continue
                    if mo & common == common:
                        adjacent = False
                        break
                if not adjacent:
                    continue
                a, b = vals[ip], -vals[im]
                combo = _gcd_reduce(
                    tuple(
                        b * rays[ip][j] + a * rays[im][j] for j in range(d)
                    )
                )
                created += 1
                if combo in seen:
                    continue
                seen.add(combo)
                mask = 1 << cst_index
                for j in range(d):
                    if combo[j] == 0:
                        mask |= 1 << j
                for k2 in range(k):
                    if dot(k2, combo) == 0:
                        mask |= 1 << (d + k2)
                new_rays.append(combo)
                new_masks.append(mask)
        rays = new_rays
        masks = new_masks
    return rays, created


def brute_tau(c: Clutter, weights) -> int | float:
    n = len(c.ground)
    usable = [v for v in range(n) if weights[v] != INFINITY]
    best = INFINITY
    for r in range(len(usable) + 1):
        for combo in itertools.combinations(usable, r):
            mask = 0
            for v in combo:
                mask |= 1 << v
            if all(m & mask for m in c.members):
                best = min(best, sum(weights[v] for v in combo))
    return best


def brute_nu(c: Clutter, weights) -> int | float:
    bits = member_bits(c)
    if any(not b for b in bits):
        return INFINITY
    caps = [min(weights[v] for v in b) for b in bits]
    best = 0
    for mults in itertools.product(*(range(cap + 1) for cap in caps)):
        load = [0] * len(c.ground)
        for m, b in zip(mults, bits):
            for v in b:
                load[v] += m
        if all(load[v] <= weights[v] for v in range(len(c.ground))):
            best = max(best, sum(mults))
    return best


def cycle_nu(w) -> int:
    """nu_w of the cycle clutter {i, i+1 mod n}, exactly.

    Fix the copies y of member {0, 1}; the rest is the path 1, 2, ..., n-1,
    0, on which taking as many copies of the leaf's member as fit is
    optimal, so nu_w is the largest y plus that greedy count.
    """
    n = len(w)
    best = 0
    for y in range(min(w[0], w[1]) + 1):
        total, free = y, w[1] - y
        for v in list(range(2, n)) + [0]:
            cap = w[v] - y if v == 0 else w[v]
            take = min(free, cap)
            total, free = total + take, cap - take
        best = max(best, total)
    return best


def definition_minor_masks(masks, n: int, delete, contract) -> tuple[int, ...]:
    """Minimal sets of {m - J : m disjoint from I} on the kept elements, in
    (cardinality, value) order, straight from the definition."""
    keep = [v for v in range(n) if v not in delete and v not in contract]
    pos = {v: k for k, v in enumerate(keep)}
    sets = {
        frozenset(pos[v] for v in _bits(m) if v not in contract)
        for m in masks
        if not any(m >> v & 1 for v in delete)
    }
    minimal = [s for s in sets if not any(t < s for t in sets)]
    return tuple(sorted((sum(1 << v for v in s) for s in minimal), key=lambda m: (len(_bits(m)), m)))


def iter_minor_specs(c: Clutter):
    for assignment in itertools.product((0, 1, 2), repeat=len(c.ground)):
        delete = frozenset(
            e for e, a in zip(c.ground, assignment) if a == 1
        )
        contract = frozenset(
            e for e, a in zip(c.ground, assignment) if a == 2
        )
        yield MinorSpec(delete=delete, contract=contract)


def idle_mask(c: Clutter) -> int:
    """The ground elements in no member, as a mask."""
    union = 0
    for m in c.members:
        union |= m
    return (1 << len(c.ground)) - 1 & ~union


def padded(ground, sets, front: int, back: int) -> Clutter:
    """The clutter of `sets` on `ground`, with `front` elements in no member before it and `back` after."""
    pads = tuple(("pad", i) for i in range(front + back))
    return Clutter(pads[:front] + tuple(ground) + pads[front:], sets)


def disjoint_clutter(rng: random.Random, max_ground: int) -> Clutter:
    """Pairwise-disjoint members cut from a shuffled ground, some of it left in no member.

    One time in ten the empty member is added, which leaves it alone.
    """
    n = rng.randint(1, max_ground)
    order = rng.sample(range(n), n)
    ends = sorted(rng.sample(range(1, n + 1), rng.randint(1, n)))
    blocks = [order[start:end] for start, end in zip([0] + ends, ends)]
    members = [b for b in blocks if rng.random() < 0.8]
    if rng.random() < 0.1:
        members.append(())
    return Clutter(tuple(range(n)), members)


def seen_set_packing_sweep(c: Clutter):
    """A depth-first packing sweep whose memo of visited shapes lives for one call."""
    seen = {(len(c.ground), c.members)}

    def visit(ground, members, delete, contract):
        if not _packs(members):
            return MinorSpec(delete, contract)
        size = len(ground) - 1
        for i, e in enumerate(ground):
            for build in (_delete_members, _contract_members):
                key = (size, build(members, i))
                if key in seen:
                    continue
                seen.add(key)
                child = ground[:i] + ground[i + 1:]
                if build is _delete_members:
                    hit = visit(child, key[1], delete | {e}, contract)
                else:
                    hit = visit(child, key[1], delete, contract | {e})
                if hit is not None:
                    return hit
        return None

    return visit(c.ground, c.members, frozenset(), frozenset())


@pytest.fixture(scope="module")
def r11(f2):
    return span(f2, 3, [(0, 1, 1), (1, 0, 1)])


@pytest.fixture(scope="module")
def ex92(f4):
    return span(f4, 3, [(1, 1, 0), (1, 0, 1)])


def corpus(r11):
    return [
        builtin("delta3"),
        builtin("q6"),
        builtin("c5sq"),
        mult(r11),
        Clutter((0, 1, 2, 3), [{0, 1}, {2, 3}]),
        Clutter(("a", "b", "c"), [{"a"}, {"a", "b", "c"}]),
    ]


# ---------------------------------------------------------------------------
# extreme points
# ---------------------------------------------------------------------------

class TestExtremePoints:
    def test_delta3_fractional_point(self):
        pts = extreme_points(builtin("delta3"))
        fractional = [p for p in pts if any(x.denominator != 1 for x in p)]
        assert fractional == [(HALF, HALF, HALF)]

    def test_c5sq_fractional_point(self):
        pts = extreme_points(builtin("c5sq"))
        fractional = [p for p in pts if any(x.denominator != 1 for x in p)]
        assert fractional == [(HALF,) * 5]

    def test_single_member_unit_point(self):
        c = Clutter((0, 1), [{0}])
        assert extreme_points(c) == [(Fraction(1), Fraction(0))]

    def test_matches_tight_subset_oracle(self, r11):
        for c in corpus(r11):
            assert extreme_points(c) == brute_extreme_points(c)

    def test_no_members_gives_origin(self):
        c = Clutter((0, 1, 2), [])
        assert extreme_points(c) == [(Fraction(0),) * 3]

    def test_empty_member_gives_empty_polyhedron(self):
        c = Clutter((0, 1), [set(), {0}])
        assert extreme_points(c) == []

    def test_too_large(self):
        c = Clutter(tuple(range(15)), [{0}])
        with pytest.raises(TooLarge):
            extreme_points(c)

    def test_sorted_and_distinct(self, r11):
        for c in corpus(r11):
            pts = extreme_points(c)
            assert pts == sorted(set(pts))


class TestRankLadder:
    @staticmethod
    def random_matrices():
        rng = random.Random(20261018)
        for _ in range(400):
            ncols = rng.randint(1, 14)
            nrows = rng.randint(max(1, ncols - 2), ncols + 3)
            density = rng.choice((0.3, 0.5, 0.7))
            yield [[int(rng.random() < density) for _ in range(ncols)] for _ in range(nrows)]

    @staticmethod
    def odd_cycle(k: int) -> list[list[int]]:
        """Incidence rows of a k-cycle: determinant 2 for odd k, so rank k over Q, k-1 mod 2."""
        return [[int(j in (i, (i + 1) % k)) for j in range(k)] for i in range(k)]

    def test_ladder_matches_fraction_rank(self):
        gf2_short_q_full = 0
        for rows in list(self.random_matrices()) + [self.odd_cycle(k) for k in (3, 5, 7, 9, 11, 13)]:
            ncols = len(rows[0])
            masks = [sum(bit << j for j, bit in enumerate(row)) for row in rows]
            rank = fraction_rank(rows)
            gf2 = _gf2_dependencies(masks).count(0)
            assert gf2 == mod2_rank(rows) <= rank
            assert _bareiss(rows, ncols)[0] == rank
            assert _full_rank(masks, (1 << ncols) - 1) is (rank == ncols)
            if gf2 < ncols == rank:
                gf2_short_q_full += 1
        assert gf2_short_q_full >= 20

    def test_ladder_on_a_support_subset(self):
        rng = random.Random(7)
        for rows in self.random_matrices():
            ncols = len(rows[0])
            support = rng.randrange(1, 1 << ncols)
            cols = _bits(support)
            masks = [sum(bit << j for j, bit in enumerate(row)) & support for row in rows]
            restricted = [[row[j] for j in cols] for row in rows]
            assert _full_rank(masks, support) is (fraction_rank(restricted) == len(cols))

    def test_bareiss_last_pivot_is_the_determinant(self):
        # with exact divisions the last Bareiss pivot of a nonsingular square
        # matrix is its determinant up to sign, so a division that floored
        # would show here
        rng = random.Random(11)
        checked = 0
        for _ in range(300):
            n = rng.randint(1, 10)
            rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
            det = fraction_det(rows)
            rank, echelon = _bareiss(rows, n)
            assert rank == fraction_rank(rows)
            if det:
                assert abs(echelon[n - 1][n - 1]) == abs(det)
                checked += 1
        assert checked >= 200

    def test_delta3_half_point_takes_the_bareiss_rung(self, monkeypatch):
        calls = []
        real = clutterforge.polyhedral._bareiss

        def recording(rows, ncols):
            calls.append(rows)
            return real(rows, ncols)

        monkeypatch.setattr(clutterforge.polyhedral, "_bareiss", recording)
        assert (HALF, HALF, HALF) in extreme_points(builtin("delta3"))
        # only the fractional point falls through GF(2): its three tight rows
        # form an odd cycle, rank 2 mod 2 and 3 over Q
        assert calls == [[[1, 1, 0], [1, 0, 1], [0, 1, 1]]]

    def test_verifier_rejects_a_midpoint_of_two_extreme_points(self):
        d3 = builtin("delta3")
        bits = [_bits(m) for m in d3.members]
        for ray in ((1, 1, 0, 1), (1, 0, 1, 1), (1, 1, 1, 2)):
            _verify_extreme(d3, bits, ray)
        # (1, 1/2, 1/2) = midpoint of (1, 1, 0) and (1, 0, 1): feasible, one tight member
        with pytest.raises(VerificationFailure, match="do not pin"):
            _verify_extreme(d3, bits, (2, 1, 1, 2))

    def test_verifier_rejects_infeasible_points(self):
        d3 = builtin("delta3")
        bits = [_bits(m) for m in d3.members]
        with pytest.raises(VerificationFailure, match="violates a member"):
            _verify_extreme(d3, bits, (1, 0, 0, 2))
        with pytest.raises(VerificationFailure, match="negative coordinate"):
            _verify_extreme(d3, bits, (2, -1, 2, 2))

    def test_extreme_points_match_oracle_on_random_clutters(self):
        rng = random.Random(4)
        for _ in range(200):
            c = random_clutter(rng, 7, 7, min_size=1)
            assert extreme_points(c) == brute_extreme_points(c), c


class TestDoubleDescription:
    """`_dd_rays` against the sweep that recomputes every new ray's tight set."""

    @staticmethod
    def check(c: Clutter) -> None:
        n = len(c.ground)
        rays, created = _dd_rays(n, [_bits(m) for m in c.members])
        # t = 0 rays too: no set guards against a repeat
        assert len(set(rays)) == len(rays), c
        ref_rays, ref_created = reference_dd_rays(n, c.members)
        assert sorted(rays) == sorted(ref_rays), c
        assert created == ref_created, c

    @pytest.mark.parametrize("q, n", [(2, 4), (3, 3), (4, 3)])
    def test_matches_reference_on_every_mult_clutter(self, q, n):
        for space in enumerate_subspaces(q, n):
            self.check(mult(space))

    def test_matches_reference_on_random_clutters(self):
        rng = random.Random(14)
        for _ in range(300):
            self.check(random_clutter(rng, 9, 14, min_size=1))

    def test_matches_reference_on_edge_cases(self, r11):
        for c in corpus(r11) + [Clutter((0, 1), [set(), {0}]), Clutter((0, 1, 2), [])]:
            self.check(c)


class TestIsIdeal:
    def test_q6_integral(self):
        cert = is_ideal(builtin("q6"))
        assert cert.integral
        assert cert.fractional_point is None
        assert cert.extreme_point_count == len(extreme_points(builtin("q6")))
        assert cert.candidates_examined >= cert.extreme_point_count

    def test_delta3_fractional_certificate(self):
        cert = is_ideal(builtin("delta3"))
        assert not cert.integral
        assert cert.fractional_point == (HALF, HALF, HALF)
        assert cert.tight_members == (0, 1, 2)
        assert cert.tight_bounds == ()

    def test_fractional_point_strictly_interior(self):
        for name in ("delta3", "c5sq"):
            cert = is_ideal(builtin(name))
            assert all(0 < x < 1 for x in cert.fractional_point)

    def test_ex92_integral(self, ex92):
        cert = is_ideal(mult(ex92))
        assert cert.integral

    def test_r11_integral(self, r11):
        assert is_ideal(mult(r11)).integral

    def test_minor_closure_of_idealness(self, r11):
        for c in (mult(r11), builtin("q6")):
            assert is_ideal(c).integral
            for spec in iter_minor_specs(c):
                assert is_ideal(minor(c, spec)).integral

    def test_certificate_is_the_least_fractional_point_with_its_witness(self):
        rng = random.Random(9)
        fractional = 0
        for _ in range(60):
            c = random_clutter(rng, 7, 7)
            cert = is_ideal(c)
            points = [p for p in extreme_points(c) if any(x.denominator != 1 for x in p)]
            assert cert.integral is not points, c
            if points:
                fractional += 1
                assert cert.fractional_point == points[0], c
                assert (cert.tight_members, cert.tight_bounds) == extreme_point_witness(
                    c, points[0]
                ), c
        assert fractional >= 10

    def test_localization_equivalence(self, r11, f3):
        # ideal iff every localization is ideal, on one ideal and one
        # non-ideal space
        bad = span(f3, 3, [(1, 1, 0), (1, 0, 1)])
        for space, expect in ((r11, True), (bad, False)):
            verdict = is_ideal(mult(space)).integral
            assert verdict is expect
            locals_ok = all(
                is_ideal(localization(space, p)).integral
                for p in itertools.product(range(space.field.q), repeat=space.n)
            )
            assert locals_ok is expect


# ---------------------------------------------------------------------------
# covering and packing numbers
# ---------------------------------------------------------------------------

WEIGHTS = {
    3: [(1, 1, 1), (0, 1, 2), (2, 2, 2), (1, 0, 1)],
    4: [(1, 1, 1, 1), (1, 2, 0, 1)],
    5: [(1, 1, 1, 1, 1), (2, 1, 0, 1, 3)],
    6: [(1, 1, 1, 1, 1, 1), (1, 0, 2, 1, 0, 1), (3, 1, 2, 1, 1, 2)],
}


class TestTauNu:
    def test_q6_unit_values(self):
        q6 = builtin("q6")
        assert tau(q6, 1) == 2
        assert nu(q6, 1) == 1

    def test_delta3_unit_values(self):
        d3 = builtin("delta3")
        assert brute_tau(d3, [1, 1, 1]) == 2
        assert brute_nu(d3, [1, 1, 1]) == 1
        assert tau(d3, 1) == 2
        assert nu(d3, 1) == 1
        # weights past the machine word: the cover value is still exact
        assert tau(d3, [2 ** 70] * 3) == 2 ** 71

    def test_zero_weight_gives_zero_tau(self, r11):
        for c in corpus(r11):
            assert tau(c, 0) == 0

    def test_matches_brute_force(self, r11):
        for c in corpus(r11):
            for w in WEIGHTS[len(c.ground)]:
                assert tau(c, list(w)) == brute_tau(c, w), (c, w)
                assert nu(c, list(w)) == brute_nu(c, w), (c, w)
        rng = random.Random(12)
        for _ in range(1500):
            c = random_clutter(rng, 7, 6)
            w = [rng.randint(0, 4) for _ in c.ground]
            assert tau(c, w) == brute_tau(c, w), (c, w)
            assert nu(c, w) == brute_nu(c, w), (c, w)
            w = [INFINITY if rng.random() < 0.2 else x for x in w]
            assert tau(c, w) == brute_tau(c, w), (c, w)
        # odd cycles: tau at large weights, where the cover search is deep
        for n in range(3, 16, 2):
            c = Clutter(tuple(range(n)), [{i, (i + 1) % n} for i in range(n)])
            for _ in range(2):
                w = [rng.randint(0, 1000) for _ in range(n)]
                assert tau(c, w) == brute_tau(c, w), (c, w)

    def test_nu_at_large_weights_on_cycles(self):
        # the packing search's depth is the member count, not the weights
        rng = random.Random(16)
        for n in range(3, 7):
            c = Clutter(tuple(range(n)), [{i, (i + 1) % n} for i in range(n)])
            for _ in range(10):
                w = [rng.randint(0, 3) for _ in range(n)]
                assert cycle_nu(w) == brute_nu(c, w), w
        with wall_clock_under(4.0):
            for n in range(3, 17):
                c = Clutter(tuple(range(n)), [{i, (i + 1) % n} for i in range(n)])
                for _ in range(2):
                    w = [rng.randint(50, 1000) for _ in range(n)]
                    with wall_clock_under(2.0):
                        value = nu(c, w)
                    assert value == cycle_nu(w), (n, w)
                    if n % 2 == 0:
                        # even cycles are bipartite: Egervary's theorem
                        assert value == tau(c, w), (n, w)

    def test_tau_infinite_weight_excludes_element(self):
        d3 = builtin("delta3")
        # excluding element 1 forces covering {1,2} and {3,1} via 2 and 3
        assert tau(d3, [INFINITY, 1, 1]) == 2
        assert tau(d3, [INFINITY, 5, 1]) == 6

    def test_tau_uncoverable_member(self):
        d3 = builtin("delta3")
        assert tau(d3, [INFINITY, INFINITY, 1]) == INFINITY
        assert tau(Clutter((0,), [set()]), [1]) == INFINITY

    def test_nu_rejects_infinite_weight(self):
        with pytest.raises(PreconditionViolated):
            nu(builtin("delta3"), [INFINITY, 1, 1])

    def test_nu_empty_member_unbounded(self):
        assert nu(Clutter((0,), [set()]), [1]) == INFINITY

    def test_no_members(self):
        c = Clutter((0, 1), [])
        assert tau(c, 1) == 0
        assert nu(c, 1) == 0

    def test_weight_validation(self):
        d3 = builtin("delta3")
        with pytest.raises(DimensionMismatch):
            tau(d3, [1, 1])
        with pytest.raises(PreconditionViolated):
            tau(d3, [1, 1, -1])
        with pytest.raises(PreconditionViolated):
            tau(d3, [1, 1, Fraction(1, 2)])
        for bad in ((1, True, 1), (1, -1, 1)):
            with pytest.raises(PreconditionViolated):
                tau(d3, bad)
            with pytest.raises(PreconditionViolated):
                nu(d3, bad)


class TestTauStar:
    """The LP covering value tau*, the least w.x over the extreme points of Q(C)."""

    @staticmethod
    def value(c: Clutter, w) -> Fraction:
        weights = [w] * len(c.ground) if isinstance(w, int) else w
        return min(sum(Fraction(a) * x for a, x in zip(weights, p)) for p in extreme_points(c))

    def test_values_from_oracle(self, r11):
        for c in corpus(r11):
            pts = brute_extreme_points(c)
            for w in WEIGHTS[len(c.ground)]:
                expected = min(
                    sum(Fraction(a) * x for a, x in zip(w, p)) for p in pts
                )
                assert self.value(c, list(w)) == expected

    def test_delta3_unit(self):
        assert self.value(builtin("delta3"), 1) == Fraction(3, 2)

    def test_q6_unit(self):
        assert self.value(builtin("q6"), 1) == 2

    def test_zero_weights(self, r11):
        for c in corpus(r11):
            assert self.value(c, 0) == 0

    def test_lp_duality_chain(self, r11):
        for c in corpus(r11):
            for w in WEIGHTS[len(c.ground)]:
                w = list(w)
                assert tau(c, w) >= self.value(c, w) >= nu(c, w)


# ---------------------------------------------------------------------------
# packing
# ---------------------------------------------------------------------------

class TestPacking:
    def test_packs_known_values(self):
        assert packs(builtin("q6")) is False
        assert packs(builtin("delta3")) is False
        assert packs(Clutter((0, 1), [{0}])) is True

    def test_full_space_packs(self, f2):
        full = span(f2, 3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
        assert packs(mult(full)) is True

    def test_packing_property_disjoint_basis_spaces(self, f3):
        # spaces with a disjoint-support basis: every minor packs
        for gens in ([(1, 0, 0), (0, 1, 0), (0, 0, 1)], [(1, 1, 0), (0, 0, 1)]):
            space = span(f3, 3, gens)
            assert has_packing_property(mult(space)) is None

    def test_r11_minimally_non_packing(self, r11):
        c = mult(r11)
        assert has_packing_property(c) == MinorSpec()
        for e in c.ground:
            for spec in (MinorSpec(delete={e}), MinorSpec(contract={e})):
                assert has_packing_property(minor(c, spec)) is None

    def test_q6_fails_at_itself(self):
        assert has_packing_property(builtin("q6")) == MinorSpec()

    def test_budget_guard(self):
        c = Clutter(tuple(range(14)), [{0}])
        with pytest.raises(BudgetExceeded):
            has_packing_property(c)
        assert has_packing_property(c, budget=3 ** 14) is None

    def test_packs_matches_cover_equals_packing(self):
        rng = random.Random(3)
        clutters = [
            Clutter((), ()),
            Clutter((), [set()]),
            Clutter((0, 1), [set()]),
            Clutter((0, 1, 2), [{0}, {1}, {2}]),
            Clutter((0, 1, 2), [{1}]),
            Clutter((0, 1, 2), [{0}, {1, 2}]),
        ]
        for _ in range(1200):
            size = rng.randint(0, 9)
            density = rng.choice((0.2, 0.4, 0.6))
            members = [
                {e for e in range(size) if rng.random() < density}
                for _ in range(rng.randint(0, 9))
            ]
            clutters.append(Clutter(tuple(range(size)), members))
        verdicts = [packs(c) for c in clutters]
        for c, verdict in zip(clutters, verdicts):
            unit = [1] * len(c.ground)
            assert verdict == (brute_tau(c, unit) == brute_nu(c, unit)), c
            assert nu(c, 1) == brute_nu(c, unit), c
        assert verdicts.count(False) >= 40 and verdicts.count(True) >= 400

    def test_packs_decides_odd_and_even_cycles_quickly(self):
        # C_n: nu = floor(n/2), tau = ceil(n/2); without the disjoint-family
        # bound the odd cycles would branch 2^(n/2) times before failing
        for n, expected in ((41, False), (61, False), (60, True)):
            c = Clutter(tuple(range(n)), [{i, (i + 1) % n} for i in range(n)])
            assert packs(c) is expected
            assert nu(c, 1) == n // 2
            assert tau(c, 1) == (n + 1) // 2

    def test_child_members_match_the_minor_definition(self):
        rng = random.Random(4)
        for _ in range(300):
            size = rng.randint(1, 10)
            members = [
                {e for e in range(size) if rng.random() < 0.4}
                for _ in range(rng.randint(0, 10))
            ]
            c = Clutter(tuple(range(size)), members)
            masks = c.members
            for i in range(size):
                assert _delete_members(masks, i) == definition_minor_masks(masks, size, {i}, ())
                assert _contract_members(masks, i) == definition_minor_masks(masks, size, (), {i})
            roles = [rng.choice("dck") for _ in range(size)]
            delete = {e for e in range(size) if roles[e] == "d"}
            contract = {e for e in range(size) if roles[e] == "c"}
            assert minor(c, MinorSpec(delete, contract)).members == definition_minor_masks(
                masks, size, delete, contract
            )

    def test_cached_sweep_matches_the_per_call_sweep(self):
        rng = random.Random(18)
        clutters = [random_clutter(rng, 7, 10) for _ in range(300)]
        spaces = [mult(s) for q, n in ((2, 3), (3, 2), (2, 4), (3, 3)) for s in enumerate_subspaces(q, n)]
        # an always-zero coordinate leaves its nonzero values in no member
        assert sum(idle_mask(c) != 0 for c in spaces) >= 40
        clutters += spaces
        # at most two members, and pairwise-disjoint members with and without the empty one
        clutters += [random_clutter(rng, 7, 2, min_size=1) for _ in range(40)]
        clutters += [disjoint_clutter(rng, 8) for _ in range(40)]
        clutters += [Clutter((0, 1), []), Clutter((), [set()]), Clutter((0, 1, 2), [set()])]
        blocked = {}
        for name in ("delta3", "q6"):
            target = builtin(name)
            sets = [set(s) for s in target.member_sets()]
            # joined to one new element the clutter packs (tau = nu = 1), and contracting it fails
            joined = [s | {"x"} for s in sets]
            for front, back in ((1, 0), (0, 1), (1, 1), (2, 1)):
                clutters.append(padded(target.ground, sets, front, back))
                blocked[len(clutters)] = (name, front)
                clutters.append(padded(target.ground + ("x",), joined, front, back))
        expected = [seen_set_packing_sweep(c) for c in clutters]
        assert expected.count(None) >= 100
        assert sum(spec not in (None, MinorSpec()) for spec in expected) >= 30
        for k, (name, front) in blocked.items():
            # the padded target fails at itself; the padded joined one is walked, and with
            # padding at index 0 the first step deletes it
            assert expected[k - 1] == MinorSpec(), name
            assert "x" in expected[k].contract, name
            assert (clutters[k].ground[0] in expected[k].delete) == (front > 0), name
        _failing_path.cache_clear()
        cold = [has_packing_property(c) for c in clutters]
        warm = [has_packing_property(c) for c in reversed(clutters)][::-1]
        assert cold == expected
        assert warm == expected
        for c, spec in zip(clutters, cold):
            if spec is not None:
                assert packs(minor(c, spec)) is False

    def test_no_failing_minor_exactly_when_every_minor_packs(self):
        rng = random.Random(27)
        clutters = [disjoint_clutter(rng, 6) for _ in range(20)]
        for _ in range(180):
            # pairs and triples on most of up to six elements, the rest in no member
            size = rng.randint(3, 6)
            used = [e for e in range(size) if rng.random() < 0.85] or [0]
            members = [
                rng.sample(used, rng.randint(min(2, len(used)), min(3, len(used))))
                for _ in range(rng.randint(1, 8))
            ]
            clutters.append(Clutter(tuple(range(size)), members))
        brute: dict = {}

        def brute_packs(m: Clutter) -> bool:
            key = (len(m.ground), m.members)
            if key not in brute:
                unit = [1] * len(m.ground)
                brute[key] = brute_tau(m, unit) == brute_nu(m, unit)
            return brute[key]

        verdicts = []
        for c in clutters:
            every_minor_packs = all(brute_packs(minor(c, spec)) for spec in iter_minor_specs(c))
            verdicts.append(has_packing_property(c) is None)
            assert verdicts[-1] == every_minor_packs, c
        assert verdicts.count(False) >= 30 and verdicts.count(True) >= 100
        assert sum(idle_mask(c) != 0 for c, v in zip(clutters, verdicts) if not v) >= 15

    def test_failing_spec_is_replayable(self, f3):
        space = span(f3, 3, [(1, 1, 0), (1, 0, 1)])
        c = mult(space)
        spec = has_packing_property(c)
        assert spec is not None
        assert packs(minor(c, spec)) is False


class TestMfmcCheck:
    def test_q6_violation_at_unit_weights(self):
        hit = mfmc_check(builtin("q6"), 1)
        assert hit is not None
        w, t, v = hit
        assert all(x in (0, 1) for x in w)
        assert (t, v) == (tau(builtin("q6"), list(w)), nu(builtin("q6"), list(w)))
        assert t != v

    def test_first_violation_in_product_order(self):
        rng = random.Random(10)
        at_bound_1 = [builtin("delta3"), builtin("q6")]
        at_bound_1 += [mult(s) for q, n in ((2, 3), (3, 2)) for s in enumerate_subspaces(q, n)]
        at_bound_1 += [random_clutter(rng, 6, 6) for _ in range(150)]
        # bound 2 sweeps 3^|V| vectors, so its grounds stop at five elements
        at_bound_2 = [builtin("delta3")]
        at_bound_2 += [mult(s) for q in (2, 3) for s in enumerate_subspaces(q, 2)]
        at_bound_2 += [random_clutter(rng, 5, 6) for _ in range(60)]
        for bound, clutters, least in ((1, at_bound_1, 20), (2, at_bound_2, 12)):
            violations = 0
            for c in clutters:
                expected = None
                for w in itertools.product(range(bound + 1), repeat=len(c.ground)):
                    t, v = brute_tau(c, w), brute_nu(c, w)
                    if t != v:
                        expected = (w, t, v)
                        break
                assert mfmc_check(c, bound) == expected, (bound, c)
                violations += expected is not None
            assert violations >= least, bound

    def test_disjoint_members_never_violate(self):
        c = Clutter((0, 1, 2), [{0, 1}, {2}])
        assert mfmc_check(c, 3) is None

    def test_budget_guard(self):
        c = Clutter(tuple(range(14)), [{0}])
        with pytest.raises(BudgetExceeded):
            mfmc_check(c, 3)

    def test_ex92_violation(self, ex92):
        hit = mfmc_check(mult(ex92), 1)
        assert hit is not None
        assert hit[1] != hit[2]

    def test_cover_value_bounds_packing_value(self):
        # tau >= nu at every weight; equality on {0,1}^V for packing clutters
        rng = random.Random(8)
        packing = 0
        for _ in range(200):
            size = rng.randint(1, 6)
            members = [
                {e for e in range(size) if rng.random() < 0.4} or {rng.randrange(size)}
                for _ in range(rng.randint(1, 6))
            ]
            c = Clutter(tuple(range(size)), members)
            for _ in range(5):
                w = [rng.randint(0, 3) for _ in range(size)]
                assert tau(c, w) >= nu(c, w), (c, w)
            if has_packing_property(c) is None:
                packing += 1
                for w in itertools.product((0, 1), repeat=size):
                    assert tau(c, list(w)) == nu(c, list(w)), (c, w)
        assert packing >= 50

    def test_unit_weight_refuter_adds_nothing_to_the_packing_sweep(self):
        # at w in {0,1}^V with Z = {e : w_e = 0}, tau(C, w) and nu(C, w) are
        # tau and nu of the deletion minor C \ Z, which the sweep visits
        clutters = [mult(s) for q, n in ((2, 3), (3, 2)) for s in enumerate_subspaces(q, n)]
        rng = random.Random(7)
        for _ in range(200):
            size = rng.randint(1, 8)
            members = [
                {e for e in range(size) if rng.random() < 0.4} or {rng.randrange(size)}
                for _ in range(rng.randint(1, 6))
            ]
            clutters.append(Clutter(tuple(range(size)), members))
        swept = 0
        for c in clutters:
            if has_packing_property(c) is None:
                swept += 1
                assert mfmc_check(c, 1) is None, c
        assert swept >= 100
