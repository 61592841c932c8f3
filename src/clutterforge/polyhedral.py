"""Exact rational analysis of the covering polyhedron of a clutter.

Q(C) = {x >= 0 : sum of x over every member >= 1}. Everything here is exact:
extreme points come from an integer double-description sweep and are each
proved extreme in integers (tightness, then the rank of the tight rows by a
GF(2) basis or, when that falls short, Bareiss elimination), idealness from
inspecting them, and the covering/packing numbers from exact branch-and-bound.
No floating point is used anywhere except the infinity sentinel.
"""
from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Union

from .clutter import (
    Clutter,
    MinorSpec,
    _bits,
    _contract_members,
    _delete_members,
    _minimal_masks,
)
from .errors import (
    BudgetExceeded,
    DimensionMismatch,
    PreconditionViolated,
    TooLarge,
    VerificationFailure,
)

MAX_POLY_GROUND = 14
PACKING_BUDGET = 3 ** 13
MFMC_SWEEP_BUDGET = 1 << 20

INFINITY = math.inf

Weight = Union[int, float]
WeightVector = Union[int, Sequence[Weight]]


def _weight_list(c: Clutter, w: WeightVector, allow_inf: bool) -> list[Weight]:
    if isinstance(w, (int, float)) and not isinstance(w, bool):
        w = [w] * len(c.ground)
    weights = list(w)
    if len(weights) != len(c.ground):
        raise DimensionMismatch(
            f"weight vector of length {len(weights)}, ground has {len(c.ground)}"
        )
    for x in weights:
        if x == INFINITY:
            if not allow_inf:
                raise PreconditionViolated("infinite weight not allowed here")
            continue
        if not isinstance(x, int) or isinstance(x, bool) or x < 0:
            raise PreconditionViolated(f"weight {x!r} is not a nonnegative integer")
    return weights


# ---------------------------------------------------------------------------
# extreme points (double description on the homogenization)
# ---------------------------------------------------------------------------

def _gcd_reduce(vec: tuple[int, ...]) -> tuple[int, ...]:
    g = 0
    for x in vec:
        g = math.gcd(g, x)
    if g > 1:
        return tuple(x // g for x in vec)
    return vec


def _dd_rays(n: int, member_masks: Sequence[int]) -> tuple[list[tuple[int, ...]], int]:
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


def _bareiss(rows: list[list[int]], ncols: int) -> tuple[int, list[list[int]]]:
    """Fraction-free echelon form of an integer matrix (Bareiss, Math. Comp. 1968).

    Pivots are sought in the first `ncols` columns only, so an augmented
    right-hand side is carried along. Returns the rank and the eliminated
    rows; every division is exact, since each entry stays a minor of the
    input.
    """
    mat = [row[:] for row in rows]
    rank = 0
    prev = 1
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(mat)) if mat[r][col]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        top = mat[rank]
        p = top[col]
        for r in range(rank + 1, len(mat)):
            row = mat[r]
            a = row[col]
            mat[r] = [(p * x - a * y) // prev for x, y in zip(row, top)]
        prev = p
        rank += 1
        if rank == len(mat):
            break
    return rank, mat


def _gf2_rank(masks: Iterable[int], target: int) -> int:
    """Rank over GF(2) of bitmask rows, stopping once it reaches `target`."""
    basis: dict[int, int] = {}
    for m in masks:
        while m:
            top = m.bit_length() - 1
            if top not in basis:
                basis[top] = m
                break
            m ^= basis[top]
        if len(basis) == target:
            break
    return len(basis)


def _full_rank(masks: list[int], support: int) -> bool:
    """Whether the 0/1 rows `masks`, all inside `support`, span its columns.

    A full rank mod 2 already proves a full rank over Q (an integer matrix
    has rank mod p at most its rank over Q); only a short one falls through
    to the exact Bareiss rank.
    """
    cols = _bits(support)
    if _gf2_rank(masks, len(cols)) == len(cols):
        return True
    rows = [[m >> b & 1 for b in cols] for m in masks]
    return _bareiss(rows, len(cols))[0] == len(cols)


def _tightness(
    member_bits: Sequence[Sequence[int]], ray: tuple[int, ...]
) -> tuple[tuple[int, ...], int]:
    """Check that the DD ray (x, t) gives a point x/t of Q(C), in integers.

    Returns the members tight there (sum of x over the member equal to t)
    and the support mask of x; the tight bounds are the columns outside it.
    """
    n = len(ray) - 1
    t = ray[n]
    if any(x < 0 for x in ray):
        raise VerificationFailure("extreme point with negative coordinate")
    tight = []
    for k, bits in enumerate(member_bits):
        load = sum(ray[b] for b in bits)
        if load < t:
            raise VerificationFailure("extreme point violates a member constraint")
        if load == t:
            tight.append(k)
    support = 0
    for j in range(n):
        if ray[j]:
            support |= 1 << j
    return tuple(tight), support


def _verify_extreme(
    c: Clutter, member_bits: Sequence[Sequence[int]], ray: tuple[int, ...]
) -> tuple[tuple[int, ...], int]:
    """Raise unless x/t is an extreme point of Q(C); its tight members and support mask.

    The tight bounds are unit rows on the zero coordinates, so the point is
    pinned exactly when the tight member rows, restricted to the support,
    have full column rank there.
    """
    tight, support = _tightness(member_bits, ray)
    if not _full_rank([c.members[k] & support for k in tight], support):
        raise VerificationFailure("tight constraints do not pin the point")
    return tight, support


def extreme_point_witness(
    c: Clutter, point: Sequence[Fraction]
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Prove `point` an extreme point of Q(C); its tight members and tight bounds.

    The point is scaled to the integer ray (x, t) with t the lcm of its
    denominators and checked as a DD ray is: tightness in integers, then
    the rank of the tight rows. Raises VerificationFailure when it is not
    extreme.
    """
    n = len(c.ground)
    if len(point) != n:
        raise VerificationFailure(f"point of length {len(point)}, ground has {n}")
    t = math.lcm(*(Fraction(x).denominator for x in point))
    ray = tuple(int(x * t) for x in point) + (t,)
    tight, support = _verify_extreme(c, [_bits(m) for m in c.members], ray)
    return tight, tuple(v for v in range(n) if not support >> v & 1)


def _extreme_points_counted(
    c: Clutter, max_ground: int
) -> tuple[list[tuple[Fraction, ...]], int]:
    """Verified extreme points in sorted order, and the count of DD rays created."""
    n = len(c.ground)
    if n > max_ground:
        raise TooLarge(f"ground of {n} elements exceeds the cap of {max_ground}")
    rays, created = _dd_rays(n, c.members)
    member_bits = [_bits(m) for m in c.members]
    points = []
    for ray in rays:
        t = ray[n]
        if t > 0:
            _verify_extreme(c, member_bits, ray)
            points.append(tuple(Fraction(ray[j], t) for j in range(n)))
    points.sort()
    return points, created


def extreme_points(
    c: Clutter, max_ground: int = MAX_POLY_GROUND
) -> list[tuple[Fraction, ...]]:
    """All extreme points of Q(C), exact and verified, in sorted order."""
    return _extreme_points_counted(c, max_ground)[0]


@dataclass(frozen=True)
class IdealnessCertificate:
    """Outcome of the extreme-point scan: integral, or one fractional witness."""

    integral: bool
    extreme_point_count: int
    candidates_examined: int
    fractional_point: Optional[tuple[Fraction, ...]] = None
    tight_members: tuple[int, ...] = ()
    tight_bounds: tuple[int, ...] = ()


def is_ideal(c: Clutter, max_ground: int = MAX_POLY_GROUND) -> IdealnessCertificate:
    """Integral iff every extreme point of Q(C) is integral.

    A fractional verdict carries the witness point plus the tight member rows
    and tight bounds whose full column rank proves it extreme.
    """
    points, created = _extreme_points_counted(c, max_ground)
    for p in points:
        if any(x.denominator != 1 for x in p):
            tight_members, tight_bounds = extreme_point_witness(c, p)
            return IdealnessCertificate(
                integral=False,
                extreme_point_count=len(points),
                candidates_examined=created,
                fractional_point=p,
                tight_members=tight_members,
                tight_bounds=tight_bounds,
            )
    return IdealnessCertificate(
        integral=True, extreme_point_count=len(points), candidates_examined=created
    )


# ---------------------------------------------------------------------------
# covering and packing numbers
# ---------------------------------------------------------------------------

def tau(c: Clutter, w: WeightVector = 1) -> Weight:
    """Exact min-weight cover value; INFINITY when no cover exists.

    Infinite weights exclude elements (equivalent to deleting them before
    covering); zero-weight elements are taken for free.
    """
    weights = _weight_list(c, w, allow_inf=True)
    n = len(c.ground)
    inf_mask = 0
    zero_mask = 0
    for v in range(n):
        if weights[v] == INFINITY:
            inf_mask |= 1 << v
        elif weights[v] == 0:
            zero_mask |= 1 << v
    masks = []
    for m in c.members:
        m2 = m & ~inf_mask
        if m2 == 0:
            return INFINITY
        if m2 & zero_mask:
            continue
        masks.append(m2)
    masks = list(_minimal_masks(masks))
    if not masks:
        return 0

    degree = [sum(1 for m in masks if m >> v & 1) for v in range(n)]

    def greedy_cover(remaining: list[int]) -> int:
        cost = 0
        while remaining:
            best_v = max(
                (v for v in range(n) if weights[v] != INFINITY),
                key=lambda v: (
                    sum(1 for m in remaining if m >> v & 1) / (weights[v] or 1)
                    if weights[v] > 0
                    else 0,
                    -weights[v] if weights[v] != INFINITY else 0,
                ),
            )
            hit = [m for m in remaining if m >> best_v & 1]
            if not hit:
                best_v = _bits(remaining[0])[0]
            cost += weights[best_v]
            remaining = [m for m in remaining if not m >> best_v & 1]
        return cost

    def lower_bound(remaining: list[int]) -> int:
        taken = 0
        bound = 0
        for m in remaining:
            if not m & taken:
                taken |= m
                bound += min(weights[b] for b in _bits(m))
        return bound

    best = greedy_cover(list(masks))

    def branch(remaining: list[int], cost: int) -> None:
        nonlocal best
        if not remaining:
            best = min(best, cost)
            return
        if cost + lower_bound(remaining) >= best:
            return
        target = min(remaining, key=lambda m: m.bit_count())
        for b in sorted(_bits(target), key=lambda v: (weights[v], -degree[v])):
            branch(
                [m for m in remaining if not m >> b & 1],
                cost + weights[b],
            )

    branch(list(masks), 0)
    return best


def nu(c: Clutter, w: WeightVector = 1) -> Weight:
    """Exact max packing value: integer member multiplicities y with M^T y <= w.

    Weights must be finite; a clutter containing the empty member packs it
    without bound, reported as INFINITY.
    """
    weights = _weight_list(c, w, allow_inf=False)
    if any(m == 0 for m in c.members):
        return INFINITY
    members = [_bits(m) for m in c.members]
    if not members:
        return 0
    min_size = min(len(bits) for bits in members)
    residual = list(weights)
    best = 0

    def upper_bound(i: int) -> int:
        by_caps = 0
        for bits in members[i:]:
            by_caps += min(residual[b] for b in bits)
        by_mass = sum(residual) // min_size
        return min(by_caps, by_mass)

    def dfs(i: int, total: int) -> None:
        nonlocal best
        if total > best:
            best = total
        if i == len(members) or total + upper_bound(i) <= best:
            return
        bits = members[i]
        cap = min(residual[b] for b in bits)
        for mult in range(cap, -1, -1):
            for b in bits:
                residual[b] -= mult
            dfs(i + 1, total + mult)
            for b in bits:
                residual[b] += mult

    dfs(0, 0)
    return best


def tau_star(
    c: Clutter, w: WeightVector = 1, max_ground: int = MAX_POLY_GROUND
) -> Union[Fraction, float]:
    """Exact LP covering value: min w.x over Q(C), attained at an extreme point."""
    weights = _weight_list(c, w, allow_inf=False)
    points = extreme_points(c, max_ground)
    if not points:
        return INFINITY
    return min(sum(Fraction(a) * x for a, x in zip(weights, p)) for p in points)


@dataclass(frozen=True)
class LPCertificate:
    """Primal extreme point and dual member weights certifying the LP value."""

    value: Fraction
    primal: tuple[Fraction, ...]
    dual: tuple[Fraction, ...]


def lp_certificate(
    c: Clutter, w: WeightVector = 1, max_ground: int = MAX_POLY_GROUND
) -> LPCertificate:
    """τ* with a matching exact dual solution (strong-duality certificate).

    The dual packing y >= 0 satisfies M^T y <= w and 1.y = τ*; it is found by
    enumerating complementary-slackness bases over the tight members at an
    optimal extreme point, smallest support first.
    """
    weights = _weight_list(c, w, allow_inf=False)
    points = extreme_points(c, max_ground)
    if not points:
        raise PreconditionViolated("Q(C) is empty; the LP is infeasible")
    value, primal = min(
        (sum(Fraction(a) * x for a, x in zip(weights, p)), p) for p in points
    )
    tight = [
        k
        for k, m in enumerate(c.members)
        if sum(primal[b] for b in _bits(m)) == 1
    ]
    n = len(c.ground)
    m_count = len(c.members)

    def check(dual: list[Fraction]) -> bool:
        if any(y < 0 for y in dual):
            return False
        if sum(dual) != value:
            return False
        for v in range(n):
            load = sum(dual[k] for k in range(m_count) if c.members[k] >> v & 1)
            if load > weights[v]:
                return False
        return True

    if check([Fraction(0)] * m_count):
        return LPCertificate(value, primal, tuple([Fraction(0)] * m_count))
    # Complementary slackness: an optimal dual is tight at every element the
    # primal uses, and rows with zero weight are tight for free — so element
    # subsets drawn from those rows are tried across all bases first.
    likely = [v for v in range(n) if primal[v] > 0 or weights[v] == 0]

    # Each dual variable is capped by the smallest weight in its member, so a
    # support of size s can reach the LP value only if the s largest caps do.
    cap = {k: min(weights[v] for v in _bits(c.members[k])) for k in tight}
    caps_desc = sorted(cap.values(), reverse=True)
    min_size = 1
    while min_size <= len(tight) and sum(caps_desc[:min_size]) < value:
        min_size += 1

    def attempt(basis: tuple[int, ...], elems: tuple[int, ...]) -> Optional[LPCertificate]:
        elem_mask = 0
        for v in elems:
            elem_mask |= 1 << v
        if any(c.members[k] & elem_mask == 0 for k in basis):
            return None
        size = len(basis)
        rank, echelon = _bareiss(
            [[c.members[k] >> v & 1 for k in basis] + [weights[v]] for v in elems], size
        )
        if rank < size:
            return None
        sol = [Fraction(0)] * size
        for i in range(size - 1, -1, -1):
            row = echelon[i]
            rest = sum(row[j] * sol[j] for j in range(i + 1, size))
            sol[i] = (row[size] - rest) / Fraction(row[i])
        dual = [Fraction(0)] * m_count
        for k, y in zip(basis, sol):
            dual[k] = y
        if check(dual):
            return LPCertificate(value, primal, tuple(dual))
        return None

    for size in range(min_size, len(tight) + 1):
        bases = [
            basis
            for basis in itertools.combinations(tight, size)
            if sum(cap[k] for k in basis) >= value
        ]
        likely_sets = set(itertools.combinations(likely, size)) if size <= len(likely) else set()
        for basis in bases:
            for elems in likely_sets:
                hit = attempt(basis, elems)
                if hit is not None:
                    return hit
        for basis in bases:
            for elems in itertools.combinations(range(n), size):
                if elems in likely_sets:
                    continue
                hit = attempt(basis, elems)
                if hit is not None:
                    return hit
    raise VerificationFailure("no complementary-slackness dual basis verified")


# ---------------------------------------------------------------------------
# packing property and MFMC refutation
# ---------------------------------------------------------------------------

def _max_disjoint(masks: Sequence[int]) -> int:
    """Largest number of pairwise-disjoint masks (nonempty, sorted by size)."""
    best = 0

    def grow(rest: list[int], count: int) -> None:
        nonlocal best
        if count > best:
            best = count
        if not rest:
            return
        union = 0
        for m in rest:
            union |= m
        # rest[0] is a smallest mask, so at most union // |rest[0]| more fit
        if count + min(len(rest), union.bit_count() // rest[0].bit_count()) <= best:
            return
        first = rest[0]
        grow([m for m in rest if not m & first], count + 1)
        grow(rest[1:], count)

    grow(list(masks), 0)
    return best


def _covered_within(masks: Sequence[int], budget: int) -> bool:
    """Whether at most `budget` elements meet every mask (masks sorted by size).

    Any cover takes an element of the smallest uncovered mask, so branching
    on those elements, one budget unit per level, is exhaustive. A greedy
    family of pairwise-disjoint masks needs one element each, so a family
    larger than the budget ends the branch (`tau`'s bound at unit weights).
    """
    if not masks:
        return True
    taken = 0
    disjoint = 0
    for m in masks:
        if not m & taken:
            taken |= m
            disjoint += 1
    if disjoint > budget:
        return False
    first = masks[0]
    for b in _bits(first):
        bit = 1 << b
        if _covered_within([m for m in masks if not m & bit], budget - 1):
            return True
    return False


def packs(c: Clutter) -> bool:
    """True when the unit-weight cover and packing values coincide.

    Decided at unit weights, where every packing multiplicity is 0 or 1:
    nu is the largest number of pairwise-disjoint members, found on masks
    by `_max_disjoint` (`nu(c, 1)` in its place makes the `sweep_mfmc`
    benchmark pass about 30% slower), and as tau >= nu always, tau == nu
    exactly when some cover has at most nu elements. The empty clutter
    packs (0 = 0), as does one with the empty member (both values infinite).
    """
    return _packs(c.members)


def _packs(members: Sequence[int]) -> bool:
    """`packs` on an antichain of masks in (cardinality, value) order."""
    if not members or members[0] == 0:
        return True
    return _covered_within(members, _max_disjoint(members))


def has_packing_property(
    c: Clutter, budget: Optional[int] = None
) -> Optional[MinorSpec]:
    """Search every minor for a packing failure; None when all pack.

    Every minor is reached by single deletions and contractions, so a
    depth-first sweep over them visits it. Distinct minors are memoized by
    their relabeled (ground size, members) shape, so the sweep visits far
    fewer than 3^|V| clutters. A child's shape comes from the parent's
    antichain without re-minimalizing: deleting e keeps the members avoiding
    e, a subfamily and so an antichain; contracting e keeps every member
    through e, less e, and drops a member avoiding e only when it contains
    one of those. The sweep walks (ground, members) pairs and builds no
    Clutter: the masks are already in the canonical form construction gives.
    """
    limit = PACKING_BUDGET if budget is None else budget
    if 3 ** len(c.ground) > limit:
        raise BudgetExceeded(
            f"packing sweep over 3^{len(c.ground)} minors exceeds the budget"
        )
    seen = {(len(c.ground), c.members)}

    def visit(
        ground: tuple, members: tuple[int, ...], delete: frozenset, contract: frozenset
    ) -> Optional[MinorSpec]:
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


def mfmc_check(
    c: Clutter,
    bound: int,
    candidates: Optional[Iterable[Sequence[int]]] = None,
    samples: Optional[int] = None,
    seed: Optional[int] = None,
) -> Optional[tuple[tuple[int, ...], Weight, Weight]]:
    """Search for a weight vector with cover value != packing value.

    A refuter only: returns (w, tau, nu) for the first violation among the
    explicit candidates, then either `samples` seeded random draws or the
    full [0, bound]^V sweep. Each vector costs a `tau` and a `nu` over every
    member, so the sweep raises BudgetExceeded when (bound + 1)^|V| times
    the member count exceeds MFMC_SWEEP_BUDGET. None never certifies the
    max-flow min-cut property — the structural tests do that. A negative
    bound raises PreconditionViolated.
    """
    if bound < 0:
        raise PreconditionViolated(f"weight bound must be >= 0, got {bound}")
    n = len(c.ground)

    def violation(w: Sequence[int]) -> Optional[tuple[tuple[int, ...], Weight, Weight]]:
        t, v = tau(c, list(w)), nu(c, list(w))
        if t != v:
            return tuple(w), t, v
        return None

    if candidates is not None:
        for w in candidates:
            hit = violation(w)
            if hit is not None:
                return hit
    if samples is not None:
        rng = random.Random(seed)
        for _ in range(samples):
            hit = violation([rng.randint(0, bound) for _ in range(n)])
            if hit is not None:
                return hit
        return None
    if (bound + 1) ** n * len(c.members) > MFMC_SWEEP_BUDGET:
        raise BudgetExceeded(
            f"({bound}+1)^{n} weight vectors times {len(c.members)} members exceed "
            f"the sweep budget of {MFMC_SWEEP_BUDGET}; pass samples= for seeded sampling"
        )
    for w in itertools.product(range(bound + 1), repeat=n):
        hit = violation(w)
        if hit is not None:
            return hit
    return None
