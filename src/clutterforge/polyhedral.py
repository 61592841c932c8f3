"""Exact rational analysis of the covering polyhedron of a clutter.

Q(C) = {x >= 0 : sum of x over every member >= 1}. Everything here is exact:
extreme points come from an integer double-description sweep, in which a new
ray is tight exactly where both its parents are plus on the new row, and are
each proved extreme in integers (tightness, then the rank of the tight rows
by a GF(2) basis or, when that falls short, Bareiss elimination), idealness
from inspecting them. One exhaustive search, `_covered_within`, decides whether
a cover fits a weight budget: `tau` is the least budget it meets. One packing
search, `_packs_within`, bounded by it, decides whether k members pack: `nu` is
the largest k it meets, and `packs` and `mfmc_check` ask whether tau members
pack. No floating point is used anywhere except the infinity sentinel.
"""
from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .clutter import (
    SEARCH_BUDGET,
    Clutter,
    MinorSpec,
    _bits,
    _contract_members,
    _delete_members,
    _minimal_masks,
    _require_limit,
)
from .errors import (
    BudgetExceeded,
    DimensionMismatch,
    PreconditionViolated,
    TooLarge,
    VerificationFailure,
    _require_int,
    _require_type,
)
from .matroid import _gf2_dependencies

MAX_POLY_GROUND = 14
MFMC_SWEEP_BUDGET = 1 << 20

INFINITY = math.inf

Weight = Union[int, float]
WeightVector = Union[int, Sequence[Weight]]


def _weight_list(c: Clutter, w: WeightVector, allow_inf: bool) -> list[Weight]:
    _require_type(c, Clutter)
    if isinstance(w, (int, float)) and not isinstance(w, bool):
        w = [w] * len(c.ground)
    else:
        _require_type(w, Iterable)
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
        if type(x) is not int or x < 0:
            raise PreconditionViolated(f"weight {x!r} is not a nonnegative integer")
    return weights


# ---------------------------------------------------------------------------
# extreme points (double description on the homogenization)
# ---------------------------------------------------------------------------

def _gcd_reduce(vec: tuple[int, ...]) -> tuple[int, ...]:
    g = math.gcd(*vec)
    if g > 1:
        return tuple(x // g for x in vec)
    return vec


def _dd_rays(
    n: int, member_bits: Sequence[Sequence[int]]
) -> tuple[list[tuple[int, ...]], int]:
    """Extreme rays of {(x, t) >= 0 : a.x - t >= 0 per member}, and rays created.

    Rays are gcd-reduced nonnegative integer vectors of length d = n+1 (t
    last), each with the mask of processed constraints tight on it: bits
    0..n-1 the x bounds, n the t bound, d+k the k-th member row. Row k
    keeps every ray with a.x - t >= 0, a zero one gaining bit d+k, and adds
    the combination of each adjacent pair across it: rays whose common
    mask has at least d - 2 bits and lies in no other ray's. Both parents
    satisfy every processed constraint and the new ray is a positive
    combination of them, so it is tight on one exactly when both are: its
    mask is their common mask plus bit d+k (Fukuda–Prodon 1996). Its
    minimal face is that edge of the old cone, so no ray arises twice.
    Distinct extreme rays have distinct tight sets, so another ray is
    another mask.
    """
    d = n + 1
    rays = [tuple(int(j == i) for j in range(d)) for i in range(d)]
    masks = [((1 << d) - 1) & ~(1 << i) for i in range(d)]
    created = d
    for k, bits in enumerate(member_bits):
        row_bit = 1 << (d + k)
        rows = [(ray, mask, sum(ray[b] for b in bits) - ray[n]) for ray, mask in zip(rays, masks)]
        kept = [(ray, mask | row_bit if v == 0 else mask) for ray, mask, v in rows if v >= 0]
        neg = [row for row in rows if row[2] < 0]
        for rp, mp, a in rows:
            if a <= 0:
                continue
            for rm, mm, b in neg:
                common = mp & mm
                if common.bit_count() < d - 2:
                    continue
                for mo in masks:
                    if mo & common == common and mo != mp and mo != mm:
                        break
                else:
                    combo = tuple(a * y - b * x for x, y in zip(rp, rm))
                    kept.append((_gcd_reduce(combo), common | row_bit))
                    created += 1
        rays = [ray for ray, _ in kept]
        masks = [mask for _, mask in kept]
    return rays, created


def _bareiss(rows: list[list[int]], ncols: int) -> tuple[int, list[list[int]]]:
    """Fraction-free echelon form of an integer matrix (Bareiss, Math. Comp. 1968).

    Pivots are sought in the first `ncols` columns. Returns the rank and
    the eliminated rows; every division is exact, since each entry stays a
    minor of the input.
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


def _full_rank(masks: list[int], support: int) -> bool:
    """Whether the 0/1 rows `masks`, all inside `support`, span its columns.

    A full rank mod 2 already proves a full rank over Q (an integer matrix
    has rank mod p at most its rank over Q); only a short one falls through
    to the exact Bareiss rank.
    """
    cols = _bits(support)
    if _gf2_dependencies(masks).count(0) == len(cols):
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
    _require_type(c, Clutter)
    _require_type(point, Sequence)
    n = len(c.ground)
    if len(point) != n:
        raise VerificationFailure(f"point of length {len(point)}, ground has {n}")
    t = math.lcm(*(Fraction(x).denominator for x in point))
    ray = tuple(int(x * t) for x in point) + (t,)
    tight, support = _verify_extreme(c, [_bits(m) for m in c.members], ray)
    return tight, tuple(v for v in range(n) if not support >> v & 1)


def _verified_rays(
    c: Clutter, max_ground: int
) -> tuple[list[tuple[tuple[int, ...], tuple[int, ...], int]], int]:
    """DD rays with t > 0, each proved extreme, and the count of rays created.

    Each ray (x, t) comes with the tight members and support mask that
    `_verify_extreme` returned for the extreme point x/t of Q(C).
    """
    _require_type(c, Clutter)
    _require_int(max_ground, "ground cap")
    n = len(c.ground)
    if n > max_ground:
        raise TooLarge(f"ground of {n} elements exceeds the cap of {max_ground}")
    member_bits = [_bits(m) for m in c.members]
    rays, created = _dd_rays(n, member_bits)
    verified = [(ray, *_verify_extreme(c, member_bits, ray)) for ray in rays if ray[n]]
    return verified, created


def _point(ray: tuple[int, ...]) -> tuple[Fraction, ...]:
    """The point x/t of the ray (x, t)."""
    return tuple(Fraction(x, ray[-1]) for x in ray[:-1])


def extreme_points(
    c: Clutter, max_ground: int = MAX_POLY_GROUND
) -> list[tuple[Fraction, ...]]:
    """All extreme points of Q(C), exact and verified, in sorted order."""
    return sorted(_point(ray) for ray, _, _ in _verified_rays(c, max_ground)[0])


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

    A fractional verdict carries the least fractional extreme point plus the
    tight member rows and tight bounds whose full column rank proved its ray
    extreme. A DD ray is gcd-reduced, so x/t is integral exactly when t == 1,
    and only the fractional rays become `Fraction` points.
    """
    verified, created = _verified_rays(c, max_ground)
    fractional = [
        (_point(ray), tight, support) for ray, tight, support in verified if ray[-1] > 1
    ]
    if not fractional:
        return IdealnessCertificate(
            integral=True, extreme_point_count=len(verified), candidates_examined=created
        )
    point, tight, support = min(fractional, key=lambda f: f[0])
    return IdealnessCertificate(
        integral=False,
        extreme_point_count=len(verified),
        candidates_examined=created,
        fractional_point=point,
        tight_members=tight,
        tight_bounds=tuple(v for v in range(len(point)) if not support >> v & 1),
    )


# ---------------------------------------------------------------------------
# covering and packing numbers
# ---------------------------------------------------------------------------

def _cover_masks(c: Clutter, weights: Sequence[Weight]) -> Optional[list[int]]:
    """The members a cover must pay to meet, as masks sorted by size.

    Infinite-weight elements are dropped from every member, and a member
    through a zero-weight element is met for free. None when some member
    has only infinite-weight elements, so that no cover exists.
    """
    inf_mask = zero_mask = 0
    for v, x in enumerate(weights):
        if x == INFINITY:
            inf_mask |= 1 << v
        elif x == 0:
            zero_mask |= 1 << v
    masks = [m & ~inf_mask for m in c.members]
    if 0 in masks:
        return None
    masks = [m for m in masks if not m & zero_mask]
    return list(_minimal_masks(masks)) if inf_mask else masks


def _covered_within(
    masks: Sequence[int], budget: int, weights: Optional[Sequence[Weight]] = None
) -> bool:
    """Whether a cover of weight at most `budget` meets every mask.

    The masks are sorted by size, and every element in them has a positive
    weight (1 each when `weights` is None). Any cover takes an element of
    the smallest uncovered mask, so branching on those elements that fit
    the budget, each costing its weight, is exhaustive. A greedy family of
    pairwise-disjoint masks needs a distinct element of each, so when its
    summed cheapest weights exceed the budget the branch ends.
    """
    if weights is None:
        return _fits(masks, budget, {}, {})
    cost = dict(enumerate(weights))
    return _fits(masks, budget, cost, {m: min(cost[b] for b in _bits(m)) for m in masks})


def _fits(masks: Sequence[int], budget: int, cost: dict, cheapest: dict) -> bool:
    """`_covered_within`'s search; `cost` weighs elements and `cheapest` masks, 1 if absent."""
    if not masks:
        return True
    taken = 0
    bound = 0
    for m in masks:
        if not m & taken:
            taken |= m
            bound += cheapest.get(m, 1)
    if bound > budget:
        return False
    for b in _bits(masks[0]):
        price = cost.get(b, 1)
        if price <= budget:
            bit = 1 << b
            if _fits([m for m in masks if not m & bit], budget - price, cost, cheapest):
                return True
    return False


def _least(low: int, high: int, meets) -> int:
    """Least k in (low, high] that the monotone test `meets` passes; it passes high."""
    while high - low > 1:
        mid = (low + high) // 2
        if meets(mid):
            high = mid
        else:
            low = mid
    return high


def _min_cover(masks: Sequence[int], weights: Optional[Sequence[Weight]] = None) -> int:
    """The least budget `_covered_within` meets, at most the cost of each mask's cheapest element."""
    if weights is None:
        return _least(-1, len({m & -m for m in masks}), lambda b: _covered_within(masks, b))
    cheap = {min(_bits(m), key=weights.__getitem__) for m in masks}
    return _least(-1, sum(weights[b] for b in cheap), lambda b: _covered_within(masks, b, weights))


def _packs_within(masks: Sequence[int], k: int, weights: Optional[Sequence[Weight]] = None) -> bool:
    """Whether k masks, with repeats, pack within the weights `_covered_within` takes.

    A greedy family of disjoint masks packs. No packing outweighs a cover,
    of weight k - 1 or 1/|smallest mask| per element, so either ends the
    branch. Else the first mask is taken y times, y from the most that fits
    (1 at unit weights) down to 0, and the later masks whose elements keep
    a positive weight go on: the depth is the mask count, whatever the weights.
    """
    if k <= 0:
        return True
    union = taken = count = 0
    for m in masks:
        union |= m
        if not m & taken:
            taken, count = taken | m, count + 1
    if count >= k:
        return True
    mass = union.bit_count() if weights is None else sum(weights[b] for b in _bits(union))
    if not masks or mass < k * masks[0].bit_count() or _covered_within(masks, k - 1, weights):
        return False
    first, rest = masks[0], masks[1:]
    if weights is None:
        return _packs_within([m for m in rest if not m & first], k - 1) or _packs_within(rest, k)
    bits = _bits(first)
    for y in range(min(k, *(weights[b] for b in bits)), -1, -1):
        residual = list(weights)
        for b in bits:
            residual[b] -= y
        spent = sum(1 << b for b in bits if not residual[b])
        if _packs_within([m for m in rest if not m & spent], k - y, residual):
            return True
    return False


def tau(c: Clutter, w: WeightVector = 1) -> Weight:
    """Exact min-weight cover value; INFINITY when no cover exists.

    Infinite weights exclude elements (equivalent to deleting them before
    covering); zero-weight elements are free. The value is `_min_cover`'s.
    """
    weights = _weight_list(c, w, allow_inf=True)
    masks = _cover_masks(c, weights)
    if masks is None:
        return INFINITY
    return _min_cover(masks, weights)


def nu(c: Clutter, w: WeightVector = 1) -> Weight:
    """Exact max packing value: integer member multiplicities y with M^T y <= w.

    Weights must be finite; a clutter containing the empty member packs it
    without bound, reported as INFINITY. The value is the largest k up to
    tau that `_packs_within` meets, found by binary search.
    """
    weights = _weight_list(c, w, allow_inf=False)
    masks = _cover_masks(c, weights)
    if masks is None:
        return INFINITY
    # at 0/1 weights every element left in the masks weighs 1
    unit = None if all(x <= 1 for x in weights) else weights
    # no packing outweighs a cover, so tau + 1 members never pack
    return _least(0, _min_cover(masks, unit) + 1, lambda k: not _packs_within(masks, k, unit)) - 1


# ---------------------------------------------------------------------------
# packing property and MFMC refutation
# ---------------------------------------------------------------------------

def packs(c: Clutter) -> bool:
    """True when the unit-weight cover and packing values coincide.

    As tau >= nu always, tau == nu exactly when `_packs_within` packs
    `_min_cover` members. The empty clutter packs (0 = 0), as does one
    with the empty member (both values infinite).
    """
    _require_type(c, Clutter)
    return _packs(c.members)


def _packs(members: Sequence[int], weights: Optional[Sequence[Weight]] = None) -> bool:
    """tau == nu, on masks and weights as `_covered_within` takes them."""
    if not members or members[0] == 0:
        return True
    return _packs_within(members, _min_cover(members, weights), weights)


def has_packing_property(c: Clutter, budget: Optional[int] = None) -> Optional[MinorSpec]:
    """Search every minor for a packing failure; None when all pack.

    Every minor is reached by single deletions and contractions, and
    `_failing_path` walks them depth first to the first that fails; its
    path is mapped back to labels. Its results are cached by shape across
    calls, so the minors that a sweep's clutters share are decided once.
    Shapes whose minors all pack by a rule are not expanded: at most two
    members, or pairwise-disjoint ones, are None at once, and a shape with
    elements in no member is None exactly when its shape without them is,
    since such elements change no minor's tau or nu. The returned spec is
    the full walk's either way. A budget that is not an int raises
    WrongType, a negative one PreconditionViolated; 3^|V| over it,
    BudgetExceeded.
    """
    _require_type(c, Clutter)
    limit = SEARCH_BUDGET if budget is None else _require_limit(budget, "packing budget")
    if 3 ** len(c.ground) > limit:
        raise BudgetExceeded(f"packing sweep over 3^{len(c.ground)} minors exceeds the budget")
    path = _failing_path(len(c.ground), c.members)
    if path is None:
        return None
    ground = list(c.ground)
    removed: tuple[set, set] = (set(), set())
    for i, contracts in path:
        removed[contracts].add(ground.pop(i))
    return MinorSpec(*removed)


@functools.lru_cache(maxsize=1 << 16)
def _failing_path(size: int, members: tuple[int, ...]) -> Optional[tuple[tuple[int, bool], ...]]:
    """The first minor of a (ground size, members) shape that fails to pack; None if all pack.

    () when the shape fails, else ((i, contracts),) + the path of the first
    child that has one, element i ascending, deletion before contraction.
    A child's masks come from the parent's antichain without minimalizing
    (`_delete_members`, `_contract_members`). The path depends on the shape
    alone, so it is cached, failures included: a depth-first sweep that
    skips a shape it has swept skips one whose minors all pack.

    Two rules return the walk's own answer without expanding every shape.
    A shape with at most two members, or with pairwise-disjoint ones, is
    None: both classes are closed under deletion and contraction, and each
    such clutter packs (two meeting members give tau = nu = 1, two or more
    disjoint ones tau = nu = their count, the empty member both infinite).
    Elements in no member change no minor's tau or nu (deleting or
    contracting one leaves the members as they are), so a shape with such
    elements first looks up its squeezed shape, those elements dropped and
    the masks renumbered in order, which keeps the (cardinality, value)
    order. Its None or () is the shape's; only when it fails deeper does
    the walk below run, to return the path through the shape's own elements.
    """
    union = 0
    for m in members:
        union |= m
    if len(members) <= 2 or sum(m.bit_count() for m in members) == union.bit_count():
        return None
    if union != (1 << size) - 1:
        keep = _bits(union)
        squeezed = tuple(sum(1 << j for j, b in enumerate(keep) if m >> b & 1) for m in members)
        sub = _failing_path(len(keep), squeezed)
        if not sub:  # None: every minor packs; (): the shape itself fails
            return sub
    elif not _packs(members):
        return ()
    for i in range(size):
        for contracts, build in ((False, _delete_members), (True, _contract_members)):
            sub = _failing_path(size - 1, build(members, i))
            if sub is not None:
                return ((i, contracts),) + sub
    return None


def mfmc_check(c: Clutter, bound: int) -> Optional[tuple[tuple[int, ...], Weight, Weight]]:
    """Search [0, bound]^V for a weight vector with cover value != packing value.

    A refuter only: returns (w, tau, nu) for the first violation in product
    order. Each vector is decided as `packs` decides, by whether
    `_min_cover` members pack; tau and nu are computed only for the
    violation returned. Each vector costs searches over every member, so
    the sweep raises BudgetExceeded when (bound + 1)^|V| times the member
    count exceeds MFMC_SWEEP_BUDGET. None never certifies the max-flow
    min-cut property — the structural tests do that. A bound that is not an
    int raises WrongType; a negative one PreconditionViolated.
    """
    _require_type(c, Clutter)
    _require_int(bound, "weight bound")
    if bound < 0:
        raise PreconditionViolated(f"weight bound must be >= 0, got {bound}")
    n = len(c.ground)
    if (bound + 1) ** n * len(c.members) > MFMC_SWEEP_BUDGET:
        raise BudgetExceeded(
            f"({bound}+1)^{n} weight vectors times {len(c.members)} members exceed "
            f"the sweep budget of {MFMC_SWEEP_BUDGET}"
        )
    for w in itertools.product(range(bound + 1), repeat=n):
        masks = _cover_masks(c, w)
        # None only with the empty member, where tau and nu are both infinite
        if masks is not None and not _packs(masks, None if all(x <= 1 for x in w) else w):
            return w, tau(c, w), nu(c, w)
    return None
