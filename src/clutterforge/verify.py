"""Cross-module verification harness: sweeps, equivalence checks, witness builders.

This module ties the structural detectors (vspace), the minor machinery
(clutter), and the exact polyhedral tests (polyhedral) together. Every
constructive witness emitted here is replayed through the clutter module
before being returned, so a witness in hand is always a verified one.
"""
from __future__ import annotations

import dataclasses
import functools
import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable, Iterator, Mapping, Optional, Sequence, Union

from .clutter import (
    DEFAULT_FIND_MINOR_BUDGET,
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
    restriction_minor_spec,
)
from .errors import (
    BudgetExceeded,
    NoSeriesPair,
    PreconditionViolated,
    TooLarge,
    VerificationFailure,
    WrongField,
    WrongFieldClass,
    WrongShape,
)
from .gf import build_field
from .matroid import matroid_of, series_classes
from .polyhedral import (
    MAX_POLY_GROUND,
    IdealnessCertificate,
    extreme_point_witness,
    has_packing_property,
    is_ideal,
    mfmc_check,
    nu,
    tau,
)
from .vspace import (
    Point,
    Subspace,
    _nullspace,
    _support_line,
    disjoint_support_basis,
    factor,
    monomial_orbits,
    project,
    restrict,
    sunflower_basis,
)

DEFAULT_ENUM_BUDGET = 1_000_000

THEOREM_IDS = ("1.1", "1.2", "1.3", "1.4")


def gaussian_binomial(n: int, r: int, q: int) -> int:
    """Number of r-dimensional subspaces of an n-dimensional space over GF(q)."""
    if r < 0 or r > n:
        return 0
    num = 1
    den = 1
    for i in range(r):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    if num % den:
        raise VerificationFailure(f"Gaussian binomial [{n} choose {r}]_{q} is not an integer")
    return num // den


def count_subspaces(q: int, n: int) -> int:
    """Total number of subspaces of GF(q)^n across all dimensions."""
    return sum(gaussian_binomial(n, r, q) for r in range(n + 1))


def enumerate_subspaces(q: int, n: int, budget: int = DEFAULT_ENUM_BUDGET) -> Iterator[Subspace]:
    """Every subspace of GF(q)^n exactly once, by sweeping RREF matrices.

    For each dimension r and each choice of pivot columns, the free entries
    (right of the row's pivot, outside pivot columns) range over the field.
    Deterministic order: dimension ascending, then pivots, then entries.
    """
    total = count_subspaces(q, n)
    if total > budget:
        raise BudgetExceeded(f"{total} subspaces of GF({q})^{n} exceeds the budget {budget}")
    field = build_field(q)
    for r in range(n + 1):
        for pivots in itertools.combinations(range(n), r):
            pivot_set = set(pivots)
            free_pos = [
                (i, c)
                for i in range(r)
                for c in range(pivots[i] + 1, n)
                if c not in pivot_set
            ]
            for vals in itertools.product(range(q), repeat=len(free_pos)):
                mat = [[0] * n for _ in range(r)]
                for i, p in enumerate(pivots):
                    mat[i][p] = 1
                for (i, c), v in zip(free_pos, vals):
                    mat[i][c] = v
                yield Subspace(field, n, tuple(tuple(row) for row in mat))


# ---------------------------------------------------------------------------
# small shared helpers
# ---------------------------------------------------------------------------

def _is_power_of_two(q: int) -> bool:
    return q >= 2 and q & (q - 1) == 0


def instance_id(space: Subspace) -> str:
    """One-line canonical description of a subspace (field, shape, RREF rows)."""
    rows = ";".join(",".join(str(v) for v in row) for row in space.basis)
    return f"GF({space.q})^{space.n} dim={space.dim} [{rows}]"


def _validate_point(space: Subspace, x: Sequence[int], what: str) -> Point:
    pt = tuple(x)
    if len(pt) != space.n:
        raise PreconditionViolated(f"{what} has length {len(pt)}, expected {space.n}")
    for v in pt:
        if not isinstance(v, int) or isinstance(v, bool) or v < 0 or v >= space.q:
            raise PreconditionViolated(f"{what} entry {v!r} is not an element of GF({space.q})")
    return pt


def _hyperplane_scaling(space: Subspace) -> Optional[tuple[int, ...]]:
    """Nonzero coefficients lam with S = {x : sum lam_i x_i = 0}, or None.

    Exists exactly when the space has codimension 1 and its defining linear
    functional has full support, i.e. the minimal supports of the space are
    all the 2-subsets of coordinates. Normalized so that lam[0] = 1.
    """
    f = space.field
    if space.dim != space.n - 1:
        return None
    (normal,) = _nullspace(f, space.basis, space.n)
    if 0 in normal:
        return None
    lam = f.vec_scale(f.inv(normal[0]), normal)
    if any(functools.reduce(f.add, map(f.mul, lam, row)) for row in space.basis):
        raise VerificationFailure("hyperplane coefficients fail to annihilate the basis")
    return lam


def _star_holds(a: Point, b: Point, c: Point, i: int, j: int, k: int) -> bool:
    """The cyclic agreement pattern: a,b agree at i against c; b,c at j; c,a at k."""
    return (
        a[i] == b[i] != c[i]
        and b[j] == c[j] != a[j]
        and c[k] == a[k] != b[k]
    )


def _find_completion(
    points: Sequence[Point], a: Point, b: Point, c: Point, i: int, j: int, k: int
) -> Optional[Point]:
    """First point d outside {a,b,c} staying inside the triple's value box with
    at least two of d_i=c_i, d_j=a_j, d_k=b_k."""
    abc = {a, b, c}
    for d in points:
        if d in abc:
            continue
        if any(d[pos] not in (a[pos], b[pos], c[pos]) for pos in range(len(d))):
            continue
        hits = (d[i] == c[i]) + (d[j] == a[j]) + (d[k] == b[k])
        if hits >= 2:
            return d
    return None


def _triple_chain(
    coords: Sequence[int],
    boxes: Mapping[int, Sequence[int]],
    a: Mapping[int, int],
    b: Mapping[int, int],
    c: Mapping[int, int],
    i: int,
    j: int,
    k: int,
) -> tuple[MinorSpec, MinorSpec]:
    """The two-step minor extracting a triangle from a blocked triple.

    Step one deletes every element outside the triple's value box and
    contracts the box elements of the coordinates other than i, j, k; step
    two contracts the three "odd one out" values. When no completion point
    exists, replaying the chain leaves the triangle on (i, a_i), (j, b_j),
    (k, c_k).
    """
    allowed = {p: {a[p], b[p], c[p]} for p in coords}
    delete = frozenset(
        (p, v) for p in coords for v in boxes[p] if v not in allowed[p]
    )
    contract = frozenset(
        (p, v) for p in coords if p not in (i, j, k) for v in allowed[p]
    )
    first = MinorSpec(delete, contract)
    second = MinorSpec(contract=frozenset({(i, c[i]), (j, a[j]), (k, b[k])}))
    return first, second


# ---------------------------------------------------------------------------
# the triple condition and its probe
# ---------------------------------------------------------------------------

def triple_condition_probe(
    space: Subspace, a: Sequence[int], b: Sequence[int], c: Sequence[int], i: int, j: int, k: int
) -> Optional[Point]:
    """Search for the completion point promised to delta-3-free point sets.

    Preconditions: a, b, c are distinct points of the space and the cyclic
    agreement pattern holds at the distinct coordinates i, j, k (a,b agree at
    i against c; b,c at j against a; c,a at k against b). Returns the first
    point d (in sorted order) outside {a,b,c} whose every entry comes from
    {a,b,c} and which matches at least two of c_i, a_j, b_k at i, j, k — or
    None. When mult(space) has no triangle minor, a completion always exists;
    absence of one certifies that the two-step triangle chain succeeds.
    """
    pa = _validate_point(space, a, "a")
    pb = _validate_point(space, b, "b")
    pc = _validate_point(space, c, "c")
    for name, pt in (("a", pa), ("b", pb), ("c", pc)):
        if not space.contains(pt):
            raise PreconditionViolated(f"{name}={pt} is not a point of the space")
    if len({pa, pb, pc}) != 3:
        raise PreconditionViolated("a, b, c must be three distinct points")
    for name, pos in (("i", i), ("j", j), ("k", k)):
        if not isinstance(pos, int) or isinstance(pos, bool) or pos < 0 or pos >= space.n:
            raise PreconditionViolated(f"coordinate {name}={pos!r} outside 0..{space.n - 1}")
    if len({i, j, k}) != 3:
        raise PreconditionViolated("i, j, k must be three distinct coordinates")
    if not _star_holds(pa, pb, pc, i, j, k):
        raise PreconditionViolated(
            "the cyclic agreement pattern fails: need a_i=b_i!=c_i, b_j=c_j!=a_j, c_k=a_k!=b_k"
        )
    return _find_completion(sorted(space.points()), pa, pb, pc, i, j, k)


# ---------------------------------------------------------------------------
# constructive triangle witnesses
# ---------------------------------------------------------------------------

def delta3_witness_u24(space: Subspace) -> tuple[MinorSpec, ...]:
    """A verified triangle minor chain for U_{2,4} point sets over GF(2^k).

    The space must have matroid U_{2,4}: four coordinates, dimension two,
    every 3-subset of coordinates a minimal support. The chain restricts
    mult(space) to the value box of a blocked triple (a multiple of the first
    basis row, the second basis row, and their sum) and contracts down to a
    triangle; it is replayed and checked against the triangle before being
    returned.
    """
    f = space.field
    if not _is_power_of_two(f.q):
        raise WrongField(f"construction needs characteristic 2, got GF({f.q})")
    m = matroid_of(space)
    want = {frozenset(t) for t in itertools.combinations(range(4), 3)}
    if space.n != 4 or set(m.circuits) != want:
        raise WrongShape(
            "matroid is not U_{2,4}: need 4 coordinates with every 3-subset a minimal support"
        )
    v1, v2 = space.basis
    if space.pivots != (0, 1):
        raise VerificationFailure("U_{2,4} RREF basis must pivot on the first two coordinates")
    x, y, z, w = v1[2], v1[3], v2[2], v2[3]
    if 0 in (x, y, z, w):
        raise VerificationFailure("U_{2,4} basis tail entries must all be nonzero")
    a = f.vec_scale(f.mul(f.inv(x), z), v1)
    b = v2
    c = f.vec_add(a, b)
    i, j, k = 2, 1, 0
    if not _star_holds(a, b, c, i, j, k):
        raise VerificationFailure("constructed triple fails the cyclic agreement pattern")
    if _find_completion(sorted(space.points()), a, b, c, i, j, k) is not None:
        raise VerificationFailure("unexpected completion point: the triple is not blocked")
    coords = range(4)
    boxes = {p: range(f.q) for p in coords}
    chain = _triple_chain(coords, boxes, a, b, c, i, j, k)
    replay_minor(mult(space), compose_chain(chain), "delta3")
    return chain


def delta3_witness_k4e(space: Subspace) -> tuple[MinorSpec, ...]:
    """A verified triangle minor chain for rank-2 K4-contraction point sets.

    The space must live in five coordinates over GF(2^k), k >= 2, with
    matroid equal to the cycle matroid of the triangle with two doubled
    edges (two disjoint 2-element minimal supports plus four 3-element
    ones). The chain first restricts to a 12-point box, then runs the
    two-step triangle extraction on a blocked triple inside it; the chain is
    replayed and checked against the triangle before being returned.
    """
    f = space.field
    q = f.q
    if not _is_power_of_two(q) or q < 4:
        raise WrongField(f"construction needs GF(2^k) with k >= 2, got GF({q})")
    m = matroid_of(space)
    pairs = sorted((tuple(sorted(c)) for c in m.circuits if len(c) == 2))
    triples = sorted((tuple(sorted(c)) for c in m.circuits if len(c) == 3))
    if (
        space.n != 5
        or len(pairs) != 2
        or len(triples) != 4
        or len(m.circuits) != 6
        or set(pairs[0]) & set(pairs[1])
    ):
        raise WrongShape(
            "matroid mismatch: need two disjoint 2-element and four 3-element minimal supports"
        )
    paired = set(pairs[0]) | set(pairs[1])
    lone = [e for e in range(5) if e not in paired]
    if len(lone) != 1:
        raise WrongShape("exactly one coordinate must avoid the 2-element supports")
    c1 = lone[0]
    tri = min(t for t in triples if c1 in t)
    u, v = sorted(set(tri) - {c1})
    pair_of = {e: p for p in pairs for e in p}
    c4, c5 = u, v
    (c2,) = set(pair_of[u]) - {u}
    (c3,) = set(pair_of[v]) - {v}

    def circuit_point(supp: frozenset[int], unit_at: int) -> Point:
        p = _support_line(space, supp)
        return f.vec_scale(f.inv(p[unit_at]), p)

    v1 = circuit_point(frozenset({c1, c4, c5}), c1)
    v2 = circuit_point(frozenset({c2, c4}), c2)
    v3 = circuit_point(frozenset({c3, c5}), c3)
    x, y = v1[c4], v1[c5]
    z = v2[c4]
    if v3[c5] == z:
        # rescale the third row so its tail differs from z; 2 encodes a
        # field element outside {0, 1}, available since q >= 4
        v3 = f.vec_scale(2, v3)
    t, w = v3[c3], v3[c5]
    if z == w:
        raise VerificationFailure("tail values still collide after rescaling")
    boxes: list[Sequence[int]] = [()] * 5
    boxes[c1] = (0, z, w)
    boxes[c2] = (0, x)
    boxes[c3] = (0, f.mul(t, y))
    boxes[c4] = tuple(range(q))
    boxes[c5] = tuple(range(q))
    spec0 = restriction_minor_spec(space, boxes)
    system = restrict(space, boxes)
    if system.coords != (0, 1, 2, 3, 4) or len(system.points) != 12:
        raise VerificationFailure(
            f"box restriction kept {len(system.points)} points on {system.coords}, expected 12 on all five coordinates"
        )
    a = f.vec_scale(z, v1)
    b = f.vec_scale(w, v1)
    c = f.vec_add(f.vec_scale(x, v2), f.vec_scale(y, v3))
    for name, pt in (("a", a), ("b", b), ("c", c)):
        if pt not in system.points:
            raise VerificationFailure(f"constructed point {name}={pt} left the box")
    i, j, k = c3, c5, c4
    if not _star_holds(a, b, c, i, j, k):
        raise VerificationFailure("constructed triple fails the cyclic agreement pattern")
    if _find_completion(system.points, a, b, c, i, j, k) is not None:
        raise VerificationFailure("unexpected completion point inside the box")
    box_map = {p: boxes[p] for p in range(5)}
    chain = (spec0,) + _triple_chain(range(5), box_map, a, b, c, i, j, k)
    replay_minor(mult(space), compose_chain(chain), "delta3")
    return chain


# ---------------------------------------------------------------------------
# the 5-cycle witness for zero-sum planes over large even fields
# ---------------------------------------------------------------------------

def _pick(valid: list[int], rng: Optional[random.Random]) -> int:
    return rng.choice(valid) if rng is not None else valid[0]


def _rescaled_alpha(
    space: Subspace, lam: Sequence[int], alpha: Sequence[int]
) -> tuple[Point, Point, int, Callable[[int, int], int]]:
    """alpha, checked to lie outside the zero-sum hyperplane sum lam_i x_i = 0.

    Returns alpha, its rescaled image (lam_i alpha_i), whose entries sum to
    the nonzero functional value sigma, sigma itself, and to_s, which maps
    a rescaled value in a part back to a value of the space.
    """
    f = space.field
    alpha_s = _validate_point(space, alpha, "alpha")
    if space.contains(alpha_s):
        raise PreconditionViolated(f"alpha={alpha_s} is a point of the space")
    alpha_t = tuple(f.mul(lam[i], alpha_s[i]) for i in range(space.n))
    sigma = 0
    for v in alpha_t:
        sigma = f.add(sigma, v)
    if sigma == 0:
        raise VerificationFailure("point outside the space must have nonzero functional value")

    def to_s(part: int, value: int) -> int:
        return f.div(value, lam[part])

    return alpha_s, alpha_t, sigma, to_s


def c5sq_witness(
    space: Subspace,
    alpha: Optional[Sequence[int]] = None,
    rng: Optional[Union[int, random.Random]] = None,
) -> tuple[MinorSpec, ...]:
    """A verified 5-cycle-square minor chain for scaled zero-sum planes.

    Requires GF(2^k) with q > 4 and a 3-coordinate space whose minimal
    supports are all 2-subsets (a hyperplane with full-support normal). The
    chain contracts one element per part (the point alpha outside the
    space), deletes all but seven elements of the result, and contracts the
    two remaining second-part elements, leaving the square of the 5-cycle.
    The intermediate 5-member incidence structure and the final isomorphism
    are both checked during construction.

    alpha defaults to the lexicographically smallest point outside the
    space; the remaining free value choices default to the smallest valid
    field elements. Passing rng (a seed or a random.Random) randomizes every
    free choice instead.
    """
    f = space.field
    q = f.q
    if not _is_power_of_two(q) or q <= 4:
        raise WrongField(
            f"construction needs GF(2^k) with q > 4 (three pair classes required), got GF({q})"
        )
    if space.n != 3:
        raise WrongShape(f"need exactly 3 coordinates, got {space.n}")
    lam = _hyperplane_scaling(space)
    if lam is None:
        raise WrongShape(
            "matroid mismatch: the minimal supports must be all 2-subsets of the coordinates"
        )
    if isinstance(rng, int):
        rng = random.Random(rng)
    if alpha is None:
        alpha = _pick(
            [p for p in itertools.product(range(q), repeat=3) if not space.contains(p)], rng
        )
    alpha_s, alpha_t, sigma, to_s = _rescaled_alpha(space, lam, alpha)

    a0, a0s = alpha_t[0], f.add(alpha_t[0], sigma)
    a_val = _pick(sorted(set(range(q)) - {a0, a0s}), rng)
    b_val = _pick(sorted(set(range(q)) - {a0, a0s, a_val, f.add(a_val, sigma)}), rng)
    heads = (a_val, b_val, f.add(f.add(a_val, b_val), alpha_t[0]))
    forbidden = {a0, a0s, a_val, f.add(a_val, sigma), b_val, f.add(b_val, sigma)}
    if heads[2] in forbidden:
        raise VerificationFailure("third pair head collides with an earlier choice")

    def beta(part: int, comp: int) -> int:
        return f.add(f.add(heads[comp], alpha_t[0]), alpha_t[part])

    def lab(part: int, comp: int, shifted: bool) -> tuple[int, int]:
        value = beta(part, comp)
        if shifted:
            value = f.add(value, sigma)
        return (part, to_s(part, value))

    kept = (
        lab(0, 0, False),
        lab(0, 0, True),
        lab(1, 0, True),
        lab(1, 1, False),
        lab(1, 1, True),
        lab(2, 0, False),
        lab(2, 2, True),
    )
    if len(set(kept)) != 7:
        raise VerificationFailure("the seven kept elements are not distinct")
    spec0 = MinorSpec(contract=frozenset((i, alpha_s[i]) for i in range(3)))
    local_ground = {(i, vv) for i in range(3) for vv in range(q) if vv != alpha_s[i]}
    spec1 = MinorSpec(delete=frozenset(local_ground - set(kept)))
    spec2 = MinorSpec(contract=frozenset({lab(1, 1, False), lab(1, 1, True)}))

    intermediate = apply_chain(mult(space), (spec0, spec1))
    expected = {
        frozenset({lab(0, 0, False), lab(1, 0, True)}),
        frozenset({lab(1, 0, True), lab(2, 0, False)}),
        frozenset({lab(2, 0, False), lab(0, 0, True)}),
        frozenset({lab(0, 0, True), lab(1, 1, True), lab(2, 2, True)}),
        frozenset({lab(0, 0, False), lab(1, 1, False), lab(2, 2, True)}),
    }
    if set(intermediate.member_sets()) != expected or set(intermediate.ground) != set(kept):
        raise VerificationFailure(
            "intermediate seven-element clutter does not match the predicted five members"
        )
    replay_minor(intermediate, spec2, "c5sq")
    return (spec0, spec1, spec2)


# ---------------------------------------------------------------------------
# localization structure of scaled zero-sum spaces over GF(2^k)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LocalizationComponent:
    """One component of the size-2 member graph of a localization.

    left[i] and right[i] are the component's two ground elements in part i;
    every size-2 member joins a left vertex to a right vertex of a different
    part (complete bipartite minus a perfect matching). head is the pair of
    part-0 values (in the rescaled, zero-sum coordinates) indexing the
    component.
    """

    head: tuple[int, int]
    left: tuple[tuple[int, int], ...]
    right: tuple[tuple[int, int], ...]
    edges: tuple[frozenset, ...]


@dataclass(frozen=True)
class LocalizationProfile:
    """Verified census of a localization's small members.

    alpha is the localized point (outside the space); sigma is its nonzero
    functional value in the rescaled coordinates where the space is the
    zero-sum hyperplane. size_one lists the ground elements forming
    singleton members, one per part; components carries the size-2 member
    graph, one component per unordered value pair {b, b+sigma} avoiding
    part 0's excluded values; residual lists all members of size >= 3.
    """

    alpha: Point
    sigma: int
    size_one: tuple[tuple[int, int], ...]
    components: tuple[LocalizationComponent, ...]
    residual: tuple[frozenset, ...]


def localization_profile(space: Subspace, alpha: Sequence[int]) -> LocalizationProfile:
    """Compute and verify the member structure of one localization.

    The space must be a scaled zero-sum hyperplane over GF(2^k) (minimal
    supports = all 2-subsets) and alpha a point outside it. The profile is
    computed from the predicted closed form — singleton members at the
    shifted localized values, size-2 members forming q/2 - 1 complete
    bipartite graphs minus perfect matchings — and every prediction is
    checked against the actual localization; any discrepancy raises
    VerificationFailure. Members of size >= 3 are reported as-is, after
    checking each satisfies the membership sum rule.
    """
    f = space.field
    q = f.q
    n = space.n
    if not _is_power_of_two(q):
        raise PreconditionViolated(f"localization structure needs GF(2^k), got GF({q})")
    lam = _hyperplane_scaling(space)
    if lam is None:
        raise PreconditionViolated(
            "matroid mismatch: the minimal supports must be all 2-subsets of the coordinates"
        )
    alpha_s, alpha_t, sigma, to_s = _rescaled_alpha(space, lam, alpha)
    cl = localization(space, alpha_s)
    actual = set(cl.member_sets())
    by_size: dict[int, set] = {}
    for mset in actual:
        by_size.setdefault(len(mset), set()).add(mset)

    # membership sum rule: each member picks at most one value per part, and
    # its rescaled values sum to sigma plus the localized values of the
    # parts it touches
    for mset in actual:
        parts_touched = [p for p, _ in mset]
        if len(parts_touched) != len(set(parts_touched)):
            raise VerificationFailure(f"member {sorted(mset)} repeats a part")
        total = 0
        for p, vv in mset:
            total = f.add(total, f.mul(lam[p], vv))
        want = sigma
        for p in parts_touched:
            want = f.add(want, alpha_t[p])
        if total != want:
            raise VerificationFailure(f"member {sorted(mset)} violates the sum rule")

    predicted_one = {(i, to_s(i, f.add(alpha_t[i], sigma))) for i in range(n)}
    actual_one = {next(iter(mset)) for mset in by_size.get(1, set())}
    if actual_one != predicted_one:
        raise VerificationFailure(
            f"singleton members {sorted(actual_one)} differ from predicted {sorted(predicted_one)}"
        )

    remaining = sorted(set(range(q)) - {alpha_t[0], f.add(alpha_t[0], sigma)})
    seen: set[int] = set()
    components: list[LocalizationComponent] = []
    predicted_two: set = set()
    for head in remaining:
        if head in seen:
            continue
        partner = f.add(head, sigma)
        seen.update({head, partner})
        betas = [f.add(f.add(head, alpha_t[0]), alpha_t[i]) for i in range(n)]
        left = tuple((i, to_s(i, betas[i])) for i in range(n))
        right = tuple((i, to_s(i, f.add(betas[i], sigma))) for i in range(n))
        edges = tuple(
            frozenset({left[i], right[k]})
            for i in range(n)
            for k in range(n)
            if i != k
        )
        predicted_two.update(edges)
        components.append(
            LocalizationComponent((head, partner), left, right, edges)
        )
    if len(components) != q // 2 - 1:
        raise VerificationFailure(
            f"{len(components)} pair classes, expected {q // 2 - 1}"
        )
    actual_two = by_size.get(2, set())
    if actual_two != predicted_two:
        extra = actual_two - predicted_two
        missing = predicted_two - actual_two
        raise VerificationFailure(
            f"size-2 members mismatch: unexpected {sorted(map(sorted, extra))}, "
            f"missing {sorted(map(sorted, missing))}"
        )
    residual = tuple(
        sorted(
            (mset for size, group in by_size.items() if size >= 3 for mset in group),
            key=lambda s: (len(s), sorted(s)),
        )
    )
    return LocalizationProfile(
        alpha=alpha_s,
        sigma=sigma,
        size_one=tuple(sorted(predicted_one)),
        components=tuple(components),
        residual=residual,
    )


# ---------------------------------------------------------------------------
# series reduction and the replication report
# ---------------------------------------------------------------------------

def series_extension_pair(
    space: Subspace, max_ground: int = MAX_POLY_GROUND
) -> tuple[Subspace, Subspace]:
    """Drop one coordinate of a series pair and check idealness is unchanged.

    Two coordinates are in series when every minimal support contains both
    or neither. The returned pair is (space, projection); a differing
    idealness verdict raises VerificationFailure. Raises NoSeriesPair when
    no series class has two coordinates, and BudgetExceeded when either
    polyhedral computation is out of reach.
    """
    m = matroid_of(space)
    cls = next((c for c in series_classes(m) if len(c) >= 2), None)
    if cls is None:
        raise NoSeriesPair("no two coordinates are in series")
    reduced = project(space, [cls[-1]])
    try:
        first = is_ideal(mult(space), max_ground=max_ground)
        second = is_ideal(mult(reduced), max_ground=max_ground)
    except TooLarge as exc:
        raise BudgetExceeded(str(exc)) from exc
    if first.integral != second.integral:
        raise VerificationFailure(
            f"idealness changed under series reduction: {first.integral} vs {second.integral}"
        )
    return (space, reduced)


@dataclass(frozen=True)
class ReplicationReport:
    """Evidence that packing behaviour matches the structural characterization.

    has_packing: every minor packs (None when the sweep was out of budget).
    disjoint_basis: the space has a basis with pairwise disjoint supports.
    ideal: integrality of the covering polyhedron (None beyond budget).
    minimally_non_packing: the clutter fails to pack but every one-element
    minor has the packing property (None when undecided). When the clutter
    is ideal and minimally non-packing, tau_one and q6_isomorphism certify
    covering number two and the isomorphism type.
    """

    instance: str
    has_packing: Optional[bool]
    disjoint_basis: bool
    ideal: Optional[bool]
    minimally_non_packing: Optional[bool]
    tau_one: Optional[int]
    q6_isomorphism: Optional[dict] = field(compare=False, default=None)
    notes: tuple[str, ...] = ()


def replication_tau2_report(
    space: Subspace,
    *,
    max_ground: int = MAX_POLY_GROUND,
    packing_budget: Optional[int] = None,
) -> ReplicationReport:
    """Cross-check the packing-related guarantees on one instance.

    If every minor of mult(space) packs, the space must admit a
    disjoint-support basis (otherwise VerificationFailure). If mult(space)
    is ideal and minimally non-packing, its covering number must be 2 and it
    must be isomorphic to q6 (otherwise VerificationFailure). Budget
    overruns leave the affected fields None and are recorded in notes.
    """
    cl = mult(space)
    notes: list[str] = []
    disjoint = disjoint_support_basis(space) is not None
    violating: Optional[MinorSpec] = None
    has_packing: Optional[bool] = None
    try:
        violating = has_packing_property(cl, budget=packing_budget)
        has_packing = violating is None
    except BudgetExceeded as exc:
        notes.append(f"packing sweep out of budget: {exc}")
    if has_packing is True and not disjoint:
        raise VerificationFailure(
            "packing property holds but no disjoint-support basis exists"
        )
    ideal: Optional[bool] = None
    try:
        ideal = is_ideal(cl, max_ground=max_ground).integral
    except TooLarge as exc:
        notes.append(f"idealness out of budget: {exc}")
    mnp: Optional[bool] = None
    if has_packing is True:
        mnp = False
    elif has_packing is False:
        if violating != MinorSpec():
            mnp = False  # the clutter itself packs; some proper minor fails
        else:
            mnp = True
            for label in cl.ground:
                for spec in (MinorSpec(delete={label}), MinorSpec(contract={label})):
                    try:
                        if has_packing_property(minor(cl, spec), budget=packing_budget) is not None:
                            mnp = False
                            break
                    except BudgetExceeded as exc:
                        notes.append(f"one-element minor sweep out of budget: {exc}")
                        mnp = None
                        break
                if mnp is not True:
                    break
    tau_one: Optional[int] = None
    iso: Optional[dict] = None
    if ideal is True and mnp is True:
        value = tau(cl, 1)
        if value != 2:
            raise VerificationFailure(
                f"ideal minimally-non-packing clutter has covering number {value}, expected 2"
            )
        tau_one = int(value)
        iso = is_isomorphic(cl, builtin("q6"))
        if iso is None:
            raise VerificationFailure(
                "ideal minimally-non-packing clutter is not isomorphic to q6"
            )
    else:
        notes.append("covering-number branch inapplicable")
    return ReplicationReport(
        instance=instance_id(space),
        has_packing=has_packing,
        disjoint_basis=disjoint,
        ideal=ideal,
        minimally_non_packing=mnp,
        tau_one=tau_one,
        q6_isomorphism=iso,
        notes=tuple(notes),
    )


# ---------------------------------------------------------------------------
# three-way equivalence reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TheoremReport:
    """Three-way verdicts for one equivalence statement on one instance.

    cond_i is the polyhedral/flow side, cond_ii the structural basis side,
    cond_iii the forbidden-minor side; None means undecided within budget.
    methods records, per condition, how the verdict was obtained — in
    particular whether it was computed directly or derived, and from what.
    certificates carries the supporting objects (extreme-point certificates,
    bases, minor specs with label maps, violating weights).
    """

    theorem: str
    instance: str
    cond_i: Optional[bool]
    cond_ii: Optional[bool]
    cond_iii: Optional[bool]
    methods: Mapping[str, str] = field(compare=False, default_factory=dict)
    certificates: Mapping[str, Any] = field(compare=False, default_factory=dict)

    @property
    def verdicts(self) -> dict[str, Optional[bool]]:
        return {"i": self.cond_i, "ii": self.cond_ii, "iii": self.cond_iii}

    @property
    def unknown(self) -> tuple[str, ...]:
        return tuple(name for name, v in self.verdicts.items() if v is None)

    @property
    def agreement(self) -> bool:
        known = {v for v in self.verdicts.values() if v is not None}
        return len(known) <= 1

    def to_dict(self) -> dict[str, Any]:
        return {
            "theorem": self.theorem,
            "instance": self.instance,
            "i": self.cond_i,
            "ii": self.cond_ii,
            "iii": self.cond_iii,
            "agreement": self.agreement,
            "unknown": list(self.unknown),
            "methods": dict(self.methods),
            "certificates": {k: summarize_certificate(v) for k, v in self.certificates.items()},
        }


def summarize_certificate(obj: Any) -> Any:
    """JSON-friendly summary of a certificate object."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, MinorSpec):
        return {
            "delete": sorted(map(str, obj.delete)),
            "contract": sorted(map(str, obj.contract)),
        }
    if isinstance(obj, (frozenset, set)):
        return sorted(map(str, obj))
    if isinstance(obj, (tuple, list)):
        return [summarize_certificate(v) for v in obj]
    if isinstance(obj, dict):
        return {str(k): summarize_certificate(v) for k, v in obj.items()}
    if isinstance(obj, Subspace):
        return instance_id(obj)
    if hasattr(obj, "__dataclass_fields__"):
        return {
            name: summarize_certificate(getattr(obj, name))
            for name in obj.__dataclass_fields__
        }
    return str(obj)


def _normalize_theorem_id(which: Any) -> str:
    text = str(which).strip().upper()
    if text.startswith("T"):
        text = text[1:]
    if text not in THEOREM_IDS:
        raise PreconditionViolated(
            f"unknown statement id {which!r}; choose from "
            + ", ".join(f"{t}/T{t}" for t in THEOREM_IDS)
        )
    return text


def _check_field_class(which: str, q: int) -> None:
    if which == "1.1" and q % 2 == 0:
        raise WrongFieldClass(f"statement 1.1 needs odd q, got GF({q})")
    if which == "1.2" and q != 4:
        raise WrongFieldClass(f"statement 1.2 needs GF(4), got GF({q})")
    if which == "1.3" and not (_is_power_of_two(q) and q > 4):
        raise WrongFieldClass(f"statement 1.3 needs GF(2^k) with q > 4, got GF({q})")


_MINOR_TARGETS = {
    "1.1": ("delta3",),
    "1.2": ("delta3",),
    "1.3": ("c5sq",),
    "1.4": ("delta3", "q6"),
}


def _structure_condition(space: Subspace, t: str) -> tuple[bool, str, Any]:
    """Condition (ii), the structural side, as (verdict, method, certificate)."""
    if t == "1.2":
        details: list[tuple[tuple[int, ...], Any]] = []
        ok = True
        for coords, piece in factor(space):
            if piece.dim <= 1:
                details.append((coords, "dimension <= 1"))
                continue
            witness = sunflower_basis(piece)
            details.append((coords, witness))
            if witness is None:
                ok = False
        method = "coordinate factorization with per-factor dimension/sunflower detection"
        return ok, method, tuple(details)
    basis = disjoint_support_basis(space)
    return basis is not None, "pairwise-disjoint-support basis detector", basis


def _mfmc_condition(
    cl: Clutter, cond_ii: bool, packing_budget: Optional[int]
) -> tuple[Optional[bool], str, Any]:
    """Condition (i) of statement 1.4 as (verdict, method, certificate)."""
    try:
        violation = has_packing_property(cl, budget=packing_budget)
    except BudgetExceeded as exc:
        try:
            hit = mfmc_check(cl, 1)
        except BudgetExceeded:
            hit = None
        if hit is None:
            return None, f"unknown: packing sweep out of budget ({exc})", None
        return False, "refuted: explicit weight vector with covering > packing", hit
    if violation is not None:
        inner = minor(cl, violation)
        method = (
            "refuted: a minor fails to pack at unit weights, and covering = "
            "packing at all weights is minor-closed"
        )
        return False, method, (violation, tau(inner, 1), nu(inner, 1))
    if not cond_ii:
        return None, "unknown: no finite test concluded", None
    method = (
        "derived: disjoint-support structure, with an exhaustive "
        "packing-property sweep finding no violation"
    )
    return True, method, None


def verify_theorem(
    space: Subspace,
    which: Any,
    *,
    max_ground: int = MAX_POLY_GROUND,
    minor_budget: Optional[int] = None,
    packing_budget: Optional[int] = None,
) -> TheoremReport:
    """Evaluate one three-way equivalence on one instance, with certificates.

    Statement selectors (accepted with or without a leading "T"):
      1.1 (odd q):      ideal <=> disjoint-support basis <=> no delta3 minor
      1.2 (q = 4):      ideal <=> product of dim<=1 / sunflower factors <=> no delta3 minor
      1.3 (q = 2^k>4):  ideal <=> disjoint-support basis <=> no c5sq minor
      1.4 (any q):      covering = packing at all weights <=> disjoint-support
                        basis <=> neither delta3 nor q6 minor

    Condition (i) is computed by exact extreme-point enumeration when the
    ground fits max_ground; beyond budget it is derived from the other
    conditions where a sound one-directional argument exists, and the
    derivation is labeled in methods. For 1.4 it is refuted by a
    packing-property sweep over every minor, else derived from condition
    (ii); the bounded-weight refuter runs only when that sweep is out of
    budget, since at weights w in {0,1}^V tau and nu are those of the minor
    deleting {e : w_e = 0}, which the sweep tests. Condition (ii) uses the
    structural detectors; condition (iii) uses exhaustive minor search within
    budget, the constructive 5-cycle witness where applicable, and otherwise
    the fact that ideal clutters have no non-ideal minors. Budget failures
    leave verdicts None and are reported per condition.
    """
    t = _normalize_theorem_id(which)
    q = space.q
    _check_field_class(t, q)
    cl = mult(space)
    methods: dict[str, str] = {}
    certs: dict[str, Any] = {}

    # -- condition (ii): structural side -----------------------------------
    cond_ii, methods["ii"], certs["ii"] = _structure_condition(space, t)

    # -- condition (i): polyhedral / flow side -----------------------------
    cond_i: Optional[bool] = None
    if t == "1.4":
        cond_i, methods["i"], cert_i = _mfmc_condition(cl, cond_ii, packing_budget)
        if cert_i is not None:
            certs["i"] = cert_i
    else:
        try:
            cert = is_ideal(cl, max_ground=max_ground)
            cond_i = cert.integral
            certs["i"] = cert
            methods["i"] = "exact extreme-point enumeration"
        except TooLarge:
            methods["i"] = (
                f"unknown: ground size {len(cl.ground)} exceeds the polyhedral "
                f"budget {max_ground}"
            )

    # -- condition (iii): forbidden-minor side -----------------------------
    limit = DEFAULT_FIND_MINOR_BUDGET if minor_budget is None else minor_budget
    searchable = 3 ** len(cl.ground) <= limit
    found: Optional[tuple] = None
    search_unknown = not searchable
    if searchable:
        for name in _MINOR_TARGETS[t]:
            try:
                hit = find_minor(cl, builtin(name), budget=minor_budget)
            except BudgetExceeded:
                search_unknown = True
                continue
            if hit is not None:
                found = (name, hit[0], hit[1])
                break
    elif t == "1.3":
        # the exhaustive search is out of reach; the constructive chain
        # settles presence cheaply whenever the shape admits it
        try:
            found = ("c5sq", c5sq_witness(space), None)
        except (WrongField, WrongShape):
            found = None
    cond_iii: Optional[bool]
    if found is not None:
        cond_iii = False
        certs["iii"] = found
        methods["iii"] = (
            "minor search (witness replayed)"
            if searchable
            else "constructive witness chain (replayed)"
        )
    elif not search_unknown:
        cond_iii = True
        methods["iii"] = "exhaustive minor search (absence certified)"
    else:
        cond_iii = None
        methods["iii"] = "unknown: minor search out of budget"

    # -- derivations across conditions, labeled as such --------------------
    if t != "1.4" and cond_i is None:
        if cond_ii is True:
            cond_i = True
            methods["i"] = (
                "derived: structural condition (ii) holds, so the instance "
                "splits into a product of integral factors"
            )
        elif cond_iii is False:
            cond_i = False
            methods["i"] = "derived: a non-integral minor was found"
    if t != "1.4" and cond_iii is None and cond_i is True:
        cond_iii = True
        methods["iii"] = (
            "derived: the covering polyhedron is integral, minors inherit "
            "integrality, and the target minor is not integral"
        )

    return TheoremReport(
        theorem=t,
        instance=instance_id(space),
        cond_i=cond_i,
        cond_ii=cond_ii,
        cond_iii=cond_iii,
        methods=methods,
        certificates=certs,
    )


def _verify_basis(q: int, n: int, which: Any, basis: tuple[Point, ...], **kwargs: Any) -> TheoremReport:
    """verify_theorem on the subspace of GF(q)^n with this RREF basis (a pool task)."""
    return verify_theorem(Subspace(build_field(q), n, basis), which, **kwargs)


# ---------------------------------------------------------------------------
# transported reports: one verification per monomial orbit
# ---------------------------------------------------------------------------

def _map_spec(spec: MinorSpec, sigma: Mapping) -> MinorSpec:
    return MinorSpec({sigma[e] for e in spec.delete}, {sigma[e] for e in spec.contract})


def _carry(values: Sequence, source: Clutter, sigma: Mapping, cl: Clutter) -> tuple:
    """A vector over source's ground as one over cl's: the entry of e moves to sigma(e)."""
    at = {sigma[e]: v for e, v in zip(source.ground, values)}
    return tuple(at[e] for e in cl.ground)


def _replay_cond_i(cl: Clutter, moved: Any, source: Clutter, sigma: Mapping) -> Any:
    """A condition (i) certificate of source, mapped through sigma and replayed on cl.

    A fractional extreme point is proved extreme again; a statement 1.4
    refutation, a minor failing to pack or a weight vector, has its covering
    and packing values recomputed. An integral verdict carries over on the
    isomorphism alone; the counts of an idealness certificate stay those of
    the representative's double description.
    """
    if isinstance(moved, IdealnessCertificate):
        if moved.integral:
            return moved
        point = _carry(moved.fractional_point, source, sigma, cl)
        tight_members, tight_bounds = extreme_point_witness(cl, point)
        return dataclasses.replace(
            moved, fractional_point=point, tight_members=tight_members, tight_bounds=tight_bounds
        )
    how, cover, packing = moved
    if isinstance(how, MinorSpec):
        how = _map_spec(how, sigma)
        inner = minor(cl, how)
        values = (tau(inner, 1), nu(inner, 1))
    else:
        how = _carry(how, source, sigma, cl)
        values = (tau(cl, list(how)), nu(cl, list(how)))
    if values != (cover, packing) or cover == packing:
        raise VerificationFailure(
            f"transported refutation replays to covering, packing = {values}, "
            f"claimed {(cover, packing)}"
        )
    return how, cover, packing


def _replay_cond_iii(cl: Clutter, found: tuple, sigma: Mapping) -> tuple:
    """A condition (iii) minor certificate, mapped through sigma and replayed on cl."""
    name, how, mapping = found
    if mapping is None:  # a constructive witness chain
        chain = tuple(_map_spec(spec, sigma) for spec in how)
        replay_minor(cl, compose_chain(chain), name)
        return name, chain, None
    spec = _map_spec(how, sigma)
    mapping = replay_minor(cl, spec, name, {x: sigma[e] for x, e in mapping.items()})
    return name, spec, mapping


def _transport(
    report: TheoremReport, source: Clutter, sigma: Mapping, space: Subspace
) -> TheoremReport:
    """The report on space, from a representative's report and its mult `source`.

    sigma must carry the members of source onto exactly those of mult(space),
    which makes it an isomorphism of the two clutters, so the verdicts of
    conditions (i) and (iii) carry over. Their certificates are mapped
    through sigma and replayed on this instance; condition (ii) is computed
    again and must agree. Any mismatch raises VerificationFailure.
    """
    cl = mult(space)
    moved = {frozenset(sigma[e] for e in m) for m in source.member_sets()}
    if moved != set(cl.member_sets()):
        raise VerificationFailure(
            f"relabeling from {report.instance} does not carry its members onto "
            f"those of {instance_id(space)}"
        )
    cond_ii, method_ii, cert_ii = _structure_condition(space, report.theorem)
    if cond_ii != report.cond_ii:
        raise VerificationFailure(
            f"condition (ii) is {cond_ii} on {instance_id(space)} but {report.cond_ii} "
            f"on its representative {report.instance}"
        )
    suffix = f"; transported from {report.instance} by a checked monomial isomorphism"
    methods = {
        "ii": method_ii,
        "i": report.methods["i"] + suffix,
        "iii": report.methods["iii"] + suffix,
    }
    certs: dict[str, Any] = {"ii": cert_ii}
    if "i" in report.certificates:
        certs["i"] = _replay_cond_i(cl, report.certificates["i"], source, sigma)
    if "iii" in report.certificates:
        certs["iii"] = _replay_cond_iii(cl, report.certificates["iii"], sigma)
    return TheoremReport(
        theorem=report.theorem,
        instance=instance_id(space),
        cond_i=report.cond_i,
        cond_ii=cond_ii,
        cond_iii=report.cond_iii,
        methods=methods,
        certificates=certs,
    )


def sweep_theorem(
    q: int,
    n: int,
    which: Any,
    *,
    jobs: int = 1,
    enum_budget: int = DEFAULT_ENUM_BUDGET,
    **kwargs: Any,
) -> list[TheoremReport]:
    """verify_theorem's verdicts on every subspace of GF(q)^n, in enumeration order.

    A monomial map (a coordinate permutation, a nonzero scaling of each
    coordinate and, when q = p^k, a power of Frobenius) carries mult(S) to
    an isomorphic clutter, so every verdict is constant on a monomial orbit.
    verify_theorem runs once per orbit, on its first subspace in enumeration
    order, and that report is returned as is. Every other subspace gets the
    representative's report carried along a relabeling that is checked to
    be an isomorphism: condition (ii) is computed again, and each
    certificate of (i) and (iii) is mapped and replayed on the subspace's
    own clutter. Its methods for (i) and (iii) then read "<representative's
    method>; transported from <representative's instance> by a checked
    monomial isomorphism".

    With jobs > 1 the representatives are verified in that many worker
    processes; the reports are the same as with jobs=1.
    """
    spaces = list(enumerate_subspaces(q, n, budget=enum_budget))
    _check_field_class(_normalize_theorem_id(which), q)  # fail before the orbit search
    orbits = monomial_orbits(spaces)
    reps = [k for k, (r, _) in enumerate(orbits) if r == k]
    if jobs <= 1:
        verified = [verify_theorem(spaces[r], which, **kwargs) for r in reps]
    else:
        # imported here so that `import clutterforge` does not pay for it
        from concurrent.futures import ProcessPoolExecutor

        task = functools.partial(_verify_basis, q, n, which, **kwargs)
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            # one representative per task: their costs differ widely
            verified = list(pool.map(task, [spaces[r].basis for r in reps]))
    done = {r: (report, mult(spaces[r])) for r, report in zip(reps, verified)}
    return [
        done[r][0] if r == k else _transport(*done[r], sigma, spaces[k])
        for k, (r, sigma) in enumerate(orbits)
    ]
