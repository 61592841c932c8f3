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
from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Optional, Union

from .clutter import (
    Clutter,
    SEARCH_BUDGET,
    MinorSpec,
    _require_limit,
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
from .errors import (
    BudgetExceeded,
    DimensionMismatch,
    PreconditionViolated,
    TooLarge,
    VerificationFailure,
    WrongField,
    WrongFieldClass,
    WrongShape,
    _require_int,
    _require_type,
)
from .gf import build_field
from .matroid import matroid_of
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
    _is_semilinear,
    _support_line,
    _unchecked,
    disjoint_support_basis,
    factor,
    monomial_image,
    monomial_orbits,
    sunflower_basis,
)

ENUM_BUDGET = 1_000_000

THEOREM_IDS = ("1.1", "1.2", "1.3", "1.4")


def gaussian_binomial(n: int, r: int, q: int) -> int:
    """Number of r-dimensional subspaces of an n-dimensional space over GF(q)."""
    for value, what in ((n, "dimension"), (r, "subspace dimension"), (q, "field order")):
        _require_int(value, what)
    if q < 2:
        raise PreconditionViolated(f"field order must be at least 2, got {q}")
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
    _require_int(n, "dimension")
    return sum(gaussian_binomial(n, r, q) for r in range(n + 1))


def enumerate_subspaces(q: int, n: int) -> Iterator[Subspace]:
    """Every subspace of GF(q)^n exactly once, by sweeping RREF matrices.

    For each dimension r and each choice of pivot columns, the free entries
    (right of the row's pivot, outside pivot columns) range over the field.
    Deterministic order: dimension ascending, then pivots, then entries.
    More than ENUM_BUDGET subspaces raise BudgetExceeded.
    """
    field = build_field(q)
    total = count_subspaces(q, n)
    if n < 1:
        raise DimensionMismatch(f"ambient dimension must be >= 1, got {n}")
    if total > ENUM_BUDGET:
        raise BudgetExceeded(f"{total} subspaces of GF({q})^{n} exceeds the budget {ENUM_BUDGET}")
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
                yield _unchecked(field, n, tuple(tuple(row) for row in mat))  # RREF as built


# ---------------------------------------------------------------------------
# small shared helpers
# ---------------------------------------------------------------------------

def _is_power_of_two(q: int) -> bool:
    return q >= 2 and q & (q - 1) == 0


def instance_id(space: Subspace) -> str:
    """One-line canonical description of a subspace (field, shape, RREF rows)."""
    _require_type(space, Subspace)
    rows = ";".join(",".join(str(v) for v in row) for row in space.basis)
    return f"GF({space.q})^{space.n} dim={space.dim} [{rows}]"


def _validate_point(space: Subspace, x: Sequence[int], what: str) -> Point:
    _require_type(x, Iterable)
    pt = tuple(x)
    if len(pt) != space.n:
        raise PreconditionViolated(f"{what} has length {len(pt)}, expected {space.n}")
    for v in pt:
        if type(v) is not int or v < 0 or v >= space.q:
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
    # the RREF basis pivots on every coordinate but `free`, where the normal is 1
    (free,) = set(range(space.n)) - set(space.pivots)
    normal = [f.neg(row[free]) for row in space.basis]
    normal.insert(free, 1)
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


def _blocked_triple_chain(
    space: Subspace, a: Point, b: Point, c: Point, i: int, j: int, k: int
) -> tuple[MinorSpec, ...]:
    """The verified two-step triangle minor chain of a blocked triple.

    The triple must hold the cyclic agreement pattern and have no completion
    point in the space. Step one deletes every element (p, v) with v outside
    the triple's value box {a_p, b_p, c_p} and contracts the box elements of
    the coordinates other than i, j, k; step two contracts the three "odd one
    out" values, leaving the triangle on (i, a_i), (j, b_j), (k, c_k). The
    chain is replayed before being returned.
    """
    if not _star_holds(a, b, c, i, j, k):
        raise VerificationFailure("constructed triple fails the cyclic agreement pattern")
    if _find_completion(space.points(), a, b, c, i, j, k) is not None:
        raise VerificationFailure("unexpected completion point: the triple is not blocked")
    allowed = [{a[p], b[p], c[p]} for p in range(space.n)]
    delete = frozenset((p, v) for p in range(space.n) for v in range(space.q) if v not in allowed[p])
    contract = frozenset((p, v) for p in range(space.n) if p not in (i, j, k) for v in allowed[p])
    odd = frozenset({(i, c[i]), (j, a[j]), (k, b[k])})
    chain = (MinorSpec(delete, contract), MinorSpec(contract=odd))
    replay_minor(mult(space), compose_chain(chain), "delta3")
    return chain


def _chain_certificate(
    cl: Clutter, chain: Sequence[MinorSpec], name: str
) -> tuple[str, MinorSpec, dict]:
    """A constructive chain as a minor certificate: (name, spec, target -> ground map).

    The chain's steps are composed into one delete/contract spec and replayed
    against the named target, so the certificate has the shape of a search
    hit and replays the same way.
    """
    spec = compose_chain(chain)
    return name, spec, replay_minor(cl, spec, name)


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
    _require_type(space, Subspace)
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
    return _blocked_triple_chain(space, a, b, c, 2, 1, 0)


def delta3_witness_k4e(space: Subspace) -> tuple[MinorSpec, ...]:
    """A verified triangle minor chain for rank-2 K4-contraction point sets.

    The space must live in five coordinates over GF(2^k), k >= 2, with
    matroid equal to the cycle matroid of the triangle with two doubled
    edges (two disjoint 2-element minimal supports plus four 3-element
    ones). The chain is the two-step triangle extraction
    `_blocked_triple_chain(space, a, b, c, i, j, k)` on a blocked triple built
    from the points of three minimal supports; it is replayed and checked
    against the triangle before being returned.
    """
    _require_type(space, Subspace)
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
    # two disjoint pairs among five coordinates leave exactly one coordinate
    (c1,) = set(range(5)) - set(pairs[0]) - set(pairs[1])
    tri = min(t for t in triples if c1 in t)
    c4, c5 = sorted(set(tri) - {c1})
    pair_of = {e: p for p in pairs for e in p}
    (c2,) = set(pair_of[c4]) - {c4}
    (c3,) = set(pair_of[c5]) - {c5}

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
    w = v3[c5]
    if z == w:
        raise VerificationFailure("tail values still collide after rescaling")
    a = f.vec_scale(z, v1)
    b = f.vec_scale(w, v1)
    c = f.vec_add(f.vec_scale(x, v2), f.vec_scale(y, v3))
    return _blocked_triple_chain(space, a, b, c, c3, c5, c4)


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
    field elements. Passing rng (an int seed or a random.Random) randomizes
    every free choice instead; anything else raises WrongType.
    """
    _require_type(space, Subspace)
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
    if rng is not None and not isinstance(rng, random.Random):
        _require_int(rng, "rng seed")
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


# witness kind -> (chain builder, target); per target, in the order tried
_WITNESS_BUILDERS = {
    "u24": (delta3_witness_u24, "delta3"),
    "k4e": (delta3_witness_k4e, "delta3"),
    "c5sq": (c5sq_witness, "c5sq"),
}


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
    _require_type(space, Subspace)
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
# the replication report
# ---------------------------------------------------------------------------

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


def replication_tau2_report(space: Subspace) -> ReplicationReport:
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
        violating = has_packing_property(cl)
        has_packing = violating is None
    except BudgetExceeded as exc:
        notes.append(f"packing sweep out of budget: {exc}")
    if has_packing is True and not disjoint:
        raise VerificationFailure(
            "packing property holds but no disjoint-support basis exists"
        )
    ideal: Optional[bool] = None
    try:
        ideal = is_ideal(cl).integral
    except TooLarge as exc:
        notes.append(f"idealness out of budget: {exc}")
    mnp: Optional[bool] = None
    if has_packing is True:
        mnp = False
    elif has_packing is False:
        if violating != MinorSpec():
            mnp = False  # the clutter itself packs; some proper minor fails
        else:
            # the root sweep passed the budget on a ground one element larger
            mnp = all(
                has_packing_property(minor(cl, spec)) is None
                for label in cl.ground
                for spec in (MinorSpec(delete={label}), MinorSpec(contract={label}))
            )
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


def _factor_mults(
    factors: Sequence[tuple[tuple[int, ...], Subspace]], cl: Clutter, budget: Optional[int]
) -> tuple[Clutter, ...]:
    """mult of each of the factors, `vspace.factor` of a space, when there are
    at least two and the searches on cl = mult(space) are within the budget;
    else ().

    cl is then the clutter product of these, and every minor of a product
    is the product of minors of its factors, whose tau and nu are the
    minima of theirs. So cl has the packing property when every factor
    has it, and none of delta3, q6 and c5sq, which are not products (no
    element lies in every member, and q6 fails each of its 2x2 splits),
    is a minor of cl unless it is a minor of a factor. The callers search
    the factors first and fall back to cl on any hit, so their answers and
    certificates are those of the search on cl.
    """
    if len(factors) < 2 or 3 ** len(cl.ground) > (SEARCH_BUDGET if budget is None else budget):
        return ()
    return tuple(mult(piece) for _, piece in factors)


def _named_minor(
    space: Subspace,
    cl: Clutter,
    name: str,
    budget: Optional[int],
    pieces: Sequence[Clutter] = (),
) -> tuple[Optional[bool], str, Optional[tuple[str, MinorSpec, dict]]]:
    """Whether cl = mult(space) has the named minor, as (present, method, certificate).

    Within the budget the exhaustive search decides, and a hit is the
    certificate; absence from every one of the pieces, `_factor_mults`,
    decides absence without searching cl. Past the budget, the first
    builder for the target whose shape checks pass gives a replayed chain;
    when none applies, presence is unknown.
    """
    wanted = builtin(name)
    if pieces and all(find_minor(piece, wanted, budget=budget) is None for piece in pieces):
        return False, "exhaustive minor search (absence certified)", None
    try:
        hit = find_minor(cl, wanted, budget=budget)
    except BudgetExceeded:
        for builder, target in _WITNESS_BUILDERS.values():
            if target != name:
                continue
            try:
                found = _chain_certificate(cl, builder(space), name)
            except (WrongField, WrongShape):
                continue
            return True, "constructive witness chain (replayed)", found
        return None, "unknown: minor search out of budget", None
    if hit is None:
        return False, "exhaustive minor search (absence certified)", None
    return True, "minor search (witness replayed)", (name, *hit)


def _structure_condition(
    space: Subspace, t: str, factors: Sequence[tuple[tuple[int, ...], Subspace]]
) -> tuple[bool, str, Any]:
    """Condition (ii), the structural side, as (verdict, method, certificate).

    Statement 1.2 reads the factors, `vspace.factor(space)`: each needs a
    sunflower basis (None when it has none) unless its dimension is at most 1.
    """
    if t == "1.2":
        details = tuple(
            (coords, "dimension <= 1" if piece.dim <= 1 else sunflower_basis(piece))
            for coords, piece in factors
        )
        method = "coordinate factorization with per-factor dimension/sunflower detection"
        return all(detail is not None for _, detail in details), method, details
    basis = disjoint_support_basis(space)
    return basis is not None, "pairwise-disjoint-support basis detector", basis


def _ideal_condition(cl: Clutter, max_ground: int) -> tuple[Optional[bool], str, Any]:
    """Condition (i) of statements 1.1-1.3 as (verdict, method, certificate)."""
    try:
        cert = is_ideal(cl, max_ground=max_ground)
    except TooLarge:
        method = (
            f"unknown: ground size {len(cl.ground)} exceeds the polyhedral "
            f"budget {max_ground}"
        )
        return None, method, None
    return cert.integral, "exact extreme-point enumeration", cert


def _mfmc_condition(
    cl: Clutter, cond_ii: bool, budget: Optional[int], pieces: Sequence[Clutter] = ()
) -> tuple[Optional[bool], str, Any]:
    """Condition (i) of statement 1.4 as (verdict, method, certificate).

    The packing sweep runs on cl unless every one of the pieces,
    `_factor_mults`, has the packing property, which proves it for cl.
    """
    try:
        packs = bool(pieces) and all(has_packing_property(p, budget=budget) is None for p in pieces)
        violation = None if packs else has_packing_property(cl, budget=budget)
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
    budget: Optional[int] = None,
) -> TheoremReport:
    """Evaluate one three-way equivalence on one instance, with certificates.

    Statement selectors (accepted with or without a leading "T"):
      1.1 (odd q):      ideal <=> disjoint-support basis <=> no delta3 minor
      1.2 (q = 4):      ideal <=> product of dim<=1 / sunflower factors <=> no delta3 minor
      1.3 (q = 2^k>4):  ideal <=> disjoint-support basis <=> no c5sq minor
      1.4 (any q):      covering = packing at all weights <=> disjoint-support
                        basis <=> neither delta3 nor q6 minor

    budget caps both searches over the minors of mult(space), the minor
    search and the packing sweep, as 3^|ground| (default SEARCH_BUDGET).
    Condition (i) is computed by exact extreme-point enumeration when the
    ground fits max_ground; beyond it it is derived from the other
    conditions where a sound one-directional argument exists, and the
    derivation is labeled in methods. For 1.4 it is refuted by a
    packing-property sweep over every minor, else derived from condition
    (ii); the bounded-weight refuter runs only when that sweep is out of
    budget, since at weights w in {0,1}^V tau and nu are those of the minor
    deleting {e : w_e = 0}, which the sweep tests. Condition (ii) uses the
    structural detectors. Condition (iii) decides each target minor by
    _named_minor, the rule `analyze` uses too: exhaustive search within the
    budget, past it a replayed constructive chain whose shape checks pass,
    and otherwise the fact that ideal clutters have no non-ideal minors.
    Budget failures leave verdicts None and are reported per condition; a
    negative budget or max_ground raises PreconditionViolated.
    """
    _require_type(space, Subspace)
    _require_limit(max_ground, "max ground")
    if budget is not None:
        _require_limit(budget, "search budget")
    t = _normalize_theorem_id(which)
    q = space.q
    _check_field_class(t, q)
    cl = mult(space)
    factors = factor(space)
    pieces = _factor_mults(factors, cl, budget)
    methods: dict[str, str] = {}
    certs: dict[str, Any] = {}

    # -- condition (ii): structural side -----------------------------------
    cond_ii, methods["ii"], certs["ii"] = _structure_condition(space, t, factors)

    # -- condition (i): polyhedral / flow side -----------------------------
    if t == "1.4":
        cond_i, methods["i"], cert_i = _mfmc_condition(cl, cond_ii, budget, pieces)
    else:
        cond_i, methods["i"], cert_i = _ideal_condition(cl, max_ground)
    if cert_i is not None:
        certs["i"] = cert_i

    # -- condition (iii): forbidden-minor side -----------------------------
    cond_iii: Optional[bool] = True
    for name in _MINOR_TARGETS[t]:
        present, method, found = _named_minor(space, cl, name, budget, pieces)
        if present is not False or cond_iii:
            # a present target decides, and an unknown one outranks an absent one
            methods["iii"] = method
        if present:
            cond_iii, certs["iii"] = False, found
            break
        if present is None:
            cond_iii = None

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


# ---------------------------------------------------------------------------
# transported reports: one verification per monomial orbit
# ---------------------------------------------------------------------------

def _map_spec(spec: MinorSpec, sigma: Mapping) -> MinorSpec:
    return MinorSpec({sigma[e] for e in spec.delete}, {sigma[e] for e in spec.contract})


def _carry(values: Sequence, sigma: Mapping, cl: Clutter) -> tuple:
    """A vector over the representative's mult ground as one over cl's: the
    entry of e moves to sigma(e). Both grounds are the (coordinate, value)
    pairs of GF(q)^n in one order, cl's."""
    at = {sigma[e]: v for e, v in zip(cl.ground, values)}
    return tuple(at[e] for e in cl.ground)


def _replay_cond_i(cl: Clutter, moved: Any, sigma: Mapping) -> Any:
    """A refuting condition (i) certificate, mapped through sigma and replayed on cl.

    A fractional extreme point is proved extreme again; a statement 1.4
    refutation, a minor failing to pack or a weight vector, has its covering
    and packing values recomputed.
    """
    if isinstance(moved, IdealnessCertificate):
        point = _carry(moved.fractional_point, sigma, cl)
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
        how = _carry(how, sigma, cl)
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
    spec = _map_spec(how, sigma)
    mapping = replay_minor(cl, spec, name, {x: sigma[e] for x, e in mapping.items()})
    return name, spec, mapping


def _transport(
    report: TheoremReport, rep: Subspace, sigma: Mapping, space: Subspace
) -> TheoremReport:
    """The report on space, from the report on its representative rep.

    sigma must be a monomial map, checked to be semilinear, that carries
    rep's RREF basis onto space's. A semilinear map carries spans onto
    spans, so it carries the points of rep onto those of space, which are
    the members of their mults: sigma is an isomorphism of mult(rep) onto
    mult(space), and the verdicts of conditions (i) and (iii) carry over.
    An integral idealness certificate carries over as is, with the counts
    of the representative's double description. The other certificates of
    (i) and (iii) are mapped through sigma and replayed on mult(space),
    which is built only for them; condition (ii) is computed again and
    must agree. Any mismatch raises VerificationFailure.
    """
    if (
        not _is_semilinear(sigma, space.field, space.n)
        or monomial_image(sigma, rep).basis != space.basis
    ):
        raise VerificationFailure(
            f"relabeling from {report.instance} does not carry its members onto "
            f"those of {instance_id(space)}"
        )
    factors = factor(space) if report.theorem == "1.2" else ()
    cond_ii, method_ii, cert_ii = _structure_condition(space, report.theorem, factors)
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
    cert_i = report.certificates.get("i")
    if isinstance(cert_i, IdealnessCertificate) and cert_i.integral:
        certs["i"], cert_i = cert_i, None
    if cert_i is not None or "iii" in report.certificates:
        cl = mult(space)
        if cert_i is not None:
            certs["i"] = _replay_cond_i(cl, cert_i, sigma)
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
    max_ground: int = MAX_POLY_GROUND,
    budget: Optional[int] = None,
) -> list[TheoremReport]:
    """verify_theorem's verdicts on every subspace of GF(q)^n, in enumeration order.

    A monomial map (a coordinate permutation, a nonzero scaling of each
    coordinate and, when q = p^k, a power of Frobenius) carries mult(S) to
    an isomorphic clutter, so every verdict is constant on a monomial orbit.
    verify_theorem runs once per orbit, in this process, on its first
    subspace in enumeration order, and that report is returned as is. Every
    other subspace gets the representative's report carried along a
    relabeling that is checked to be an isomorphism: condition (ii) is
    computed again, and each certificate of (i) and (iii) is mapped and
    replayed on the subspace's own clutter. Its methods for (i) and (iii)
    then read "<representative's method>; transported from
    <representative's instance> by a checked monomial isomorphism".

    max_ground and budget are passed to verify_theorem and checked before
    any subspace is enumerated, as are the statement id, the field order
    and the field class.
    """
    _require_limit(max_ground, "max ground")
    if budget is not None:
        _require_limit(budget, "search budget")
    t = _normalize_theorem_id(which)
    build_field(q)  # an invalid order outranks the field class
    _check_field_class(t, q)  # fail before the enumeration
    spaces = list(enumerate_subspaces(q, n))
    orbits = monomial_orbits(spaces)
    done = {
        r: verify_theorem(spaces[r], t, max_ground=max_ground, budget=budget)
        for k, (r, _) in enumerate(orbits)
        if r == k
    }
    return [
        done[r] if r == k else _transport(done[r], spaces[r], sigma, spaces[k])
        for k, (r, sigma) in enumerate(orbits)
    ]
