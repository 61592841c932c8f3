"""Coordinate subspaces of GF(q)^n and their structural operations.

A Subspace is stored by its reduced-row-echelon basis, which makes equality
syntactic. Beyond construction and point enumeration the module provides the
operations that preserve or decompose multipartite structure — products,
coordinate projections, box restrictions, zero-constrained minors — and the
two structured-basis detectors: a basis of pairwise disjoint supports, and a
sunflower basis (shared head block, private tail blocks).
"""
from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Mapping, Optional, Sequence

from . import matroid as matroid_mod
from .errors import (
    BadIndex,
    DimensionMismatch,
    FieldMismatch,
    NotConnectedComponent,
    OverlapError,
    ParseError,
    PreconditionViolated,
    TooLarge,
    VerificationFailure,
)
from .gf import GF, build_field

Point = tuple[int, ...]

POINT_CAP = 1 << 20


def support(x: Sequence[int]) -> frozenset[int]:
    """Indices of the nonzero coordinates of a vector."""
    return frozenset(i for i, v in enumerate(x) if v)


# ---------------------------------------------------------------------------
# row reduction
# ---------------------------------------------------------------------------

def _rref(field: GF, rows: Sequence[Sequence[int]]) -> tuple[tuple[Point, ...], tuple[int, ...]]:
    """Reduced row echelon form: nonzero rows and their pivot columns."""
    mat = [list(r) for r in rows]
    nrows = len(mat)
    ncols = len(mat[0]) if mat else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if mat[i][c]), None)
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        inv = field.inv(mat[r][c])
        mat[r] = [field.mul(inv, x) for x in mat[r]]
        for i in range(nrows):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [field.sub(x, field.mul(f, y)) for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return tuple(tuple(row) for row in mat[:r]), tuple(pivots)


def _validate_vector(field: GF, n: int, x: Sequence[int]) -> Point:
    if len(x) != n:
        raise DimensionMismatch(f"vector {tuple(x)} has length {len(x)}, expected {n}")
    for v in x:
        if not isinstance(v, int) or v < 0 or v >= field.q:
            raise BadIndex(f"entry {v!r} is not an element of GF({field.q})")
    return tuple(x)


# ---------------------------------------------------------------------------
# Subspace
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Subspace:
    """A linear subspace of GF(q)^n held by its canonical RREF basis.

    Construct through `span`; the constructor insists the basis is already
    in reduced row echelon form so that equality of Subspaces is equality
    of the underlying sets of points.
    """

    field: GF
    n: int
    basis: tuple[Point, ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise DimensionMismatch(f"ambient dimension must be >= 1, got {self.n}")
        rows = tuple(_validate_vector(self.field, self.n, r) for r in self.basis)
        object.__setattr__(self, "basis", rows)
        reduced, _ = _rref(self.field, rows)
        if reduced != rows:
            raise PreconditionViolated("basis is not in reduced row echelon form; use span()")

    @property
    def q(self) -> int:
        return self.field.q

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def pivots(self) -> tuple[int, ...]:
        return tuple(next(i for i, v in enumerate(row) if v) for row in self.basis)

    def points(self, cap: int = POINT_CAP) -> tuple[Point, ...]:
        return _points_cached(self, cap)

    def contains(self, x: Sequence[int]) -> bool:
        v = list(_validate_vector(self.field, self.n, x))
        for row, p in zip(self.basis, self.pivots):
            if v[p]:
                f = v[p]
                v = [self.field.sub(a, self.field.mul(f, b)) for a, b in zip(v, row)]
        return not any(v)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        rows = ", ".join(str(r) for r in self.basis)
        return f"Subspace(GF({self.q})^{self.n}, [{rows}])"


@lru_cache(maxsize=4096)
def _points_cached(space: Subspace, cap: int) -> tuple[Point, ...]:
    count = space.q ** space.dim
    if count > cap:
        raise TooLarge(f"{count} points exceeds the enumeration cap {cap}")
    field = space.field
    scaled = [[field.vec_scale(c, row) for c in range(space.q)] for row in space.basis]
    out: list[Point] = []
    for coeffs in itertools.product(range(space.q), repeat=space.dim):
        x = (0,) * space.n
        for j, c in enumerate(coeffs):
            if c:
                x = field.vec_add(x, scaled[j][c])
        out.append(x)
    out.sort()
    return tuple(out)


def span(field: GF, n: int, generators: Iterable[Sequence[int]]) -> Subspace:
    """The subspace spanned by the generators, in canonical RREF form."""
    rows = [_validate_vector(field, n, g) for g in generators]
    reduced, _ = _rref(field, rows)
    return Subspace(field, n, reduced)


def enumerate_points(space: Subspace, cap: int = POINT_CAP) -> list[Point]:
    """All q^dim points of the space, lexicographically sorted."""
    return list(space.points(cap))


# ---------------------------------------------------------------------------
# structural operations
# ---------------------------------------------------------------------------

def product(s1: Subspace, s2: Subspace) -> Subspace:
    """The direct product {(x, y) : x in S1, y in S2} on n1 + n2 coordinates."""
    if s1.field != s2.field:
        raise FieldMismatch(f"GF({s1.q}) vs GF({s2.q})")
    n = s1.n + s2.n
    rows = [row + (0,) * s2.n for row in s1.basis]
    rows += [(0,) * s1.n + row for row in s2.basis]
    return span(s1.field, n, rows)


def _check_coords(space: Subspace, coords: Iterable[int]) -> frozenset[int]:
    out = frozenset(coords)
    for i in out:
        if not isinstance(i, int) or i < 0 or i >= space.n:
            raise BadIndex(f"coordinate {i!r} outside 0..{space.n - 1}")
    return out


def project(space: Subspace, drop: Iterable[int]) -> Subspace:
    """Image of the space after dropping the given coordinates."""
    dropped = _check_coords(space, drop)
    kept = [i for i in range(space.n) if i not in dropped]
    if not kept:
        raise BadIndex("cannot drop every coordinate")
    rows = [tuple(row[i] for i in kept) for row in space.basis]
    return span(space.field, len(kept), rows)


def permute(space: Subspace, order: Sequence[int]) -> Subspace:
    """Reorder coordinates: new coordinate j reads old coordinate order[j]."""
    if sorted(order) != list(range(space.n)):
        raise BadIndex(f"{tuple(order)} is not a permutation of 0..{space.n - 1}")
    rows = [tuple(row[c] for c in order) for row in space.basis]
    return span(space.field, space.n, rows)


# ---------------------------------------------------------------------------
# monomial maps and their orbits
# ---------------------------------------------------------------------------
#
# A monomial map of GF(q)^n permutes the coordinates, scales each by a
# nonzero element and, when q = p^k with k > 1, applies a power of
# Frobenius. It is held as the relabeling of (coordinate, value) pairs, the
# ground labels of mult, that sends (i, a) to (pi(i), c_i * a^(p^f)).

def _monomial_generators(field: GF, n: int) -> list[dict]:
    """Relabelings of the adjacent transpositions, the scalings of coordinate
    0 and one Frobenius, which generate every monomial map of GF(q)^n."""
    ground = [(i, a) for i in range(n) for a in range(field.q)]
    gens = [
        {(i, a): ({j: j + 1, j + 1: j}.get(i, i), a) for i, a in ground}
        for j in range(n - 1)
    ]
    gens += [
        {(i, a): (i, field.mul(c, a) if i == 0 else a) for i, a in ground}
        for c in range(2, field.q)
    ]
    if field.k > 1:
        gens.append({(i, a): (i, field.pow(a, field.p)) for i, a in ground})
    return gens


def monomial_image(sigma: Mapping, space: Subspace) -> Subspace:
    """The subspace that the monomial map with relabeling sigma carries space to.

    The map is semilinear, so the images of a basis span the image.
    """
    rows = []
    for row in space.basis:
        y = [0] * space.n
        for i, v in enumerate(row):
            j, b = sigma[(i, v)]
            y[j] = b
        rows.append(y)
    return span(space.field, space.n, rows)


def monomial_orbits(spaces: Sequence[Subspace]) -> list[tuple[int, dict]]:
    """Per subspace: its monomial orbit's representative's index, and a relabeling.

    spaces must be every subspace of one GF(q)^n. The first subspace of
    each orbit, in the given order, is its representative; a BFS over the
    generators reaches the rest, one RREF per image. The relabeling of each
    subspace composes the generators' relabelings along its BFS path, so it
    is a monomial map that carries the representative onto it.
    """
    field, n = spaces[0].field, spaces[0].n
    gens = _monomial_generators(field, n)
    where = {space.basis: k for k, space in enumerate(spaces)}
    orbits: list = [None] * len(spaces)
    for k in range(len(spaces)):
        if orbits[k] is not None:
            continue
        orbits[k] = (k, {(i, a): (i, a) for i in range(n) for a in range(field.q)})
        queue = [k]
        for cur in queue:
            sigma = orbits[cur][1]
            for g in gens:
                img = monomial_image(g, spaces[cur])
                j = where.get(img.basis)
                if j is None:
                    raise VerificationFailure(
                        f"monomial image {img.basis} of {spaces[cur].basis} is not among the subspaces"
                    )
                if orbits[j] is None:
                    orbits[j] = (k, {e: g[sigma[e]] for e in sigma})
                    queue.append(j)
    return orbits


def _nullspace(field: GF, mat: Sequence[Sequence[int]], ncols: int) -> list[tuple[int, ...]]:
    """Basis of {t : mat @ t = 0} over GF(q)."""
    reduced, pivots = _rref(field, mat) if mat else ((), ())
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis: list[tuple[int, ...]] = []
    for f in free:
        v = [0] * ncols
        v[f] = 1
        for i, p in enumerate(pivots):
            v[p] = field.neg(reduced[i][f])
        basis.append(tuple(v))
    return basis


def _zero_constrained(space: Subspace, zero_coords: Iterable[int]) -> Subspace:
    """The subspace {x in S : x_i = 0 for all i in zero_coords} (same ambient)."""
    zeros = _check_coords(space, zero_coords)
    if not zeros or space.dim == 0:
        return space
    constraints = [[space.basis[j][i] for j in range(space.dim)] for i in sorted(zeros)]
    coeff_basis = _nullspace(space.field, constraints, space.dim)
    field = space.field
    rows: list[Point] = []
    for t in coeff_basis:
        x = (0,) * space.n
        for j, c in enumerate(t):
            if c:
                x = field.vec_add(x, field.vec_scale(c, space.basis[j]))
        rows.append(x)
    return span(field, space.n, rows)


def _support_line(space: Subspace, supp: frozenset[int]) -> Point:
    """The point spanning the space's only line with support exactly supp.

    Zero-constrains the coordinates outside supp; the result is RREF, so the
    point is 1 at min(supp). Raises VerificationFailure unless the
    constrained space is one line with exactly that support.
    """
    inside = _zero_constrained(space, frozenset(range(space.n)) - supp)
    if inside.dim != 1 or support(inside.basis[0]) != supp:
        raise VerificationFailure(f"support {sorted(supp)} does not carry a unique line")
    return inside.basis[0]


def subspace_minor(
    space: Subspace,
    delete: Iterable[int] = (),
    contract: Iterable[int] = (),
) -> Subspace:
    """Zero out the deleted coordinates, then drop deleted and contracted ones.

    This is the vector-space realization of deleting/contracting the same
    coordinates in the underlying matroid.
    """
    dels = _check_coords(space, delete)
    cons = _check_coords(space, contract)
    if dels & cons:
        raise OverlapError(f"delete and contract overlap on {sorted(dels & cons)}")
    constrained = _zero_constrained(space, dels)
    return project(constrained, dels | cons)


# ---------------------------------------------------------------------------
# box restriction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SetSystem:
    """A multipartite point set: what remains of a subspace after a box restriction.

    coords are the surviving original coordinate indices; boxes[k] is the set
    of allowed values at coords[k]; points are the surviving points written in
    the surviving coordinates; dropped lists (coordinate, value) pairs where
    every surviving point agreed.
    """

    field: GF
    coords: tuple[int, ...]
    boxes: tuple[frozenset[int], ...]
    points: tuple[Point, ...]
    dropped: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if len(self.coords) != len(self.boxes):
            raise DimensionMismatch("coords and boxes must align")
        object.__setattr__(self, "boxes", tuple(frozenset(b) for b in self.boxes))
        pts = sorted(set(tuple(p) for p in self.points))
        for p in pts:
            if len(p) != len(self.coords):
                raise DimensionMismatch(f"point {p} does not match {len(self.coords)} coordinates")
            for v, box in zip(p, self.boxes):
                if v not in box:
                    raise BadIndex(f"point {p} leaves its box")
        object.__setattr__(self, "points", tuple(pts))

    @property
    def q(self) -> int:
        return self.field.q


def restrict(space: Subspace, boxes: Sequence[Iterable[int]]) -> SetSystem:
    """Intersect the space with a box, dropping coordinates of full agreement.

    Returns the surviving points as a SetSystem. Coordinates where every
    surviving point takes one common value are recorded in `dropped` and
    removed. An empty intersection keeps the full box and drops nothing.
    """
    if len(boxes) != space.n:
        raise DimensionMismatch(f"{len(boxes)} boxes for {space.n} coordinates")
    box_sets: list[frozenset[int]] = []
    for i, b in enumerate(boxes):
        bs = frozenset(b)
        if not bs:
            raise BadIndex(f"box {i} is empty")
        for v in bs:
            if not isinstance(v, int) or v < 0 or v >= space.q:
                raise BadIndex(f"box {i} value {v!r} is not in GF({space.q})")
        box_sets.append(bs)
    pts = [x for x in space.points() if all(x[i] in box_sets[i] for i in range(space.n))]
    if not pts:
        return SetSystem(space.field, tuple(range(space.n)), tuple(box_sets), (), ())
    agreed = [i for i in range(space.n) if len({x[i] for x in pts}) == 1]
    dropped = tuple((i, pts[0][i]) for i in agreed)
    kept = [i for i in range(space.n) if i not in agreed]
    new_pts = tuple(tuple(x[i] for i in kept) for x in pts)
    return SetSystem(
        space.field,
        tuple(kept),
        tuple(box_sets[i] for i in kept),
        new_pts,
        dropped,
    )


# ---------------------------------------------------------------------------
# structured bases
# ---------------------------------------------------------------------------

def disjoint_support_basis(space: Subspace) -> Optional[tuple[Point, ...]]:
    """A basis with pairwise disjoint supports, or None if none exists.

    Exists exactly when the minimal supports of the space are pairwise
    disjoint; the basis takes the unique (up to scale) point on each minimal
    support. Verified by re-spanning before returning.
    """
    m = matroid_mod.matroid_of(space)
    if matroid_mod.intersecting_circuits(m) is not None:
        return None
    rows = [_support_line(space, circuit) for circuit in sorted(m.circuits, key=min)]
    if len(rows) != space.dim or span(space.field, space.n, rows) != space:
        raise VerificationFailure("disjoint-support rows fail to span the space")
    return tuple(rows)


@dataclass(frozen=True)
class SunflowerWitness:
    """A basis arranged as a shared head block plus one private tail block per row.

    permutation lists original coordinates block by block: first the head
    block (size block_sizes[0]), then one tail block per row. rows are points
    of the witnessed space in original coordinate order; after applying the
    permutation, row j reads (u0, 0, ..., 0, u_j, 0, ..., 0) with u0 common
    to all rows and every in-block entry nonzero.
    """

    field: GF
    permutation: tuple[int, ...]
    block_sizes: tuple[int, ...]
    rows: tuple[Point, ...]

    @property
    def r(self) -> int:
        return len(self.rows)

    @property
    def head(self) -> Point:
        head_coords = self.permutation[: self.block_sizes[0]]
        return tuple(self.rows[0][c] for c in head_coords)

    def blocks(self) -> list[tuple[int, ...]]:
        out = []
        pos = 0
        for size in self.block_sizes:
            out.append(self.permutation[pos : pos + size])
            pos += size
        return out

    def validate(self, space: Subspace) -> "SunflowerWitness":
        n = space.n
        if sorted(self.permutation) != list(range(n)):
            raise VerificationFailure("permutation is not a coordinate ordering")
        if len(self.block_sizes) != self.r + 1 or sum(self.block_sizes) != n:
            raise VerificationFailure("block sizes do not tile the coordinates")
        if self.r < 2:
            raise VerificationFailure(f"need at least 2 rows, got {self.r}")
        if any(d < 1 for d in self.block_sizes):
            raise VerificationFailure("empty block")
        blocks = self.blocks()
        u0 = self.head
        if any(v == 0 for v in u0):
            raise VerificationFailure("head block contains a zero entry")
        for j, row in enumerate(self.rows, start=1):
            if tuple(row[c] for c in blocks[0]) != u0:
                raise VerificationFailure(f"row {j} disagrees with the shared head")
            for b, block in enumerate(blocks[1:], start=1):
                vals = [row[c] for c in block]
                if b == j:
                    if any(v == 0 for v in vals):
                        raise VerificationFailure(f"row {j} has a zero inside its own block")
                elif any(vals):
                    raise VerificationFailure(f"row {j} spills outside head and block {j}")
            if not space.contains(row):
                raise VerificationFailure(f"row {j} is not a point of the space")
        if span(space.field, n, self.rows) != space:
            raise VerificationFailure("rows do not span the space")
        return self


def sunflower_basis(space: Subspace) -> Optional[SunflowerWitness]:
    """Detect a sunflower basis of a connected, coloop-free space.

    Present exactly when the minimal supports organize into t >= 3 series
    classes with every pairwise union a minimal support: the head block is
    the first class, and each remaining class is a private tail. Raises
    NotConnectedComponent when the space splits into factors or has an
    always-zero coordinate; call on factors first.
    """
    m = matroid_mod.matroid_of(space)
    report = matroid_mod.classify(m)
    if len(report.components) != 1 or report.kinds[0] == "coloop":
        raise NotConnectedComponent(
            "space is not a single circuit-connected component; factor it first"
        )
    if report.kinds[0] != "subdivision":
        return None
    classes = matroid_mod.series_classes(m)
    head = frozenset(classes[0])
    # each line is 1 at coordinate 0: validate's shared-head check tests proportionality
    rows = tuple(_support_line(space, head | frozenset(cls)) for cls in classes[1:])
    permutation = tuple(itertools.chain.from_iterable(classes))
    witness = SunflowerWitness(space.field, permutation, tuple(len(c) for c in classes), rows)
    return witness.validate(space)


def factor(space: Subspace) -> list[tuple[tuple[int, ...], Subspace]]:
    """Finest factorization of the space as a product over coordinate groups.

    Groups are the connected components of the minimal-support structure;
    always-zero coordinates become singleton {0} factors. The factorization
    is verified by re-multiplying before returning.
    """
    m = matroid_mod.matroid_of(space)
    comps = matroid_mod.components(m)
    out: list[tuple[tuple[int, ...], Subspace]] = []
    for comp in comps:
        drop = [i for i in range(space.n) if i not in comp]
        out.append((comp, project(space, drop) if drop else space))
    rebuilt = out[0][1]
    for _, piece in out[1:]:
        rebuilt = product(rebuilt, piece)
    order = tuple(itertools.chain.from_iterable(comp for comp, _ in out))
    if rebuilt != permute(space, order):
        raise VerificationFailure("re-multiplied factors disagree with the space")
    return out


# ---------------------------------------------------------------------------
# parsing and formatting
# ---------------------------------------------------------------------------

def format_subspace(space: Subspace) -> str:
    """Text form: a `q n` header line, then one generator row per line."""
    lines = [f"{space.q} {space.n}"]
    lines += [" ".join(str(v) for v in row) for row in space.basis]
    return "\n".join(lines) + "\n"


def subspace_to_json(space: Subspace) -> str:
    return json.dumps(
        {"q": space.q, "n": space.n, "generators": [list(r) for r in space.basis]}
    )


def parse_subspace(text: str) -> Subspace:
    """Parse the text or JSON form of a subspace.

    Text: first line `q n`, then zero or more generator rows of n
    space-separated encoded field elements. JSON: an object with keys
    "q", "n", "generators".
    """
    stripped = text.strip()
    if not stripped:
        raise ParseError("empty input")
    if stripped.startswith("{"):
        try:
            data = json.loads(stripped)
            q = data["q"]
            n = data["n"]
            gens = data["generators"]
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            raise ParseError(f"bad JSON subspace: {exc}") from exc
        if not isinstance(q, int) or not isinstance(n, int) or not isinstance(gens, list):
            raise ParseError("JSON subspace fields must be q:int, n:int, generators:list")
        rows = [tuple(g) for g in gens]
    else:
        lines = [ln for ln in stripped.splitlines() if ln.strip()]
        try:
            q_str, n_str = lines[0].split()
            q, n = int(q_str), int(n_str)
        except ValueError as exc:
            raise ParseError(f"expected header 'q n', got {lines[0]!r}") from exc
        rows = []
        for ln in lines[1:]:
            try:
                rows.append(tuple(int(tok) for tok in ln.split()))
            except ValueError as exc:
                raise ParseError(f"bad generator line {ln!r}") from exc
    field = build_field(q)
    return span(field, n, rows)
