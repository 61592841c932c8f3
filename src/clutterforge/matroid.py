"""Circuit-presented matroids on small ground sets.

A matroid here is its ground size n (elements 0..n-1) and the family of
circuits, validated against the circuit axioms on construction. The matroid
of a subspace S <= GF(q)^n has as circuits the inclusion-minimal supports of
the nonzero points of S; that construction lives in `matroid_of`.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Optional, Sequence

from .clutter import Clutter, MinorSpec, _bits, _minimal_masks, find_minor, is_isomorphic, minor
from .errors import (
    BadIndex,
    BudgetExceeded,
    OverlapError,
    PreconditionViolated,
    TooLarge,
    UnknownName,
    VerificationFailure,
    WrongType,
    _require_int,
    _require_type,
)
from .vspace import Subspace

MAX_GROUND = 16
MINOR_BUDGET = 2_000_000


@dataclass(frozen=True)
class CircuitMatroid:
    """A matroid given by its circuit family over ground elements 0..size-1."""

    size: int
    circuits: tuple[frozenset[int], ...]

    def __post_init__(self) -> None:
        _require_int(self.size, "ground size")
        try:
            raw = [frozenset(c) for c in self.circuits]
        except TypeError as exc:
            raise WrongType(f"circuits must be sets of ints: {exc}") from exc
        if not all(type(e) is int for c in raw for e in c):
            raise WrongType("circuit elements must be ints")
        circs = tuple(sorted(set(raw), key=lambda s: (len(s), sorted(s))))
        if len(circs) != len(raw):
            raise PreconditionViolated("duplicate circuits")
        object.__setattr__(self, "circuits", circs)
        for c in circs:
            if not c:
                raise PreconditionViolated("the empty set cannot be a circuit")
            if any(e < 0 or e >= self.size for e in c):
                raise BadIndex(f"circuit {sorted(c)} leaves ground range 0..{self.size - 1}")
        for a, b in itertools.combinations(circs, 2):
            if a <= b or b <= a:
                raise PreconditionViolated(f"circuits {sorted(a)} and {sorted(b)} are nested")
        if self.size <= MAX_GROUND:
            # circuit elimination axiom (checked exhaustively on small grounds)
            for a, b in itertools.combinations(circs, 2):
                for e in a & b:
                    union = (a | b) - {e}
                    if not any(c <= union for c in circs):
                        raise PreconditionViolated(
                            f"circuit elimination fails for {sorted(a)}, {sorted(b)} at {e}"
                        )

    # -- basic oracle --------------------------------------------------------

    def rank(self) -> int:
        """Rank of the ground via greedy growth."""
        indep: set[int] = set()
        for e in range(self.size):
            indep.add(e)
            if any(c <= indep for c in self.circuits):
                indep.discard(e)
        return len(indep)


def matroid_of(space: Subspace) -> CircuitMatroid:
    """Matroid whose circuits are the minimal supports of the space's nonzero points.

    Validates the rank identity rank = n - dim. Built once per distinct space
    and then shared; the matroid is immutable.
    """
    _require_type(space, Subspace)
    return _matroid_cached(space)


@lru_cache(maxsize=4096)
def _matroid_cached(space: Subspace) -> CircuitMatroid:
    supports = [sum(1 << i for i, v in enumerate(x) if v) for x in space.points() if any(x)]
    circuits = tuple(frozenset(_bits(c)) for c in _minimal_masks(supports))
    m = CircuitMatroid(space.n, circuits)
    if m.rank() != space.n - space.dim:
        raise VerificationFailure(
            f"rank {m.rank()} disagrees with n - dim = {space.n - space.dim}"
        )
    return m


# ---------------------------------------------------------------------------
# minors
# ---------------------------------------------------------------------------

def matroid_minor(m: CircuitMatroid, delete: frozenset[int] = frozenset(), contract: frozenset[int] = frozenset()) -> CircuitMatroid:
    """Delete `delete`, contract `contract`, relabel the kept ground in order.

    Circuits of the deletion are the circuits avoiding the deleted set;
    circuits of the contraction are the minimal nonempty sets among
    {C - contract}. That is the clutter minor of the circuits once the
    circuits inside the contracted set, which would leave the empty set, are
    dropped. The result is re-validated against the circuit axioms.
    """
    _require_type(m, CircuitMatroid)
    try:
        delete = frozenset(delete)
        contract = frozenset(contract)
    except TypeError as exc:
        raise WrongType(f"delete and contract must be sets of ints: {exc}") from exc
    if delete & contract:
        raise OverlapError(f"delete and contract overlap on {sorted(delete & contract)}")
    for e in delete | contract:
        if type(e) is not int:
            raise WrongType(f"element {e!r} is not an int")
        if e < 0 or e >= m.size:
            raise BadIndex(f"element {e} outside ground 0..{m.size - 1}")
    circuits = Clutter(tuple(range(m.size)), tuple(c for c in m.circuits if not c <= contract))
    kept = minor(circuits, MinorSpec(delete, contract))
    return CircuitMatroid(len(kept.ground), tuple(frozenset(_bits(c)) for c in kept.members))


# ---------------------------------------------------------------------------
# connectivity structure
# ---------------------------------------------------------------------------

def _merge_overlaps(masks: Iterable[int], size: int) -> list[tuple[int, ...]]:
    """Classes of the elements 0..size-1 joined by the masks, ordered by least element.

    Each mask is merged with every group it meets; an element in no mask is
    a singleton class. Each class is listed in increasing order.
    """
    groups: list[int] = []  # disjoint masks, so a sum of them is their union
    for mask in masks:
        met = [x for x in groups if x & mask]
        groups = [x for x in groups if not x & mask] + [mask | sum(met)]
    covered = sum(groups)
    groups += [1 << e for e in range(size) if not covered >> e & 1]
    return [tuple(_bits(mask)) for mask in sorted(groups, key=lambda m: m & -m)]


def components(m: CircuitMatroid) -> tuple[tuple[int, ...], ...]:
    """Partition of the ground into connected components.

    Elements in no circuit are their own (coloop) components; other elements
    are joined whenever they share a circuit.
    """
    _require_type(m, CircuitMatroid)
    return tuple(_merge_overlaps((sum(1 << e for e in c) for c in m.circuits), m.size))


def series_classes(m: CircuitMatroid) -> tuple[tuple[int, ...], ...]:
    """Classes of elements, within components, that every circuit treats alike.

    Two elements of a common component are in series when every circuit
    contains both or neither. Coloop components are singleton classes.
    """
    comp_of: dict[int, int] = {}
    for ci, comp in enumerate(components(m)):
        for e in comp:
            comp_of[e] = ci
    sig: dict[tuple[int, frozenset[int]], list[int]] = {}
    for e in range(m.size):
        member_of = frozenset(i for i, c in enumerate(m.circuits) if e in c)
        sig.setdefault((comp_of[e], member_of), []).append(e)
    return tuple(tuple(sorted(g)) for g in sorted(sig.values(), key=lambda g: g[0]))


@dataclass(frozen=True)
class StructureReport:
    """Per-component classification of a matroid.

    kinds[i] is one of "coloop", "circuit", "subdivision", "unclassified";
    t_values[i] carries t for subdivision components and None otherwise.
    """

    components: tuple[tuple[int, ...], ...]
    kinds: tuple[str, ...]
    t_values: tuple[Optional[int], ...]

    @property
    def all_disjoint_circuits(self) -> bool:
        return all(k in ("coloop", "circuit") for k in self.kinds)

    @property
    def all_structured(self) -> bool:
        return all(k != "unclassified" for k in self.kinds)


def classify(m: CircuitMatroid) -> StructureReport:
    """Classify every component as coloop, single circuit, or subdivision.

    A component is a subdivision component when it has t >= 3 series
    classes and its circuits are exactly their pairwise unions: contracting
    all but one element of each class then leaves every 2-subset of t
    elements a circuit.
    """
    comps = components(m)
    all_classes = series_classes(m)
    kinds: list[str] = []
    ts: list[Optional[int]] = []
    for comp in comps:
        comp_set = frozenset(comp)
        local = [c for c in m.circuits if c <= comp_set]
        classes = [frozenset(cl) for cl in all_classes if cl[0] in comp_set]
        unions = {a | b for a, b in itertools.combinations(classes, 2)}
        t = None
        if not local:
            kind = "coloop"
        elif local == [comp_set]:
            kind = "circuit"
        elif len(classes) >= 3 and set(local) == unions:
            kind, t = "subdivision", len(classes)
        else:
            kind = "unclassified"
        kinds.append(kind)
        ts.append(t)
    return StructureReport(comps, tuple(kinds), tuple(ts))


# ---------------------------------------------------------------------------
# fixed small targets and minor search
# ---------------------------------------------------------------------------

def _gf2_dependencies(vectors: Iterable[int]) -> list[int]:
    """One GF(2) elimination of bitmask vectors, in order: 0 for a vector
    independent of those before it, else the mask of the earlier vectors whose
    XOR it is plus its own bit. The XOR basis records what each row combines."""
    basis: dict[int, tuple[int, int]] = {}  # lowest bit -> (vector, combination)
    out: list[int] = []
    for i, x in enumerate(vectors):
        combo = 1 << i
        while x:
            low = x & -x
            if low not in basis:
                basis[low] = (x, combo)
                combo = 0
                break
            b, c = basis[low]
            x ^= b
            combo ^= c
        out.append(combo)
    return out


def _fundamental_cycles(edges: Sequence[tuple[int, int]]) -> list[int]:
    """The fundamental cycles of a multigraph, as edge masks: each edge whose
    incidence mask (1 << u) ^ (1 << v) depends on the edges before it (a loop
    at once) closes one, edges - vertices + components in all."""
    return [c for c in _gf2_dependencies((1 << u) ^ (1 << v) for u, v in edges) if c]


def _graph_circuits(edges: Sequence[tuple[int, int]]) -> tuple[frozenset[int], ...]:
    """Circuits of the cycle matroid of a small multigraph.

    XORs of the fundamental cycles are the whole cycle space, and its minimal
    nonzero elements are the circuits.
    """
    space = [0]
    for c in _fundamental_cycles(edges):
        space += [s ^ c for s in space]
    return tuple(frozenset(_bits(s)) for s in _minimal_masks(space[1:]))


def _build_targets() -> dict[str, CircuitMatroid]:
    # A3: two vertices joined by three parallel edges
    a3 = CircuitMatroid(3, _graph_circuits([(0, 1), (0, 1), (0, 1)]))
    # U24: rank-2 uniform matroid on 4 elements, circuits all 3-subsets
    u24 = CircuitMatroid(4, tuple(frozenset(c) for c in itertools.combinations(range(4), 3)))
    # MK4e: cycle matroid of K4 with one edge contracted: vertices a,b,c with
    # edge 0 = ac, edges 1,3 = ab, edges 2,4 = bc
    mk4e = CircuitMatroid(5, _graph_circuits([(0, 2), (0, 1), (1, 2), (0, 1), (1, 2)]))
    # MK4: cycle matroid of the complete graph on 4 vertices
    k4_edges = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    mk4 = CircuitMatroid(6, _graph_circuits(k4_edges))
    return {"A3": a3, "U24": u24, "MK4e": mk4e, "MK4": mk4}


TARGETS: dict[str, CircuitMatroid] = _build_targets()


def _target(name: str) -> CircuitMatroid:
    for key, value in TARGETS.items():
        if key.upper() == str(name).upper():
            return value
    raise UnknownName(f"unknown minor target {name!r}; choose from {sorted(TARGETS)}")


def _circuit_clutter(m: CircuitMatroid) -> Clutter:
    return Clutter(tuple(range(m.size)), m.circuits)


def circuits_isomorphic(m1: CircuitMatroid, m2: CircuitMatroid) -> Optional[dict[int, int]]:
    """Bijection of grounds carrying circuits onto circuits, or None.

    Clutter isomorphism of the two circuit families; grounds above 20
    elements raise TooLarge.
    """
    _require_type(m1, CircuitMatroid)
    _require_type(m2, CircuitMatroid)
    return is_isomorphic(_circuit_clutter(m1), _circuit_clutter(m2))


def has_minor(m: CircuitMatroid, target: str) -> Optional[tuple[frozenset[int], frozenset[int]]]:
    """Exhaustive search for a named minor (A3, U24, MK4e, MK4).

    Returns a (delete, contract) witness pair or None. A3 absence is decided
    by the shortcut that an A3 minor exists exactly when two distinct
    circuits intersect, so only the present case is searched. Raises
    TooLarge beyond ground size 16 and BudgetExceeded when the count of
    (delete, contract) splits overruns MINOR_BUDGET. The search is the clutter
    minor search on the circuits: a clutter minor deleting D and contracting
    T is a target only when no circuit lies inside T, and is then the
    circuit family of the matroid minor; every matroid minor has such a
    presentation with T independent.
    """
    _require_type(m, CircuitMatroid)
    t = _target(target)
    k = t.size
    n = m.size
    if n > MAX_GROUND:
        raise TooLarge(f"minor search ground size {n} exceeds {MAX_GROUND}")
    if k > n:
        return None
    if t is TARGETS["A3"] and intersecting_circuits(m) is None:
        return None
    free = n - k
    total = math.comb(n, free) * 2 ** free
    if total > MINOR_BUDGET:
        raise BudgetExceeded(f"minor search needs {total} candidates, budget is {MINOR_BUDGET}")
    hit = find_minor(_circuit_clutter(m), _circuit_clutter(t), budget=3 ** n)
    return None if hit is None else (hit[0].delete, hit[0].contract)


def intersecting_circuits(
    m: CircuitMatroid,
) -> Optional[tuple[frozenset[int], frozenset[int]]]:
    """First pair of distinct circuits with nonempty intersection, or None."""
    _require_type(m, CircuitMatroid)
    for a, b in itertools.combinations(m.circuits, 2):
        if a & b:
            return a, b
    return None
