"""Clutters over labeled ground sets.

A clutter is an antichain of subsets (members) of a finite ground set. The
central construction is mult(S): the ground set has one part per coordinate,
each part a disjoint copy of the allowed values there, and each point of S
contributes the member that picks its value in every part. Ground elements
are labels — (part, value) pairs for mult-derived clutters, opaque integers
or strings otherwise — and members are stored as bitmasks over the ground
order, which caps the ground at 64 elements.
"""
from __future__ import annotations

import functools
import itertools
from collections import Counter
from dataclasses import dataclass
from typing import Hashable, Iterable, Mapping, Optional, Sequence, Union

from .errors import (
    BadIndex,
    BudgetExceeded,
    DimensionMismatch,
    OverlapError,
    ParseError,
    PreconditionViolated,
    TooLarge,
    UnknownName,
    VerificationFailure,
    WrongType,
)
from .vspace import SetSystem, Subspace, restrict

Label = Hashable

MAX_GROUND_SIZE = 64
MAX_MULT_POINTS = 1 << 16
MAX_ISO_GROUND = 20
DEFAULT_FIND_MINOR_BUDGET = 3 ** 13
MAX_COPY_GROUND = 6  # copy tables for targets up to 6! = 720 relabellings


def _canonical_key(m: int) -> tuple[int, int]:
    return (m.bit_count(), m)


def _minimal_masks(masks: Iterable[int]) -> tuple[int, ...]:
    """Inclusion-minimal masks, deduplicated, sorted by (cardinality, value)."""
    uniq = sorted(set(masks), key=_canonical_key)
    out: list[int] = []
    for m in uniq:
        if not any(s & m == s for s in out):
            out.append(m)
    return tuple(out)


def _bits(mask: int) -> list[int]:
    out = []
    b = 0
    while mask:
        if mask & 1:
            out.append(b)
        mask >>= 1
        b += 1
    return out


@dataclass(frozen=True)
class Clutter:
    """An antichain of members over an ordered, labeled ground set.

    members may be given as iterables of labels or as ready bitmasks over
    the ground order; construction dedupes and keeps only inclusion-minimal
    members, so the stored family is always an antichain in canonical order
    (by cardinality, then mask value).
    """

    ground: tuple[Label, ...]
    members: tuple = ()

    def __post_init__(self) -> None:
        ground = tuple(self.ground)
        object.__setattr__(self, "ground", ground)
        if len(ground) > MAX_GROUND_SIZE:
            raise TooLarge(f"ground of {len(ground)} elements exceeds {MAX_GROUND_SIZE}")
        index = {e: i for i, e in enumerate(ground)}
        if len(index) != len(ground):
            raise PreconditionViolated("duplicate ground labels")
        masks = []
        for m in self.members:
            if isinstance(m, int):
                if m < 0 or m >= 1 << len(ground):
                    raise BadIndex(f"member mask {m} out of range")
                masks.append(m)
            else:
                mask = 0
                try:
                    for e in m:
                        if e not in index:
                            raise BadIndex(f"member label {e!r} not in ground")
                        mask |= 1 << index[e]
                except TypeError:
                    raise WrongType(
                        f"member {m!r} must be a mask or an iterable of hashable labels"
                    ) from None
                masks.append(mask)
        object.__setattr__(self, "members", _minimal_masks(masks))

    def index(self, label: Label) -> int:
        try:
            return self.ground.index(label)
        except ValueError:
            raise BadIndex(f"label {label!r} not in ground") from None

    def member_sets(self) -> tuple[frozenset[Label], ...]:
        return tuple(
            frozenset(self.ground[b] for b in _bits(m)) for m in self.members
        )

    def parts(self) -> Optional[dict[int, tuple[Label, ...]]]:
        """Group the ground by coordinate when labels are (part, value) pairs."""
        groups: dict[int, list[Label]] = {}
        for e in self.ground:
            if not (isinstance(e, tuple) and len(e) == 2 and isinstance(e[0], int)):
                return None
            groups.setdefault(e[0], []).append(e)
        return {p: tuple(v) for p, v in sorted(groups.items())}

    def is_multipartite(self) -> bool:
        """True when every member meets each part exactly once."""
        parts = self.parts()
        if parts is None:
            return False
        part_masks = []
        for labels in parts.values():
            mask = 0
            for e in labels:
                mask |= 1 << self.index(e)
            part_masks.append(mask)
        return all(
            (m & pm).bit_count() == 1 for m in self.members for pm in part_masks
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        mems = ", ".join(
            "{" + ",".join(str(self.ground[b]) for b in _bits(m)) + "}"
            for m in self.members
        )
        return f"Clutter(|V|={len(self.ground)}, members=[{mems}])"


@dataclass(frozen=True)
class MinorSpec:
    """Disjoint delete/contract label sets defining a clutter minor."""

    delete: frozenset = frozenset()
    contract: frozenset = frozenset()

    def __post_init__(self) -> None:
        try:
            object.__setattr__(self, "delete", frozenset(self.delete))
            object.__setattr__(self, "contract", frozenset(self.contract))
        except TypeError as exc:
            raise WrongType(f"delete and contract must be sets of labels: {exc}") from exc
        overlap = self.delete & self.contract
        if overlap:
            raise OverlapError(f"delete and contract overlap on {sorted(map(str, overlap))}")


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def mult(obj: Union[Subspace, SetSystem]) -> Clutter:
    """The multipartite clutter of a subspace or box-restricted point set.

    Ground: one part per coordinate, holding one labeled element (i, v) per
    allowed value v there. Members: one per point, choosing the point's value
    in every part.
    """
    if isinstance(obj, Subspace):
        coords = tuple(range(obj.n))
        values = [tuple(range(obj.q))] * obj.n
        points = obj.points(cap=MAX_MULT_POINTS)
    elif isinstance(obj, SetSystem):
        coords = obj.coords
        values = [tuple(sorted(box)) for box in obj.boxes]
        points = obj.points
        if len(points) > MAX_MULT_POINTS:
            raise TooLarge(f"{len(points)} points exceeds {MAX_MULT_POINTS}")
    else:
        raise WrongType(f"mult expects a Subspace or SetSystem, got {type(obj).__name__}")
    ground = [(c, v) for c, vals in zip(coords, values) for v in vals]
    if len(ground) > MAX_GROUND_SIZE:
        raise TooLarge(f"ground of {len(ground)} elements exceeds {MAX_GROUND_SIZE}")
    members = [
        frozenset((c, x[k]) for k, c in enumerate(coords)) for x in points
    ]
    out = Clutter(tuple(ground), tuple(members))
    if len(out.members) != len(points):
        raise VerificationFailure("points must biject with members")
    return out


def builtin(name: str) -> Clutter:
    """The fixed small clutters Delta3, Q6, C5sq on their standard labels."""
    table = {
        "delta3": ((1, 2, 3), ({1, 2}, {2, 3}, {3, 1})),
        "q6": ((1, 2, 3, 4, 5, 6), ({1, 3, 5}, {1, 4, 6}, {2, 3, 6}, {2, 4, 5})),
        "c5sq": ((1, 2, 3, 4, 5), ({1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 1})),
    }
    key = name.lower()
    if key not in table:
        raise UnknownName(f"unknown builtin {name!r}; choose from Delta3, Q6, C5sq")
    ground, members = table[key]
    return Clutter(ground, members)


# ---------------------------------------------------------------------------
# minors
# ---------------------------------------------------------------------------

def _delete_members(members: Sequence[int], i: int) -> tuple[int, ...]:
    """Members of the minor deleting element i, as masks with i's gap closed.

    Takes and gives an antichain in (cardinality, value) order. A subfamily
    of an antichain is an antichain, and closing the gap of a bit no kept
    member has preserves that order, so the kept masks need neither
    minimalizing nor sorting.
    """
    bit = 1 << i
    low = bit - 1
    return tuple([(m >> (i + 1) << i) | (m & low) for m in members if not m & bit])


def _contract_members(members: Sequence[int], i: int) -> tuple[int, ...]:
    """Members of the minor contracting element i, as masks with i's gap closed.

    Takes and gives an antichain in (cardinality, value) order. The members
    through i, less i, stay an antichain and contain no member avoiding i
    (the original would contain it), so only a member avoiding i can fall:
    exactly when it contains one of those reduced members. Each of the two
    groups is already in canonical order; one sort merges them.
    """
    bit = 1 << i
    low = bit - 1
    reduced = [m ^ bit for m in members if m & bit]
    kept = reduced[:]
    for m in members:
        if not m & bit:
            for r in reduced:
                if r & m == r:
                    break
            else:
                kept.append(m)
    out = [(m >> (i + 1) << i) | (m & low) for m in kept]
    if reduced and len(out) > len(reduced):
        out.sort(key=_canonical_key)
    return tuple(out)


def minor(c: Clutter, spec: MinorSpec) -> Clutter:
    """Delete I (drop members meeting it), contract J (remove it from members).

    The result lives on ground minus I and J and is minimalized, per the
    definition: minimal sets of {C - J : C a member, C disjoint from I}.
    Single-element deletions and contractions commute, so they are applied
    one element at a time, highest index first to keep lower indices valid.
    """
    ground_set = set(c.ground)
    for e in spec.delete | spec.contract:
        if e not in ground_set:
            raise BadIndex(f"label {e!r} not in ground")
    members = c.members
    for i in range(len(c.ground) - 1, -1, -1):
        e = c.ground[i]
        if e in spec.delete:
            members = _delete_members(members, i)
        elif e in spec.contract:
            members = _contract_members(members, i)
    removed = spec.delete | spec.contract
    keep = tuple(e for e in c.ground if e not in removed)
    return Clutter(keep, members)


def apply_chain(c: Clutter, specs: Iterable[MinorSpec]) -> Clutter:
    """Apply a sequence of minor specs in order."""
    for spec in specs:
        c = minor(c, spec)
    return c


def compose_chain(specs: Iterable[MinorSpec]) -> MinorSpec:
    """One spec with the minor of a chain: deletions and contractions commute."""
    delete: frozenset = frozenset()
    contract: frozenset = frozenset()
    for spec in specs:
        delete |= spec.delete
        contract |= spec.contract
    return MinorSpec(delete, contract)


def replay_minor(
    c: Clutter,
    spec: MinorSpec,
    target: Union[Clutter, str],
    mapping: Optional[Mapping] = None,
) -> dict:
    """Replay minor(c, spec) against the target; the target -> minor label map.

    The target is a clutter or the name of a builtin. A given mapping
    (target label -> label of c) must biject the target's ground onto the
    minor's and carry the target's members onto exactly the minor's members;
    without one, an isomorphism is searched for. Raises VerificationFailure
    when the minor is not the target.
    """
    name = target if isinstance(target, str) else "the target"
    if isinstance(target, str):
        target = builtin(target)
    got = minor(c, spec)
    if mapping is None:
        iso = is_isomorphic(got, target)
        if iso is None:
            raise VerificationFailure(f"replayed minor is not isomorphic to {name}: {got!r}")
        return {t: e for e, t in iso.items()}
    if (
        set(mapping) != set(target.ground)
        or set(mapping.values()) != set(got.ground)
        or len(got.ground) != len(target.ground)
    ):
        raise VerificationFailure(f"map onto {name} is not a bijection onto the replayed ground")
    want = {frozenset(mapping[x] for x in t) for t in target.member_sets()}
    if set(got.member_sets()) != want:
        raise VerificationFailure(f"map does not carry the members of {name} onto the minor's")
    return dict(mapping)


def product(c1: Clutter, c2: Clutter) -> Clutter:
    """All unions of one member from each factor, on the disjoint ground union.

    Colliding labels are relabeled: when both grounds are (part, value)
    pairs, the second factor's parts are shifted past the first's (so that
    mult factors compose into the mult of the product space); otherwise
    labels are wrapped as (0, label) and (1, label).
    """
    if set(c1.ground) & set(c2.ground):
        if c1.parts() is not None and c2.parts() is not None:
            shift = max(p for p, _ in c1.ground) + 1
            g2 = tuple((p + shift, v) for p, v in c2.ground)
        else:
            c1 = Clutter(tuple((0, e) for e in c1.ground), c1.members)
            g2 = tuple((1, e) for e in c2.ground)
    else:
        g2 = c2.ground
    n1 = len(c1.ground)
    if n1 + len(g2) > MAX_GROUND_SIZE:
        raise TooLarge("product ground exceeds the bitmask cap")
    members = tuple(m1 | (m2 << n1) for m1 in c1.members for m2 in c2.members)
    return Clutter(c1.ground + g2, members)


def localization(space: Subspace, v: Sequence[int]) -> Clutter:
    """Contract one element per part of mult(S): the value v picks in each.

    Equals {the empty member} exactly when v is a point of the space.
    """
    if len(v) != space.n:
        raise DimensionMismatch(f"point of length {len(v)}, expected {space.n}")
    for x in v:
        if not isinstance(x, int) or x < 0 or x >= space.q:
            raise BadIndex(f"entry {x!r} is not an element of GF({space.q})")
    spec = MinorSpec(contract=frozenset((i, x) for i, x in enumerate(v)))
    return minor(mult(space), spec)


def projection_minor_spec(space: Subspace, drop: Iterable[int]) -> MinorSpec:
    """The minor of mult(S) matching a coordinate projection: contract whole parts."""
    dropped = frozenset(drop)
    for j in dropped:
        if not isinstance(j, int) or j < 0 or j >= space.n:
            raise BadIndex(f"coordinate {j!r} outside 0..{space.n - 1}")
    return MinorSpec(
        contract=frozenset((j, v) for j in dropped for v in range(space.q))
    )


def restriction_minor_spec(space: Subspace, boxes: Sequence[Iterable[int]]) -> MinorSpec:
    """The minor of mult(S) matching a box restriction.

    Deletes the out-of-box elements of every part; contracts the surviving
    elements of the coordinates where all surviving points agree (the
    coordinates the restriction drops).
    """
    system = restrict(space, boxes)
    box_sets = [frozenset(b) for b in boxes]
    delete = frozenset(
        (i, v) for i in range(space.n) for v in range(space.q) if v not in box_sets[i]
    )
    contract = frozenset((j, u) for j, _ in system.dropped for u in box_sets[j])
    return MinorSpec(delete, contract)


# ---------------------------------------------------------------------------
# isomorphism
# ---------------------------------------------------------------------------

def _element_signatures(c: Clutter) -> list[tuple]:
    sigs = []
    for i in range(len(c.ground)):
        bit = 1 << i
        sizes = sorted(m.bit_count() for m in c.members if m & bit)
        sigs.append(tuple(sizes))
    return sigs


def is_isomorphic(c1: Clutter, c2: Clutter) -> Optional[dict]:
    """A ground bijection carrying members onto members, or None.

    Backtracking on element images with degree/member-size signatures as
    pruning; grounds capped at 20 elements.
    """
    n = len(c1.ground)
    if max(n, len(c2.ground)) > MAX_ISO_GROUND:
        raise TooLarge(f"isomorphism search capped at {MAX_ISO_GROUND} ground elements")
    if n != len(c2.ground) or len(c1.members) != len(c2.members):
        return None
    if sorted(m.bit_count() for m in c1.members) != sorted(
        m.bit_count() for m in c2.members
    ):
        return None
    sig1 = _element_signatures(c1)
    sig2 = _element_signatures(c2)
    if sorted(sig1) != sorted(sig2):
        return None
    by_sig: dict[tuple, list[int]] = {}
    for j, s in enumerate(sig2):
        by_sig.setdefault(s, []).append(j)
    # most-constrained first: rarest signature, then highest degree
    order = sorted(range(n), key=lambda i: (len(by_sig[sig1[i]]), -len(sig1[i])))
    target_members = set(c2.members)
    image = [-1] * n

    def compatible() -> bool:
        for m in c1.members:
            mapped = 0
            complete = True
            for b in _bits(m):
                if image[b] >= 0:
                    mapped |= 1 << image[b]
                else:
                    complete = False
            if complete:
                if mapped not in target_members:
                    return False
            else:
                if not any(mapped & t == mapped and t.bit_count() == m.bit_count()
                           for t in target_members):
                    return False
        return True

    used = [False] * n

    def bt(depth: int) -> bool:
        if depth == n:
            return True
        i = order[depth]
        for j in by_sig[sig1[i]]:
            if used[j]:
                continue
            image[i] = j
            used[j] = True
            if compatible() and bt(depth + 1):
                return True
            image[i] = -1
            used[j] = False
        return False

    if not bt(0):
        return None
    mapped_members = set()
    for m in c1.members:
        out = 0
        for b in _bits(m):
            out |= 1 << image[b]
        mapped_members.add(out)
    if mapped_members != target_members:
        return None
    return {c1.ground[i]: c2.ground[image[i]] for i in range(n)}


# ---------------------------------------------------------------------------
# minor search
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=64)
def _labelled_copies(k: int, members: tuple[int, ...]) -> tuple[frozenset[int], ...]:
    """Every distinct image of the member masks under a relabelling of k positions.

    The orbit of the member set under the symmetric group, reached by a
    breadth-first search over the adjacent transpositions that generate it,
    so each of the k!/|Aut| copies is built once: 1 for delta3, 30 for q6,
    12 for c5sq.
    """
    start = frozenset(members)
    out = [start]
    seen = {start}
    for copy in out:
        for i in range(k - 1):
            pair = 3 << i
            image = frozenset(
                m ^ pair if (m & pair).bit_count() == 1 else m for m in copy
            )
            if image not in seen:
                seen.add(image)
                out.append(image)
    return tuple(out)


def _footprint(
    chosen: Sequence[int], buckets: Mapping[int, Sequence[int]], pairs: list[tuple[int, int]]
) -> Optional[int]:
    """The first contracted set J under which the chosen patterns are the minor's members.

    J is a union of one footprint per chosen pattern, tried in product order.
    It works when every member whose footprint lies inside J, and so survives
    the deletion of everything outside the keep-set and J, contains a chosen
    pattern; None when no choice works.
    """
    for fps in itertools.product(*(buckets[p] for p in chosen)):
        jmask = 0
        for fp in fps:
            jmask |= fp
        for pat, fp in pairs:
            if fp & ~jmask:
                continue  # member still meets the deleted set; it dies
            if not any(t & ~pat == 0 for t in chosen):
                break
        else:
            return jmask
    return None


def _holds(
    copies: Iterable[frozenset[int]],
    combo: Sequence[int],
    buckets: Mapping[int, Sequence[int]],
    pairs: list[tuple[int, int]],
) -> bool:
    """Whether the keep-set (bits `combo`) holds the target, without labelling it.

    The patterns `_embed` can choose are exactly a labelled copy of the
    target, and its footprint test depends only on that set of patterns. So
    the keep-set holds the target when some copy, in keep-set-local bits, is
    among its patterns and passes `_footprint`.
    """
    local: dict[int, int] = {}
    for pat in buckets:
        loc = 0
        for j, b in enumerate(combo):
            if pat >> b & 1:
                loc |= 1 << j
        local[loc] = pat
    have = local.keys()
    return any(
        have >= copy and _footprint([local[p] for p in copy], buckets, pairs) is not None
        for copy in copies
    )


def _exhaustive_find_minor(c: Clutter, target: Clutter) -> Optional[tuple[MinorSpec, dict]]:
    """First embedding of the target over keep-sets K in combination order.

    Every member of a minor on K is a pattern m & K of some member m, and
    distinct target members need distinct patterns, so K is skipped when,
    for some size s, it has fewer distinct patterns of size s than the
    target has members of size s. Footprints m & ~K are grouped, and
    minimalized, only under patterns of a target-member size: `_embed`
    never matches any other. Buckets keep first-seen order, so the search
    explores, and returns, exactly what the unpruned one would.

    Decide, then label: for targets of at most MAX_COPY_GROUND elements,
    each K is first decided by `_holds` against the target's labelled
    copies, and `_embed` labels only the first K that holds it. `_holds` is
    true exactly when `_embed` finds a hit, so the search returns exactly
    what labelling every K would.
    """
    big_n = len(c.ground)
    k = len(target.ground)
    tmembers = sorted(target.member_sets(), key=lambda s: -len(s))
    want = Counter(len(t) for t in tmembers)
    copies = _labelled_copies(k, target.members) if k <= MAX_COPY_GROUND else None
    full = (1 << big_n) - 1
    for combo in itertools.combinations(range(big_n), k):
        kmask = 0
        for b in combo:
            kmask |= 1 << b
        pairs = [(m & kmask, m & ~kmask) for m in c.members]
        grouped: dict[int, list[int]] = {}
        have = dict.fromkeys(want, 0)
        for pat, fp in pairs:
            size = pat.bit_count()
            if size in have:
                if pat in grouped:
                    grouped[pat].append(fp)
                else:
                    grouped[pat] = [fp]
                    have[size] += 1
        if any(have[size] < count for size, count in want.items()):
            continue
        buckets = {pat: _minimal_masks(fps) for pat, fps in grouped.items()}
        if copies is not None and not _holds(copies, combo, buckets, pairs):
            continue
        found = _embed(c, target, kmask, pairs, buckets, tmembers, full)
        if found is not None:
            return found
    return None


def _embed(
    c: Clutter,
    target: Clutter,
    kmask: int,
    pairs: list[tuple[int, int]],
    buckets: dict[int, tuple[int, ...]],
    tmembers: list[frozenset],
    full: int,
) -> Optional[tuple[MinorSpec, dict]]:
    """Match target members to patterns inside the keep-set, then pick footprints."""
    phi: dict = {}
    used_mask = 0
    chosen: list[int] = []
    by_size: dict[int, list[int]] = {}
    for pat in buckets:
        by_size.setdefault(pat.bit_count(), []).append(pat)

    def leaf() -> Optional[tuple[MinorSpec, dict]]:
        jmask = _footprint(chosen, buckets, pairs)
        if jmask is None:
            return None
        imask = full & ~kmask & ~jmask
        spec = MinorSpec(
            frozenset(c.ground[b] for b in _bits(imask)),
            frozenset(c.ground[b] for b in _bits(jmask)),
        )
        # complete phi on target labels outside every member
        free_bits = [b for b in _bits(kmask & ~used_mask)]
        rest = [x for x in target.ground if x not in phi]
        mapping = dict(phi)
        for x, b in zip(rest, free_bits):
            mapping[x] = b
        label_map = {x: c.ground[b] for x, b in mapping.items()}
        return spec, replay_minor(c, spec, target, label_map)

    def bt(i: int) -> Optional[tuple[MinorSpec, dict]]:
        nonlocal used_mask
        if i == len(tmembers):
            return leaf()
        t = tmembers[i]
        assigned_bits = 0
        free_labels = []
        for x in t:
            if x in phi:
                assigned_bits |= 1 << phi[x]
            else:
                free_labels.append(x)
        for pat in by_size.get(len(t), ()):
            if assigned_bits & ~pat:
                continue
            if pat & used_mask & ~assigned_bits:
                continue
            open_bits = _bits(pat & ~assigned_bits)
            for perm in itertools.permutations(open_bits):
                for x, b in zip(free_labels, perm):
                    phi[x] = b
                used_mask |= pat
                chosen.append(pat)
                result = bt(i + 1)
                if result is not None:
                    return result
                chosen.pop()
                used_mask &= ~(pat & ~assigned_bits)
                for x in free_labels:
                    del phi[x]
        return None

    return bt(0)


def _guided_find_minor(
    c: Clutter, target: Clutter, limit: int
) -> Optional[tuple[MinorSpec, dict]]:
    parts = c.parts()
    if parts is not None and 3 ** (len(c.ground) - len(parts)) <= limit:
        for transversal in itertools.product(*parts.values()):
            j = frozenset(transversal)
            local = minor(c, MinorSpec(contract=j))
            found = _exhaustive_find_minor(local, target)
            if found is not None:
                spec2, mapping = found
                spec = MinorSpec(spec2.delete, j | spec2.contract)
                return spec, replay_minor(c, spec, target, mapping)
    raise BudgetExceeded(
        f"exhaustive minor search on {len(c.ground)} ground elements exceeds the "
        f"budget; localization-guided search found nothing (absence not certified)"
    )


def find_minor(
    c: Clutter, target: Clutter, budget: Optional[int] = None
) -> Optional[tuple[MinorSpec, dict]]:
    """Search for the target as a minor: (delete/contract spec, label bijection).

    Within budget (default ground size 13, measured as 3^|ground|) the search
    is exhaustive, so None certifies absence. Beyond it, a localization-guided
    search contracts one element per part first and raises BudgetExceeded if
    that fails — absence is then not certified. Either way, for targets of at
    most MAX_COPY_GROUND elements, each keep-set is decided against the
    target's labelled copies before any label map is tried, and only the
    first keep-set that holds the target is labelled.
    """
    k = len(target.ground)
    if k > len(c.ground):
        return None
    limit = DEFAULT_FIND_MINOR_BUDGET if budget is None else budget
    if 3 ** len(c.ground) > limit:
        return _guided_find_minor(c, target, limit)
    return _exhaustive_find_minor(c, target)


# ---------------------------------------------------------------------------
# incidence and text formats
# ---------------------------------------------------------------------------

def incidence_matrix(c: Clutter) -> list[list[int]]:
    """0/1 rows, one per member, columns in ground order."""
    return [[1 if m >> i & 1 else 0 for i in range(len(c.ground))] for m in c.members]


def _label_str(e: Label) -> str:
    if isinstance(e, tuple) and len(e) == 2:
        return f"{e[0]}:{e[1]}"
    return str(e)


def _parse_label(token: str) -> Label:
    if ":" in token:
        left, _, right = token.partition(":")
        try:
            return (int(left), int(right))
        except ValueError:
            return token
    try:
        return int(token)
    except ValueError:
        return token


def format_clutter(c: Clutter) -> str:
    """Text form: `elements: ...` header, then one member per line."""
    lines = ["elements: " + " ".join(_label_str(e) for e in c.ground)]
    for m in c.members:
        lines.append(" ".join(_label_str(c.ground[b]) for b in _bits(m)))
    return "\n".join(lines) + "\n"


def parse_clutter(text: str) -> Clutter:
    """Parse the clutter text format produced by format_clutter."""
    lines = text.splitlines()
    if not lines or not lines[0].startswith("elements:"):
        raise ParseError("clutter text must start with an 'elements:' header")
    ground = tuple(_parse_label(tok) for tok in lines[0][len("elements:"):].split())
    members = []
    for ln in lines[1:]:
        members.append(frozenset(_parse_label(tok) for tok in ln.split()))
    try:
        return Clutter(ground, tuple(members))
    except BadIndex as exc:
        raise ParseError(str(exc)) from exc


def format_minor_certificate(spec: MinorSpec, mapping: Mapping) -> str:
    """One-line certificate: delete set, contract set, and the label bijection."""
    i_part = ",".join(sorted(_label_str(e) for e in spec.delete))
    j_part = ",".join(sorted(_label_str(e) for e in spec.contract))
    map_part = " ".join(
        f"{_label_str(k)}→{_label_str(v)}"
        for k, v in sorted(mapping.items(), key=lambda kv: _label_str(kv[0]))
    )
    return f"I={{{i_part}}} J={{{j_part}}} map: {map_part}"


def parse_minor_certificate(text: str) -> tuple[MinorSpec, dict]:
    """Parse a certificate produced by format_minor_certificate."""
    try:
        before, _, map_part = text.partition("map:")
        i_str = before[before.index("I={") + 3 : before.index("}", before.index("I={"))]
        j_start = before.index("J={") + 3
        j_str = before[j_start : before.index("}", j_start)]
        delete = frozenset(_parse_label(t) for t in i_str.split(",") if t)
        contract = frozenset(_parse_label(t) for t in j_str.split(",") if t)
        mapping = {}
        for pair in map_part.split():
            left, _, right = pair.replace("->", "→").partition("→")
            mapping[_parse_label(left)] = _parse_label(right)
        return MinorSpec(delete, contract), mapping
    except (ValueError, IndexError) as exc:
        raise ParseError(f"bad minor certificate: {exc}") from exc
