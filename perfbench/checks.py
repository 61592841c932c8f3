"""Independent checkers for the outputs the benchmark collects.

Standard library only, and no import of ``clutterforge``: every check here is
computed from definitions, by brute force, by replay, or from a property a
statement guarantees. The only thing taken from the program is the addition
and multiplication tables of each field, and those are checked against the
field axioms before use.

Run ``python3 perfbench/checks.py counts 8 7`` to print the multigraph counts
(connected, loops and parallel edges allowed, up to isomorphism) that the
multigraph check compares against; the free-tree counts of OEIS A000055 are
the n-1 edge column.
"""
from __future__ import annotations

import itertools
import json
import math
import re
import sys
from fractions import Fraction

# OEIS A000055, free trees on n = 1..8 vertices. Recomputed by
# multigraph_counts (the e = n-1 column) on every check.
FREE_TREES = (1, 1, 1, 2, 3, 6, 11, 23)

# The three forbidden minors on their standard labels: the triangle clutter,
# the triangles of K4 (edges labelled so that {1,2}, {3,4}, {5,6} are the
# perfect matchings) and the odd hole on five elements.
TARGETS = {
    "delta3": ({1, 2, 3}, [{1, 2}, {2, 3}, {1, 3}]),
    "q6": ({1, 2, 3, 4, 5, 6}, [{1, 3, 5}, {1, 4, 6}, {2, 3, 6}, {2, 4, 5}]),
    "c5sq": ({1, 2, 3, 4, 5}, [{1, 2}, {2, 3}, {3, 4}, {4, 5}, {1, 5}]),
}

# The forbidden minors each statement searches for (statements 1.1-1.4).
STATEMENT_TARGETS = {"1.1": ("delta3",), "1.2": ("delta3",), "1.3": ("c5sq",), "1.4": ("delta3", "q6")}


class CheckFailure(Exception):
    """An output disagrees with its independent check."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailure(message)


# ---------------------------------------------------------------------------
# fields and subspaces
# ---------------------------------------------------------------------------

class Field:
    """GF(q) from given tables, accepted only if they satisfy the field axioms."""

    def __init__(self, q: int, add, mul):
        self.q = q
        self.add = [list(row) for row in add]
        self.mul = [list(row) for row in mul]
        els = range(q)
        require(len(self.add) == q and all(len(r) == q for r in self.add), f"GF({q}) add table shape")
        require(len(self.mul) == q and all(len(r) == q for r in self.mul), f"GF({q}) mul table shape")
        a, m = self.add, self.mul
        for x in els:
            require(a[0][x] == x and m[1][x] == x and m[0][x] == 0, f"GF({q}) identities fail at {x}")
            require(sorted(a[x]) == list(els), f"GF({q}) additive row {x} is not a permutation")
            if x:
                require(sorted(m[x][1:]) == list(range(1, q)), f"GF({q}) {x} is not invertible")
            for y in els:
                require(a[x][y] == a[y][x] and m[x][y] == m[y][x], f"GF({q}) not commutative")
                for z in els:
                    require(a[a[x][y]][z] == a[x][a[y][z]], f"GF({q}) + not associative")
                    require(m[m[x][y]][z] == m[x][m[y][z]], f"GF({q}) * not associative")
                    require(m[x][a[y][z]] == a[m[x][y]][m[x][z]], f"GF({q}) not distributive")


def gaussian_binomial(n: int, r: int, q: int) -> int:
    """Number of r-dimensional subspaces of GF(q)^n, by the q-binomial product."""
    num = den = 1
    for i in range(r):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


_INSTANCE = re.compile(r"GF\((\d+)\)\^(\d+) dim=(\d+) \[(.*)\]$")


def parse_instance(text: str) -> tuple[int, int, list[tuple[int, ...]]]:
    """(q, n, basis rows) from an instance id such as ``GF(4)^3 dim=2 [1,0,1;0,1,1]``."""
    match = _INSTANCE.match(text)
    require(match is not None, f"unparsable instance {text!r}")
    q, n, dim = int(match[1]), int(match[2]), int(match[3])
    rows = [tuple(int(v) for v in r.split(",")) for r in match[4].split(";") if r]
    require(len(rows) == dim and all(len(r) == n for r in rows), f"instance {text!r} has a bad shape")
    return q, n, rows


def points(field: Field, n: int, rows) -> frozenset:
    """Every linear combination of the rows; the rows must be independent."""
    out = set()
    for coeffs in itertools.product(range(field.q), repeat=len(rows)):
        x = [0] * n
        for c, row in zip(coeffs, rows):
            for j in range(n):
                x[j] = field.add[x[j]][field.mul[c][row[j]]]
        out.add(tuple(x))
    require(len(out) == field.q ** len(rows), f"rows {rows} are dependent")
    return frozenset(out)


def support(x) -> frozenset:
    return frozenset(i for i, v in enumerate(x) if v)


def has_disjoint_support_basis(pts: frozenset, dim: int) -> bool:
    """Whether dim nonzero points with pairwise disjoint supports exist.

    Such points are independent, so they form a basis exactly when there
    are dim of them.
    """
    supports = sorted({support(x) for x in pts if any(x)}, key=sorted)

    def pick(start: int, used: frozenset, need: int) -> bool:
        if need == 0:
            return True
        return any(
            not (supports[k] & used) and pick(k + 1, used | supports[k], need - 1)
            for k in range(start, len(supports))
        )

    return pick(0, frozenset(), dim)


def check_disjoint_basis(pts: frozenset, dim: int, basis) -> None:
    basis = [tuple(v) for v in basis]
    require(len(basis) == dim, f"disjoint-support basis has {len(basis)} rows, want {dim}")
    for k, x in enumerate(basis):
        require(x in pts and any(x), f"basis row {x} is zero or not in the space")
        for y in basis[k + 1:]:
            require(not (support(x) & support(y)), f"basis rows {x}, {y} share support")


# ---------------------------------------------------------------------------
# clutters: mult, minors, extreme points, covering and packing
# ---------------------------------------------------------------------------

def mult(q: int, n: int, pts: frozenset) -> tuple[list, list]:
    """Ground (coordinate, value) pairs in coordinate-then-value order, and members."""
    ground = [(i, v) for i in range(n) for v in range(q)]
    members = [frozenset((i, x[i]) for i in range(n)) for x in pts]
    return ground, members


def parse_label(token):
    """A ground label from ``(0, 1)``, ``0:1``, ``[0, 1]`` or ``3``."""
    if isinstance(token, int):
        return token
    if isinstance(token, (list, tuple)):
        require(len(token) == 2 and all(isinstance(v, int) for v in token), f"bad pair label {token!r}")
        return tuple(token)
    token = str(token).strip()
    nums = re.findall(r"-?\d+", token)
    if ":" in token or token.startswith("("):
        require(len(nums) == 2, f"bad pair label {token!r}")
        return (int(nums[0]), int(nums[1]))
    require(len(nums) == 1, f"bad label {token!r}")
    return int(nums[0])


def minimal(sets) -> set:
    sets = set(sets)
    return {s for s in sets if not any(o < s for o in sets)}


def replay_minor(ground, members, delete, contract) -> tuple[set, set]:
    """C minus I contract J by the definition: minimal sets of A - J, A disjoint from I."""
    delete, contract = frozenset(delete), frozenset(contract)
    require(not (delete & contract), "delete and contract overlap")
    require(delete | contract <= set(ground), "minor spec names labels outside the ground")
    kept = [m - contract for m in members if not (m & delete)]
    return set(ground) - delete - contract, minimal(kept)


def check_minor(ground, members, target: str, delete, contract, mapping) -> None:
    """The replayed minor equals the named target under the stated label map.

    Search certificates map target labels to ground labels; witness
    certificates map the other way, so a map onto the target's labels is
    inverted first.
    """
    require(target in TARGETS, f"unknown target {target!r}")
    t_ground, t_members = TARGETS[target]
    new_ground, new_members = replay_minor(ground, members, delete, contract)
    if set(mapping) != t_ground and set(mapping.values()) == t_ground:
        mapping = {v: k for k, v in mapping.items()}
    require(set(mapping) == t_ground, f"{target} map covers {sorted(map(str, mapping))}")
    image = set(mapping.values())
    require(len(image) == len(mapping) and image == new_ground, f"{target} map is not onto the minor's ground")
    want = {frozenset(mapping[x] for x in t) for t in t_members}
    require(want == new_members, f"replayed minor is not {target} under the stated map")


def parse_cert_line(line: str) -> tuple[set, set, dict]:
    """(delete, contract, target->ground map) from ``I={..} J={..} map: 1→0:0 ...``."""
    match = re.search(r"I=\{([^}]*)\}\s*J=\{([^}]*)\}\s*map:(.*)$", line)
    require(match is not None, f"unparsable minor certificate {line!r}")
    delete = {parse_label(t) for t in match[1].split(",") if t}
    contract = {parse_label(t) for t in match[2].split(",") if t}
    mapping = {}
    for pair in match[3].split():
        left, _, right = pair.replace("->", "→").partition("→")
        mapping[parse_label(left)] = parse_label(right)
    return delete, contract, mapping


def rank(rows: list[list[Fraction]]) -> int:
    """Rank by exact Gaussian elimination."""
    mat = [list(r) for r in rows]
    r = 0
    ncols = len(mat[0]) if mat else 0
    for col in range(ncols):
        piv = next((k for k in range(r, len(mat)) if mat[k][col] != 0), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        for k in range(len(mat)):
            if k != r and mat[k][col] != 0:
                f = mat[k][col] / mat[r][col]
                mat[k] = [a - f * b for a, b in zip(mat[k], mat[r])]
        r += 1
    return r


def check_fractional_point(ground, members, x) -> None:
    """x is a fractional extreme point of {x >= 0 : x(A) >= 1 for every member A}."""
    x = [Fraction(v) for v in x]
    require(len(x) == len(ground), "fractional point has the wrong length")
    require(all(v >= 0 for v in x), "fractional point has a negative coordinate")
    require(any(v.denominator != 1 for v in x), "claimed fractional point is integral")
    pos = {e: k for k, e in enumerate(ground)}
    rows = []
    for m in members:
        total = sum(x[pos[e]] for e in m)
        require(total >= 1, f"fractional point violates member {sorted(m)}")
        if total == 1:
            rows.append([Fraction(1 if e in m else 0) for e in ground])
    for k, v in enumerate(x):
        if v == 0:
            rows.append([Fraction(1 if j == k else 0) for j in range(len(ground))])
    require(rank(rows) == len(ground), "tight constraints do not pin the fractional point")


def tau(ground, members, w) -> float:
    """Minimum weight of a set meeting every member, by trying every subset."""
    idx = {e: k for k, e in enumerate(ground)}
    masks = [sum(1 << idx[e] for e in m) for m in members]
    best = math.inf
    for cover in range(1 << len(ground)):
        if all(m & cover for m in masks):
            best = min(best, sum(w[k] for k in range(len(ground)) if cover >> k & 1))
    return best


def nu(ground, members, w) -> float:
    """Maximum number of members, with repetition, using each element e at most w[e] times."""
    if any(not m for m in members):
        return math.inf
    idx = {e: k for k, e in enumerate(ground)}
    mems = [[idx[e] for e in m] for m in members]
    best = 0

    def grow(i: int, cap: list, total: int) -> None:
        nonlocal best
        best = max(best, total)
        if i == len(mems) or total + sum(cap) // min(len(m) for m in mems) <= best:
            return
        most = min(cap[e] for e in mems[i])
        for k in range(most, -1, -1):
            for e in mems[i]:
                cap[e] -= k
            grow(i + 1, cap, total + k)
            for e in mems[i]:
                cap[e] += k

    grow(0, list(w), 0)
    return best


def _as_number(v) -> float:
    return math.inf if v in ("inf", "Infinity", math.inf) else v


def check_refutation(ground, members, cert) -> None:
    """A covering-versus-packing refutation: a non-packing minor or a weight vector."""
    require(isinstance(cert, (list, tuple)) and len(cert) == 3, f"bad refutation {cert!r}")
    how, t_claim, v_claim = cert[0], _as_number(cert[1]), _as_number(cert[2])
    if isinstance(how, dict):
        g, ms = replay_minor(
            ground, members,
            {parse_label(e) for e in how["delete"]},
            {parse_label(e) for e in how["contract"]},
        )
        g = sorted(g)
        w = [1] * len(g)
    else:
        g, ms, w = ground, members, list(how)
        require(len(w) == len(g), "refuting weight vector has the wrong length")
    t, v = tau(g, ms, w), nu(g, ms, w)
    require((t, v) == (t_claim, v_claim), f"recomputed tau, nu = {t}, {v}; claimed {t_claim}, {v_claim}")
    require(t != v, "refutation has covering number equal to packing number")


# ---------------------------------------------------------------------------
# statement reports (library sweeps and the CLI sweep share this form)
# ---------------------------------------------------------------------------

def check_report(rep: dict, fields: dict, theorem: str) -> None:
    """One report as produced by TheoremReport.to_dict()."""
    q, n, rows = parse_instance(rep["instance"])
    pts = points(fields[q], n, rows)
    ground, members = mult(q, n, pts)
    name = rep["instance"]
    require(rep["theorem"] == theorem, f"{name}: statement {rep['theorem']}, want {theorem}")
    verdicts = (rep["i"], rep["ii"], rep["iii"])
    require(None not in verdicts and not rep["unknown"], f"{name}: undecided {rep['unknown']}")
    require(len(set(verdicts)) == 1 and rep["agreement"], f"{name}: conditions disagree {verdicts}")
    ds = has_disjoint_support_basis(pts, len(rows))
    certs = rep["certificates"]
    if theorem != "1.2":
        require(rep["ii"] == ds, f"{name}: disjoint-support basis {rep['ii']}, brute force {ds}")
        if ds:
            check_disjoint_basis(pts, len(rows), certs["ii"])
    if theorem == "1.1" or theorem == "1.4":
        require(rep["i"] == ds, f"{name}: condition (i) {rep['i']} but the basis test gives {ds}")
    cert_i = certs.get("i")
    if theorem == "1.4":
        if rep["i"] is False:
            check_refutation(ground, members, cert_i)
    elif cert_i is not None:
        require(cert_i["integral"] == rep["i"], f"{name}: certificate contradicts verdict (i)")
        if not cert_i["integral"]:
            check_fractional_point(ground, members, cert_i["fractional_point"])
    if rep["iii"] is False:
        target, spec, mapping = certs["iii"]
        require(target in STATEMENT_TARGETS[theorem], f"{name}: {target} is not searched by {theorem}")
        check_minor(
            ground, members, target,
            {parse_label(e) for e in spec["delete"]},
            {parse_label(e) for e in spec["contract"]},
            {parse_label(k): parse_label(v) for k, v in mapping.items()},
        )


def check_sweep(reports: list, fields: dict, q: int, n: int, theorem: str) -> None:
    """Every subspace of GF(q)^n once, each report decided, agreeing and certified."""
    total = sum(gaussian_binomial(n, r, q) for r in range(n + 1))
    require(len(reports) == total, f"GF({q})^{n}: {len(reports)} reports, want {total}")
    seen = set()
    for rep in reports:
        rq, rn, rows = parse_instance(rep["instance"])
        require((rq, rn) == (q, n), f"report {rep['instance']} is outside GF({q})^{n}")
        seen.add(points(fields[q], n, rows))
        check_report(rep, fields, theorem)
    require(len(seen) == total, f"GF({q})^{n}: only {len(seen)} distinct subspaces")


# ---------------------------------------------------------------------------
# CLI outputs
# ---------------------------------------------------------------------------

def check_analyze(out: dict, fields: dict, q: int, n: int, rows) -> None:
    """``analyze --json``: every section certified, and the sections consistent."""
    pts = points(fields[q], n, rows)
    rq, rn, rrows = parse_instance(out["instance"])
    require((rq, rn) == (q, n) and points(fields[q], n, rrows) == pts, "analyze read another instance")
    ground, members = mult(q, n, pts)
    dim = len(rows)
    ds = has_disjoint_support_basis(pts, dim)
    ideal = out["ideal"]["verdict"]
    mfmc = out["mfmc"]["verdict"]
    require(ideal is not None and mfmc is not None, "analyze left a verdict unknown")
    cert = out["ideal"]["certificate"]
    require(cert["integral"] == ideal, "ideal certificate contradicts its verdict")
    if not ideal:
        check_fractional_point(ground, members, cert["fractional_point"])
    present = {}
    for name in ("delta3", "q6", "c5sq"):
        entry = out["minors"][name]
        require(entry is not None, f"minor search for {name} left unknown")
        present[name] = entry["present"]
        if entry["present"]:
            check_minor(ground, members, name, *parse_cert_line(entry["certificate"]))
    # statement 1.4 holds for every q: covering = packing at all weights iff a
    # disjoint-support basis exists iff neither delta3 nor q6 is a minor
    require(mfmc == ds, f"mfmc verdict {mfmc}, brute-force disjoint-support basis {ds}")
    require(mfmc == (not present["delta3"] and not present["q6"]), "mfmc verdict contradicts the minors found")
    if not mfmc:
        check_refutation(ground, members, out["mfmc"]["certificate"])
    if ideal:  # minors of an ideal clutter are ideal; delta3 and c5sq are not
        require(not present["delta3"] and not present["c5sq"], "ideal clutter with a non-ideal minor")
    if q % 2:  # statement 1.1
        require(ideal == ds == (not present["delta3"]), "statement 1.1 fails on this instance")
    basis = out["structure"]["disjoint_basis"]
    require((basis is not None) == ds, "structure section disagrees with the brute-force basis test")
    if basis is not None:
        check_disjoint_basis(pts, dim, basis)
    coords = sorted(c for f in out["structure"]["factors"] for c in f["coords"])
    require(coords == list(range(n)), "factors do not partition the coordinates")


def check_certificate_file(text: str, fields: dict, q: int, n: int, rows) -> str:
    """Replay a witness certificate file; returns its ``I=`` line."""
    target = cert_line = None
    for line in text.splitlines():
        if line.startswith("target:"):
            target = line.split(":", 1)[1].strip()
        elif line.startswith("I="):
            cert_line = line.strip()
    require(target is not None and cert_line is not None, "certificate file lacks target or I= line")
    ground, members = mult(q, n, points(fields[q], n, rows))
    check_minor(ground, members, target, *parse_cert_line(cert_line))
    return cert_line


def check_localize(out: dict, fields: dict, q: int, n: int, rows, alpha) -> None:
    """``localize --json``: the profile partitions the localization's members."""
    pts = points(fields[q], n, rows)
    require(tuple(alpha) not in pts and list(out["alpha"]) == list(alpha), "localized at the wrong point")
    ground, members = mult(q, n, pts)
    contract = {(i, a) for i, a in enumerate(alpha)}
    _, local = replay_minor(ground, members, set(), contract)
    prof = out["profile"]
    require(prof is not None, "no closed-form profile for a zero-sum hyperplane over GF(2^k)")
    ones = {frozenset([tuple(e)]) for e in prof["size_one"]}
    twos = {frozenset(parse_label(e) for e in edge) for c in prof["components"] for edge in c["edges"]}
    rest = {frozenset(parse_label(e) for e in m) for m in prof["residual"]}
    require(ones == {m for m in local if len(m) == 1}, "size-1 members differ from the localization")
    require(twos == {m for m in local if len(m) == 2}, "size-2 members differ from the localization")
    require(rest == {m for m in local if len(m) >= 3}, "larger members differ from the localization")


def check_matroid(out: dict, fields: dict, q: int, n: int, rows) -> None:
    """``matroid --json``: circuits are the minimal supports; rank is n - dim."""
    pts = points(fields[q], n, rows)
    circuits = minimal(support(x) for x in pts if any(x))
    require({frozenset(c) for c in out["circuits"]} == circuits, "circuits are not the minimal supports")
    require(out["size"] == n and out["rank"] == n - len(rows), "matroid size or rank is wrong")
    indep = [s for k in range(n + 1) for s in itertools.combinations(range(n), k)
             if not any(c <= set(s) for c in circuits)]
    require(max(len(s) for s in indep) == out["rank"], "rank disagrees with the circuits")


def check_cli_sweep(out: dict, fields: dict, q: int, n: int, theorem: str) -> None:
    require(out["total"] == len(out["reports"]), "sweep total disagrees with its reports")
    require(out["disagreements"] == 0 and out["unknown_verdicts"] == 0, "sweep reports disagreement")
    check_sweep(out["reports"], fields, q, n, theorem)


# ---------------------------------------------------------------------------
# multigraphs
# ---------------------------------------------------------------------------

def _slots(n: int) -> list:
    return [(u, v) for u in range(n) for v in range(u, n)]


def multigraph_counts(max_n: int, max_e: int) -> dict:
    """Connected multigraphs (loops allowed) up to isomorphism, by (vertices, edges).

    Burnside over every vertex permutation counts all multigraphs; the
    inverse Euler transform keeps the connected ones.
    """
    grid = [[Fraction(0)] * (max_e + 1) for _ in range(max_n + 1)]
    for n in range(1, max_n + 1):
        acc = [0] * (max_e + 1)
        slots = _slots(n)
        for perm in itertools.permutations(range(n)):
            poly = [1] + [0] * max_e
            seen = set()
            for s in slots:
                length, t = 0, s
                while t not in seen:
                    seen.add(t)
                    length += 1
                    a, b = perm[t[0]], perm[t[1]]
                    t = (a, b) if a <= b else (b, a)
                if length:
                    for e in range(length, max_e + 1):
                        poly[e] += poly[e - length]
            acc = [a + p for a, p in zip(acc, poly)]
        fact = math.factorial(n)
        require(all(a % fact == 0 for a in acc), "Burnside sum is not divisible by n!")
        grid[n] = [Fraction(a // fact) for a in acc]

    def times(a, b):
        out = [[Fraction(0)] * (max_e + 1) for _ in range(max_n + 1)]
        for i in range(max_n + 1):
            for j in range(max_e + 1):
                if a[i][j]:
                    for k in range(max_n + 1 - i):
                        for m in range(max_e + 1 - j):
                            out[i + k][j + m] += a[i][j] * b[k][m]
        return out

    log = [[Fraction(0)] * (max_e + 1) for _ in range(max_n + 1)]
    power = grid
    for j in range(1, max_n + 1):  # log(1 + H) with H = grid; H^j starts at x^j
        sign = Fraction((-1) ** (j + 1), j)
        for i in range(max_n + 1):
            for e in range(max_e + 1):
                log[i][e] += sign * power[i][e]
        power = times(power, grid)

    def mobius(k: int) -> int:
        out, m, p = 1, k, 2
        while p * p <= m:
            if m % p == 0:
                m //= p
                if m % p == 0:
                    return 0
                out = -out
            p += 1
        return -out if m > 1 else out

    counts = {}
    for n in range(1, max_n + 1):
        for e in range(max_e + 1):
            c = sum(Fraction(mobius(k), k) * log[n // k][e // k]
                    for k in range(1, n + 1) if n % k == 0 and e % k == 0)
            require(c.denominator == 1, "connected count is not an integer")
            counts[(n, e)] = int(c)
    return counts


def is_connected(n: int, edges) -> bool:
    reach, frontier = {0}, [0]
    while frontier:
        u = frontier.pop()
        for a, b in edges:
            for x, y in ((a, b), (b, a)):
                if x == u and y not in reach:
                    reach.add(y)
                    frontier.append(y)
    return len(reach) == n


def _vertex_invariants(n: int, edges) -> list:
    loops = [0] * n
    mult_of: dict = {}
    for u, v in edges:
        if u == v:
            loops[u] += 1
        else:
            mult_of[(u, v)] = mult_of.get((u, v), 0) + 1
    inc = [[] for _ in range(n)]
    for (u, v), k in mult_of.items():
        inc[u].append(k)
        inc[v].append(k)
    return [(loops[v], sum(inc[v]), tuple(sorted(inc[v]))) for v in range(n)]


def canonical(n: int, edges) -> tuple:
    """Least sorted edge list over all relabelings that order vertices by invariant."""
    inv = _vertex_invariants(n, edges)
    classes: dict = {}
    for v in range(n):
        classes.setdefault(inv[v], []).append(v)
    ordered = [classes[k] for k in sorted(classes)]
    best = None
    for parts in itertools.product(*(itertools.permutations(c) for c in ordered)):
        label = {v: k for k, v in enumerate(itertools.chain.from_iterable(parts))}
        cand = tuple(sorted(tuple(sorted((label[u], label[v]))) for u, v in edges))
        if best is None or cand < best:
            best = cand
    return (n, tuple(sorted(inv)), best)


def k4e_free_by_blocks(n: int, edges) -> bool:
    """No K4/e minor iff every block is a bridge, a circuit or a subdivided bundle of t >= 3 paths.

    Blocks come from brute force: edges on a common cycle share a block.
    """
    m = len(edges)
    parent = list(range(m))

    def find(x: int) -> int:
        while parent[x] != x:
            x = parent[x]
        return x

    for mask in range(1, 1 << m):
        chosen = [k for k in range(m) if mask >> k & 1]
        deg: dict = {}
        for k in chosen:
            u, v = edges[k]
            deg[u] = deg.get(u, 0) + 1
            deg[v] = deg.get(v, 0) + 1
        if any(d != 2 for d in deg.values()):
            continue
        sub = [edges[k] for k in chosen]
        verts = sorted(deg)
        relabel = {v: i for i, v in enumerate(verts)}
        if not is_connected(len(verts), [(relabel[u], relabel[v]) for u, v in sub]):
            continue
        for k in chosen[1:]:
            parent[find(k)] = find(chosen[0])
    blocks: dict = {}
    for k in range(m):
        blocks.setdefault(find(k), []).append(edges[k])
    for block in blocks.values():
        deg = {}
        for u, v in block:
            deg[u] = deg.get(u, 0) + 1
            deg[v] = deg.get(v, 0) + 1
        if len(block) == 1 or all(d == 2 for d in deg.values()):
            continue  # bridge, loop or circuit
        hubs = [v for v, d in deg.items() if d != 2]
        if len(hubs) == 2 and deg[hubs[0]] == deg[hubs[1]] >= 3:
            continue
        return False
    return True


def check_multigraphs(graphs, has_minor, max_n: int, max_e: int) -> None:
    """The enumeration is exactly the connected multigraphs within the bounds, once each,
    and the K4/e-minor verdicts match the block characterization."""
    counts = multigraph_counts(max_n, max_e)
    trees = [counts[(n, n - 1)] for n in range(1, max_n + 1) if n - 1 <= max_e]
    require(tuple(trees) == FREE_TREES[: len(trees)], f"free-tree counts {trees} differ from A000055")
    require(len(graphs) == len(has_minor), "one minor verdict per graph expected")
    got: dict = {}
    buckets: dict = {}
    for n, edges in graphs:
        require(1 <= n <= max_n and len(edges) <= max_e, f"graph {n} {edges} exceeds the bounds")
        require(all(0 <= u < n and 0 <= v < n for u, v in edges), f"graph {n} {edges} has a bad endpoint")
        require(is_connected(n, edges), f"graph {n} {edges} is disconnected")
        got[(n, len(edges))] = got.get((n, len(edges)), 0) + 1
        key = (n, len(edges), tuple(sorted(_vertex_invariants(n, edges))))
        buckets.setdefault(key, []).append(edges)
    want = {k: v for k, v in counts.items() if v}
    require(got == want, f"graphs per (vertices, edges) {sorted(got.items())} differ from {sorted(want.items())}")
    for (n, _, _), group in buckets.items():
        if len(group) > 1:
            forms = {canonical(n, edges) for edges in group}
            require(len(forms) == len(group), f"isomorphic graphs on {n} vertices in the enumeration")
    for (n, edges), flag in zip(graphs, has_minor):
        require(flag == (not k4e_free_by_blocks(n, edges)), f"K4/e verdict wrong on {n} {edges}")


def brute_force_multigraphs(max_n: int, max_e: int) -> set:
    """Canonical forms of every connected edge multiset within the bounds."""
    out = set()
    for n in range(1, max_n + 1):
        for e in range(max_e + 1):
            for edges in itertools.combinations_with_replacement(_slots(n), e):
                if is_connected(n, edges):
                    out.add(canonical(n, edges))
    return out


def check_small_enumeration(graphs, max_n: int, max_e: int) -> None:
    forms = [canonical(n, edges) for n, edges in graphs]
    require(len(set(forms)) == len(forms), "duplicate graph in a small enumeration")
    require(set(forms) == brute_force_multigraphs(max_n, max_e), f"enumeration ({max_n}, {max_e}) is incomplete")


if __name__ == "__main__":
    if len(sys.argv) != 4 or sys.argv[1] != "counts":
        sys.exit("usage: python3 perfbench/checks.py counts MAX_VERTICES MAX_EDGES")
    table = multigraph_counts(int(sys.argv[2]), int(sys.argv[3]))
    print(json.dumps({f"{n},{e}": c for (n, e), c in sorted(table.items())}))
