"""The four workloads: inputs, one pass of operations, and the output checks.

A workload is built by ``make(name, seed, workdir, src)``, which is the
set-up (import, fields, instance files). ``ops()`` lists one pass of
operations; the caller times each one, and ``check_pass`` hands the outputs
to the independent checkers in ``checks``.
"""
from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import random
import subprocess
import sys
import threading

import checks

# sweep_ideal and sweep_mfmc: (q, n, statement) per sweep_theorem call
IDEAL_SWEEPS = ((4, 3, "1.2"), (3, 3, "1.1"))
MFMC_SWEEPS = ((2, 3, "1.4"), (2, 4, "1.4"), (3, 3, "1.4"))
# multigraph_k4e: the enumeration bounds, and the small bounds checked
# against a brute-force enumeration of every edge multiset
GRAPH_BOUNDS = (7, 7)
SMALL_GRAPH_BOUNDS = ((4, 5), (5, 4))

# cli_oneshot instances: fixed ones, and the bases of the seeded draws, each
# the median-cost subspace of a uniform sample (see choose_bases.py)
GF4_PLANE = (4, [(1, 1, 0), (1, 0, 1)])  # README's GF(4) plane
GF2_PLANE = (2, [(0, 1, 1), (1, 0, 1)])  # acceptance test 12
GF8_PLANE = (8, [(1, 0, 1), (0, 1, 1)])  # zero-sum plane x0 + x1 + x2 = 0
GF3_BASE = (3, [(1, 0, 1, 0), (0, 1, 1, 2)])
GF2_BASE = (2, [(1, 0, 0, 0, 1, 0), (0, 1, 0, 0, 0, 1), (0, 0, 1, 0, 1, 0), (0, 0, 0, 1, 1, 0)])
CLI_SWEEP = (3, 3, "1.1")
INVOCATION_TIMEOUT_S = 120


def draw_image(q: int, rows, rng: random.Random) -> list[tuple[int, ...]]:
    """Generators of a random monomial image of a prime-field subspace.

    Coordinates are permuted and scaled by nonzero constants, then the rows
    are recombined by a random invertible matrix. Monomial maps carry mult(S)
    to an isomorphic clutter, so every verdict and nearly all of the work
    stay the same from seed to seed.
    """
    n, k = len(rows[0]), len(rows)
    perm = list(range(n))
    rng.shuffle(perm)
    scale = [rng.randrange(1, q) for _ in range(n)]
    image = [[scale[j] * r[perm[j]] % q for j in range(n)] for r in rows]
    while True:
        mix = [[rng.randrange(q) for _ in range(k)] for _ in range(k)]
        out = [tuple(sum(mix[i][t] * image[t][j] for t in range(k)) % q for j in range(n)) for i in range(k)]
        if _rank_mod(out, q) == k:
            return out


def _rank_mod(rows, p: int) -> int:
    mat = [list(r) for r in rows]
    rank = 0
    for col in range(len(mat[0])):
        piv = next((i for i in range(rank, len(mat)) if mat[i][col] % p), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = pow(mat[rank][col], p - 2, p)
        mat[rank] = [v * inv % p for v in mat[rank]]
        for i in range(len(mat)):
            if i != rank and mat[i][col]:
                f = mat[i][col]
                mat[i] = [(a - f * b) % p for a, b in zip(mat[i], mat[rank])]
        rank += 1
    return rank


def _fields(qs) -> dict:
    from clutterforge import build_field

    return {q: checks.Field(q, build_field(q).add_table, build_field(q).mul_table) for q in qs}


class Op:
    """One operation: a label, how to run it, and how to check its output."""

    def __init__(self, label: str, run, check):
        self.label, self.run, self.check = label, run, check


class Workload:
    traced = False  # the CLI workload calls cli.main in process when traced

    def check_pass(self, ops: list[Op], outputs: list) -> None:
        """Check every output of one pass; a failed operation has output None."""
        for op, out in zip(ops, outputs):
            if out is not None:
                op.check(self.canonical_output(out))

    @staticmethod
    def canonical_output(out):
        """A plain, comparable form of one output; passes must agree on it."""
        return out


class SweepWorkload(Workload):
    def __init__(self, sweeps):
        import clutterforge

        self.cf = clutterforge
        self.sweeps = sweeps
        self.fields = _fields({q for q, _, _ in sweeps})

    def ops(self) -> list[Op]:
        return [
            Op(f"sweep_theorem({q}, {n}, {t!r})",
               lambda q=q, n=n, t=t: self.cf.sweep_theorem(q, n, t),
               lambda out, q=q, n=n, t=t: checks.check_sweep(out, self.fields, q, n, t))
            for q, n, t in self.sweeps
        ]

    @staticmethod
    def canonical_output(out):
        return [r.to_dict() for r in out]


class MultigraphWorkload(Workload):
    def __init__(self):
        import clutterforge

        self.cf = clutterforge
        self.graphs: list = []

    def _enumerate(self):
        self.graphs = self.cf.enumerate_connected_multigraphs(*GRAPH_BOUNDS)
        return [(g.n_vertices, g.edges) for g in self.graphs]

    def ops(self) -> list[Op]:
        return [
            Op(f"enumerate_connected_multigraphs{GRAPH_BOUNDS}", self._enumerate, None),
            Op("has_K4e_graph_minor on every graph",
               lambda: [self.cf.has_K4e_graph_minor(g) for g in self.graphs], None),
        ]

    def check_pass(self, ops: list[Op], outputs: list) -> None:
        graphs, flags = outputs
        checks.require(graphs is not None and flags is not None, "a multigraph operation failed")
        checks.check_multigraphs(graphs, flags, *GRAPH_BOUNDS)
        for bounds in SMALL_GRAPH_BOUNDS:
            small = self.cf.enumerate_connected_multigraphs(*bounds)
            checks.check_small_enumeration([(g.n_vertices, g.edges) for g in small], *bounds)


class CliWorkload(Workload):
    """One fresh ``clutterforge`` process per operation (in-process ``cli.main`` when traced)."""

    def __init__(self, seed: int, workdir: str, src: str):
        import clutterforge.cli

        self.cli = clutterforge.cli
        self.seed = seed
        rng = random.Random(seed)
        self.fields = _fields({2, 3, 4, 8})
        self.inst = {
            "gf4_plane": GF4_PLANE,
            "gf2_plane": GF2_PLANE,
            "gf8_plane": GF8_PLANE,
            "gf3_draw": (3, draw_image(*GF3_BASE, rng)),
            "gf2_draw": (2, draw_image(*GF2_BASE, rng)),
        }
        q8, rows8 = GF8_PLANE
        plane = checks.points(self.fields[q8], 3, rows8)
        self.alpha = rng.choice(sorted(set(itertools.product(range(q8), repeat=3)) - plane))
        self.files = {}
        for name, (q, rows) in self.inst.items():
            n = len(rows[0])
            text = f"{q} {n}\n" + "".join(" ".join(map(str, r)) + "\n" for r in rows)
            js = json.dumps({"q": q, "n": n, "generators": [list(r) for r in rows]})
            for ext, body in (("txt", text), ("json", js)):
                path = os.path.join(workdir, f"{name}.{ext}")
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(body)
                self.files[f"{name}.{ext}"] = path
        self.cert = os.path.join(workdir, "c5sq.cert")
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
        self.peak_kb = 0

    def invoke(self, argv: list[str]):
        """Run one CLI command; returns (exit code, stdout).

        A fresh process is reaped with wait4, so that its peak resident set
        (and its pool workers') is recorded in ``peak_kb``.
        """
        if self.traced:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = self.cli.main(argv)
            return code, buf.getvalue()
        proc = subprocess.Popen([sys.executable, "-m", "clutterforge.cli", *argv], env=self.env,
                                stdout=subprocess.PIPE, text=True)
        timer = threading.Timer(INVOCATION_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            with proc.stdout:
                out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_kb = max(self.peak_kb, usage.ru_maxrss)
        return proc.returncode, out

    def _cmd(self, label: str, argv: list[str], check, after=None) -> Op:
        def run():
            code, out = self.invoke(argv)
            if code != 0:
                raise RuntimeError(f"{label} exited with code {code}")
            return out if after is None else (out, after())
        return Op(label, run, check)

    def _shape(self, name: str):
        q, rows = self.inst[name]
        return q, len(rows[0]), rows

    def ops(self) -> list[Op]:
        f, fields = self.files, self.fields

        def analyze(name):
            return lambda out: checks.check_analyze(json.loads(out), fields, *self._shape(name))

        def witness(out):
            stdout, text = out
            line = checks.check_certificate_file(text, fields, *self._shape("gf8_plane"))
            checks.require(stdout.strip().splitlines()[-1] == line, "witness printed another certificate")

        def check_cert(out):
            data = json.loads(out)
            checks.require(data["check"] is True, f"certificate rejected: {data['detail']}")

        def read_cert():
            with open(self.cert, encoding="utf-8") as fh:
                return fh.read()

        alpha = ",".join(map(str, self.alpha))
        sq, sn, st = CLI_SWEEP
        return [
            self._cmd("analyze gf4_plane.txt", ["analyze", f["gf4_plane.txt"], "--json"], analyze("gf4_plane")),
            self._cmd("analyze gf2_plane.json", ["analyze", f["gf2_plane.json"], "--json"], analyze("gf2_plane")),
            self._cmd("analyze gf3_draw.txt", ["analyze", f["gf3_draw.txt"], "--json"], analyze("gf3_draw")),
            self._cmd("analyze gf2_draw.json", ["analyze", f["gf2_draw.json"], "--json"], analyze("gf2_draw")),
            self._cmd("witness c5sq", ["witness", f["gf8_plane.txt"], "--kind", "c5sq", "--seed", str(self.seed),
                                       "--out", self.cert], witness, after=read_cert),
            self._cmd("analyze --check-cert", ["analyze", f["gf8_plane.json"], "--check-cert", self.cert, "--json"],
                      check_cert),
            self._cmd("localize", ["localize", f["gf8_plane.json"], "--alpha", alpha, "--json"],
                      lambda out: checks.check_localize(json.loads(out), fields, *self._shape("gf8_plane"),
                                                        self.alpha)),
            self._cmd("matroid gf3_draw.txt", ["matroid", f["gf3_draw.txt"], "--json"],
                      lambda out: checks.check_matroid(json.loads(out), fields, *self._shape("gf3_draw"))),
            self._cmd("matroid gf2_draw.json", ["matroid", f["gf2_draw.json"], "--json"],
                      lambda out: checks.check_matroid(json.loads(out), fields, *self._shape("gf2_draw"))),
            self._cmd("sweep --jobs 2", ["sweep", "--q", str(sq), "--n", str(sn), "--theorem", st, "--jobs", "2",
                                         "--json"],
                      lambda out: checks.check_cli_sweep(json.loads(out), fields, sq, sn, st)),
        ]


def make(name: str, seed: int, workdir: str, src: str):
    if name == "sweep_ideal":
        return SweepWorkload(IDEAL_SWEEPS)
    if name == "sweep_mfmc":
        return SweepWorkload(MFMC_SWEEPS)
    if name == "multigraph_k4e":
        return MultigraphWorkload()
    if name == "cli_oneshot":
        return CliWorkload(seed, workdir, src)
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("sweep_ideal", "sweep_mfmc", "multigraph_k4e", "cli_oneshot")
