#!/usr/bin/env python3
"""Measure what ``clutterforge analyze`` costs on random subspaces, to choose cli_oneshot's bases.

    python3 perfbench/choose_bases.py [--seed 0] [--samples 21]

Run from the root of a source checkout. For GF(3)^4 and GF(2)^6 it draws
``--samples`` subspaces uniformly from all proper nonzero subspaces (listed
as reduced row echelon forms), times ``analyze --json`` on each in fresh
processes as ``cli_oneshot`` invokes it (the median of three runs with
string-hash seeds 0, 1 and 2, since the search order and so the time depend
on it), and prints them from cheapest to dearest with the median-cost one
marked. ``workloads.py`` uses the median-cost subspace of each field as the
base of the seeded draws; the README records this measurement.
"""
from __future__ import annotations

import argparse
import itertools
import os
import random
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
FIELDS = ((3, 4), (2, 6))
HASH_SEEDS = ("0", "1", "2")


def rref_subspaces(p: int, n: int):
    """Every proper nonzero subspace of GF(p)^n (p prime), as its reduced row echelon basis."""
    for k in range(1, n):
        for pivots in itertools.combinations(range(n), k):
            free = [(i, j) for i in range(k) for j in range(pivots[i] + 1, n) if j not in pivots]
            for values in itertools.product(range(p), repeat=len(free)):
                rows = [[int(j == pivots[i]) for j in range(n)] for i in range(k)]
                for (i, j), v in zip(free, values):
                    rows[i][j] = v
                yield tuple(tuple(r) for r in rows)


def time_analyze(path: str, env) -> tuple[float, int]:
    """Median seconds of three runs, one per string-hash seed (the search order follows set order)."""
    times, codes = [], set()
    for hash_seed in HASH_SEEDS:
        t0 = time.perf_counter()
        # a blocking wait: subprocess's timeout polls, which rounds times up to 50 ms steps
        proc = subprocess.run([sys.executable, "-m", "clutterforge.cli", "analyze", path, "--json"],
                              env=dict(env, PYTHONHASHSEED=hash_seed), stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
        codes.add(proc.returncode)
    return statistics.median(times), max(codes)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0, help="draws the sample (default 0)")
    parser.add_argument("--samples", type=int, default=21, help="subspaces per field (default 21)")
    args = parser.parse_args()
    env = dict(os.environ, PYTHONPATH=SRC)
    rng = random.Random(args.seed)
    os.makedirs(os.path.join(HERE, "work"), exist_ok=True)
    with tempfile.TemporaryDirectory(dir=os.path.join(HERE, "work")) as tmp:
        for p, n in FIELDS:
            pool = list(rref_subspaces(p, n))
            timed = []
            for idx, rows in enumerate(rng.sample(pool, args.samples)):
                path = os.path.join(tmp, f"gf{p}_{idx}.txt")
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(f"{p} {n}\n" + "".join(" ".join(map(str, r)) + "\n" for r in rows))
                timed.append((*time_analyze(path, env), rows))
            timed.sort()
            median = statistics.median_low(t for t, _, _ in timed)
            print(f"GF({p})^{n}: {args.samples} of {len(pool)} subspaces, analyze --json seconds "
                  f"(fresh process, median of three hash seeds), worst exit code, basis")
            for t, code, rows in timed:
                mark = "  <- median" if t == median else ""
                print(f"  {t:7.3f}  {code}  dim {len(rows)}  {list(rows)}{mark}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
