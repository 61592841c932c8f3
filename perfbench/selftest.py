#!/usr/bin/env python3
"""Self-tests of the checkers: each accepts real program output and rejects a corruption of it.

    python3 perfbench/selftest.py

Run from the root of a source checkout. Exits 0 when every checker accepted
every real certificate and rejected every mutated one.
"""
from __future__ import annotations

import copy
import json
import os
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import clutterforge as cf  # noqa: E402
from clutterforge import cli  # noqa: E402

RESULTS: list[tuple[str, bool]] = []


def expect(name: str, should_pass: bool, fn) -> None:
    try:
        fn()
        passed = True
    except checks.CheckFailure:
        passed = False
    ok = passed == should_pass
    RESULTS.append((name, ok))
    print(f"{'ok  ' if ok else 'FAIL'} {'accepts' if should_pass else 'rejects'} {name}")


def fields(*qs):
    return {q: checks.Field(q, cf.build_field(q).add_table, cf.build_field(q).mul_table) for q in qs}


def main() -> int:
    f = fields(2, 3, 4, 8)

    # field tables
    gf4 = cf.build_field(4)
    bad_mul = [list(r) for r in gf4.mul_table]
    bad_mul[2][3], bad_mul[2][2] = bad_mul[2][2], bad_mul[2][3]
    expect("GF(4) tables", True, lambda: checks.Field(4, gf4.add_table, gf4.mul_table))
    expect("GF(4) with two products swapped", False, lambda: checks.Field(4, gf4.add_table, bad_mul))

    # statement reports: minor specs, disjoint bases, fractional points, refutations
    gf3 = [r.to_dict() for r in cf.sweep_theorem(3, 2, "1.1")] + [r.to_dict() for r in cf.sweep_theorem(3, 3, "1.1")]
    with_minor = next(r for r in gf3 if r["iii"] is False)
    with_point = next(r for r in gf3 if r["i"] is False)
    with_basis = next(r for r in gf3 if r["ii"] is True and len(r["certificates"]["ii"]) == 2)
    expect("a delta3 minor certificate", True, lambda: checks.check_report(with_minor, f, "1.1"))
    swapped = copy.deepcopy(with_minor)
    spec = swapped["certificates"]["iii"][1]
    spec["delete"][0], spec["contract"][0] = spec["contract"][0], spec["delete"][0]
    expect("a minor spec with a label swapped between I and J", False,
           lambda: checks.check_report(swapped, f, "1.1"))
    remapped = copy.deepcopy(with_minor)
    spec, m = remapped["certificates"]["iii"][1:]
    m["1"], spec["delete"][0] = spec["delete"][0], m["1"]
    expect("a minor spec with a label swapped between I and the label map", False,
           lambda: checks.check_report(remapped, f, "1.1"))
    expect("a fractional extreme point", True, lambda: checks.check_report(with_point, f, "1.1"))
    for delta in (Fraction(1, 7), Fraction(-1, 7)):
        bent = copy.deepcopy(with_point)
        x = bent["certificates"]["i"]["fractional_point"]
        k = next(i for i, v in enumerate(x) if Fraction(v) > Fraction(1, 7))
        x[k] = str(Fraction(x[k]) + delta)
        expect(f"a fractional point with one coordinate moved by {delta}", False,
               lambda bent=bent: checks.check_report(bent, f, "1.1"))
    expect("a disjoint-support basis", True, lambda: checks.check_report(with_basis, f, "1.1"))
    bad_basis = copy.deepcopy(with_basis)
    row = bad_basis["certificates"]["ii"][1]
    row[row.index(0)] = 1
    expect("a disjoint-support basis with an entry changed", False,
           lambda: checks.check_report(bad_basis, f, "1.1"))

    mfmc = [r.to_dict() for r in cf.sweep_theorem(2, 3, "1.4")]
    refuted = next(r for r in mfmc if r["i"] is False)
    expect("a covering/packing refutation", True, lambda: checks.check_report(refuted, f, "1.4"))
    wrong_tau = copy.deepcopy(refuted)
    wrong_tau["certificates"]["i"][1] += 1
    expect("a refutation with its covering number raised by one", False,
           lambda: checks.check_report(wrong_tau, f, "1.4"))
    flipped = copy.deepcopy(refuted)
    flipped["i"] = flipped["ii"] = flipped["iii"] = True
    expect("a report whose verdicts were all flipped", False, lambda: checks.check_report(flipped, f, "1.4"))

    sweep = [r.to_dict() for r in cf.sweep_theorem(3, 3, "1.1")]
    expect("the GF(3)^3 sweep", True, lambda: checks.check_sweep(sweep, f, 3, 3, "1.1"))
    expect("the sweep with one report dropped", False, lambda: checks.check_sweep(sweep[1:], f, 3, 3, "1.1"))
    expect("the sweep with one report duplicated", False,
           lambda: checks.check_sweep(sweep[:-1] + sweep[:1], f, 3, 3, "1.1"))

    # CLI outputs
    rows = [(1, 0, 1, 2), (0, 1, 1, 1)]
    out = json.loads(_cli(["analyze", *_write(3, rows), "--json"]))
    expect("analyze on a GF(3)^4 plane", True, lambda: checks.check_analyze(out, f, 3, 4, rows))
    bad = copy.deepcopy(out)
    cert = bad["minors"]["q6"]["certificate"]
    bad["minors"]["q6"]["certificate"] = cert.replace(" 1→", " @").replace(" 2→", " 1→").replace(" @", " 2→")
    expect("analyze with target labels 1 and 2 swapped in its q6 certificate", False,
           lambda: checks.check_analyze(bad, f, 3, 4, rows))
    matroid = json.loads(_cli(["matroid", *_write(3, rows), "--json"]))
    expect("matroid circuits", True, lambda: checks.check_matroid(matroid, f, 3, 4, rows))
    matroid["circuits"] = matroid["circuits"][1:]
    expect("matroid with a circuit dropped", False, lambda: checks.check_matroid(matroid, f, 3, 4, rows))
    plane = [(1, 0, 1), (0, 1, 1)]
    loc = json.loads(_cli(["localize", *_write(8, plane), "--alpha", "1,0,0", "--json"]))
    expect("a localization profile", True, lambda: checks.check_localize(loc, f, 8, 3, plane, (1, 0, 0)))
    loc["profile"]["components"][0]["edges"].pop()
    expect("a localization profile missing one size-2 member", False,
           lambda: checks.check_localize(loc, f, 8, 3, plane, (1, 0, 0)))
    cert_path = _write(8, plane)[0] + ".cert"
    _TEMP.append(cert_path)
    _cli(["witness", _write(8, plane)[0], "--kind", "c5sq", "--seed", "1", "--out", cert_path])
    with open(cert_path, encoding="utf-8") as fh:
        cert = fh.read()
    expect("a c5sq witness certificate file", True, lambda: checks.check_certificate_file(cert, f, 8, 3, plane))
    line = next(x for x in cert.splitlines() if x.startswith("I="))
    head, _, mapping = line.partition("map:")
    pairs = mapping.split()
    left, right = pairs[0].split("→"), pairs[1].split("→")
    pairs[0], pairs[1] = f"{left[0]}→{right[1]}", f"{right[0]}→{left[1]}"
    remapped_cert = cert.replace(line, f"{head}map: {' '.join(pairs)}")
    expect("the certificate file with two map targets swapped", False,
           lambda: checks.check_certificate_file(remapped_cert, f, 8, 3, plane))
    delete = head[head.index("{") + 1:head.index("}")].split(",")
    moved_cert = cert.replace(line, line.replace("I={" + ",".join(delete), "I={" + ",".join(delete[1:]), 1))
    expect("the certificate file with one delete label dropped", False,
           lambda: checks.check_certificate_file(moved_cert, f, 8, 3, plane))
    cli_sweep = json.loads(_cli(["sweep", "--q", "2", "--n", "3", "--theorem", "1.4", "--json"]))
    expect("a CLI sweep", True, lambda: checks.check_cli_sweep(cli_sweep, f, 2, 3, "1.4"))
    for key, value in (("total", cli_sweep["total"] + 1), ("disagreements", 1), ("unknown_verdicts", 1)):
        bad_sweep = dict(cli_sweep, **{key: value})
        expect(f"a CLI sweep with its {key} field changed", False,
               lambda bad_sweep=bad_sweep: checks.check_cli_sweep(bad_sweep, f, 2, 3, "1.4"))

    # multigraphs
    graphs = [(g.n_vertices, g.edges) for g in cf.enumerate_connected_multigraphs(5, 5)]
    flags = [cf.has_K4e_graph_minor(cf.MultiGraph(n, e)) for n, e in graphs]
    expect("the (5, 5) multigraph enumeration", True, lambda: checks.check_multigraphs(graphs, flags, 5, 5))
    expect("the enumeration with a graph dropped", False,
           lambda: checks.check_multigraphs(graphs[:-1], flags[:-1], 5, 5))
    expect("the enumeration with a graph duplicated", False,
           lambda: checks.check_multigraphs(graphs + graphs[-1:], flags + flags[-1:], 5, 5))
    k = flags.index(True)
    expect("the enumeration with one K4/e verdict flipped", False,
           lambda: checks.check_multigraphs(graphs, flags[:k] + [False] + flags[k + 1:], 5, 5))
    small = [(g.n_vertices, g.edges) for g in cf.enumerate_connected_multigraphs(4, 5)]
    expect("the (4, 5) enumeration against brute force", True, lambda: checks.check_small_enumeration(small, 4, 5))
    expect("the (4, 5) enumeration with a graph dropped", False,
           lambda: checks.check_small_enumeration(small[1:], 4, 5))

    failed = [name for name, ok in RESULTS if not ok]
    print(f"{len(RESULTS) - len(failed)} of {len(RESULTS)} self-tests passed")
    return 1 if failed else 0


def _write(q: int, rows) -> list[str]:
    os.makedirs(os.path.join(HERE, "work"), exist_ok=True)
    path = os.path.join(HERE, "work", f"selftest-{os.getpid()}-{len(_TEMP)}.txt")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{q} {len(rows[0])}\n" + "".join(" ".join(map(str, r)) + "\n" for r in rows))
    _TEMP.append(path)
    return [path]


def _cli(argv: list[str]) -> str:
    import contextlib
    import io

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        cli.main(argv)
    return buf.getvalue()


_TEMP: list[str] = []

if __name__ == "__main__":
    try:
        code = main()
    finally:
        for p in _TEMP:
            os.unlink(p)
    sys.exit(code)
