"""Command-line front end: parse instances, run analyses and sweeps, emit
certificates and reports.

Subcommands: field, analyze, witness, sweep, localize, matroid.
``analyze`` reports verify's condition functions for idealness, max-flow
min-cut and structure, and decides the three named minors by the rule that
condition (iii) uses. Each subcommand builds one JSON object and one list
of text lines and prints one of them through ``_emit``. Output is
deterministic (fixed ordering, no timestamps); ``--json`` switches every
subcommand to machine-readable output. Exit codes: 0 success (for sweeps:
zero disagreements), 1 input or usage errors (including failed certificate
checks and sweep disagreements), 2 verdicts left UNKNOWN by budget limits.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from typing import Any, NoReturn, Optional, Sequence

from .clutter import (
    Clutter,
    builtin,
    format_minor_certificate,
    localization,
    mult,
    parse_minor_certificate,
    replay_minor,
)
from .errors import (
    BudgetExceeded,
    ClutterforgeError,
    ParseError,
    PreconditionViolated,
    VerificationFailure,
)
from .gf import build_field
from .matroid import TARGETS, circuits_isomorphic, classify, matroid_of, series_classes
from .polyhedral import MAX_POLY_GROUND
from .verify import (
    _WITNESS_BUILDERS,
    _chain_certificate,
    _factor_mults,
    _ideal_condition,
    _mfmc_condition,
    _named_minor,
    instance_id,
    localization_profile,
    summarize_certificate,
    sweep_theorem,
)
from .vspace import Point, Subspace, disjoint_support_basis, factor, parse_subspace, sunflower_basis

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_UNKNOWN = 2

_MINOR_TARGET_NAMES = ("delta3", "q6", "c5sq")
_BUDGET_HELP = "exhaustive-search budget (minor search and packing sweep), as 3^|ground|"


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


def _write_text(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise PreconditionViolated(f"cannot write {path}: {exc}") from exc


def _parse_alpha(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(t) for t in text.replace(" ", "").split(",") if t != "")
    except ValueError as exc:
        raise ParseError(f"bad point {text!r}: expected comma-separated integers") from exc


def _fmt_verdict(value: Optional[bool]) -> str:
    if value is None:
        return "UNKNOWN"
    return "yes" if value else "no"


def _emit(
    args: argparse.Namespace, data: dict[str, Any], lines: list[str], out: Optional[str] = None
) -> None:
    """Print the JSON object under --json, else the text lines, to stdout or else the file out."""
    text = json.dumps(data) if args.json else "\n".join(lines)
    if out:
        _write_text(out, text + "\n")
    else:
        print(text)


# ---------------------------------------------------------------------------
# field
# ---------------------------------------------------------------------------

def cmd_field(args: argparse.Namespace) -> int:
    f = build_field(args.q)
    add, mul = f.add_table, f.mul_table
    width = len(str(f.q - 1))

    def table(symbol: str, rows: Sequence[Sequence[int]]) -> list[str]:
        head = " ".join(f"{v:>{width}}" for v in range(f.q))
        lines = [f"{symbol:>{width}} | {head}", "-" * (width + 3 + len(head))]
        for a, row in enumerate(rows):
            body = " ".join(f"{v:>{width}}" for v in row)
            lines.append(f"{a:>{width}} | {body}")
        return lines

    lines = [f"GF({f.q})", "", *table("+", add), "", *table("x", mul)]
    _emit(args, {"q": f.q, "add": add, "mul": mul}, lines)
    return EXIT_OK


# ---------------------------------------------------------------------------
# analyze: renders verify's condition functions and its named-minor rule
# ---------------------------------------------------------------------------

def _analysis_ideal(cl: Clutter, max_ground: int) -> tuple[dict[str, Any], list[str]]:
    verdict, method, cert = _ideal_condition(cl, max_ground)
    if verdict is None:
        line = f"ideal: UNKNOWN ({method.removeprefix('unknown: ')})"
        return {"verdict": None, "reason": "budget"}, [line]
    if verdict:
        line = (
            f"ideal: IDEAL (0 fractional extreme points of "
            f"{cert.candidates_examined} candidates examined)"
        )
    else:
        point = ", ".join(str(x) for x in cert.fractional_point)
        line = f"ideal: NOT IDEAL (fractional extreme point: ({point}))"
    return {"verdict": verdict, "certificate": summarize_certificate(cert)}, [line]


def _analysis_mfmc(
    cl: Clutter, has_basis: bool, budget: Optional[int], pieces: Sequence[Clutter]
) -> tuple[dict[str, Any], list[str]]:
    verdict, method, cert = _mfmc_condition(cl, has_basis, budget, pieces)
    data = {"verdict": verdict, "method": method, "certificate": summarize_certificate(cert)}
    return data, [f"mfmc: {_fmt_verdict(verdict).upper()} ({method})"]


def _analysis_minors(
    space: Subspace, cl: Clutter, budget: Optional[int], pieces: Sequence[Clutter]
) -> tuple[dict[str, Any], list[str]]:
    data: dict[str, Any] = {}
    lines: list[str] = []
    for name in _MINOR_TARGET_NAMES:
        present, _, found = _named_minor(space, cl, name, budget, pieces)
        if present is None:
            data[name] = None
            lines.append(f"minor {name}: UNKNOWN (search out of budget)")
        elif not present:
            data[name] = {"present": False}
            lines.append(f"minor {name}: none (exhaustive search)")
        else:
            cert = format_minor_certificate(*found[1:])
            data[name] = {"present": True, "certificate": cert}
            lines.append(f"minor {name}: {cert}")
    return data, lines


def _analysis_structure(
    space: Subspace,
    basis: Optional[tuple[Point, ...]],
    factors: Sequence[tuple[tuple[int, ...], Subspace]],
) -> tuple[dict[str, Any], list[str]]:
    if basis is None:
        lines = ["disjoint-support basis: none"]
    else:
        rows = "; ".join(",".join(str(v) for v in row) for row in basis) or "(empty)"
        lines = [f"disjoint-support basis: {rows}"]
    piece_data = []
    for coords, piece in factors:
        entry: dict[str, Any] = {"coords": list(coords), "dim": piece.dim}
        line = f"factor on coordinates {','.join(map(str, coords))}: dim {piece.dim}"
        if piece.dim > 1:
            witness = sunflower_basis(piece)
            desc = "no sunflower basis"
            if witness is not None:
                desc = f"sunflower basis, head size {len(witness.head)}, {witness.r} blocks"
                entry["sunflower"] = {
                    "head": list(witness.head),
                    "block_sizes": list(witness.block_sizes),
                }
            entry["description"] = desc
            line += f" ({desc})"
        lines.append(line)
        piece_data.append(entry)
    classes = series_classes(matroid_of(space))
    cls_txt = " ".join("{" + ",".join(map(str, c)) + "}" for c in classes)
    lines.append(f"series classes: {cls_txt}")
    data = {
        "disjoint_basis": None if basis is None else [list(r) for r in basis],
        "factors": piece_data,
        "series_classes": [list(c) for c in classes],
    }
    return data, lines


def _check_certificate(space: Subspace, cert_path: str) -> tuple[bool, str]:
    target_name = None
    cert_line = None
    for line in _read_text(cert_path).splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("target:"):
            target_name = line.split(":", 1)[1].strip()
        elif line.startswith("I="):
            cert_line = line
    if target_name is None or cert_line is None:
        raise ParseError("certificate file needs a 'target:' line and an 'I={...}' line")
    spec, mapping = parse_minor_certificate(cert_line)
    target = builtin(target_name)
    # accept the bijection in either direction (target->minor or back); a
    # map that is not injective stays as stated, and the replay refuses it
    inverse = {v: k for k, v in mapping.items()}
    if set(mapping) != set(target.ground) and len(inverse) == len(mapping):
        mapping = inverse
    try:
        replay_minor(mult(space), spec, target, mapping or None)
        ok = True
    except VerificationFailure:
        ok = False
    how = "stated label bijection" if mapping else "fresh isomorphism search"
    detail = f"{'VALID' if ok else 'INVALID'}: replayed minor vs {target_name} ({how})"
    return ok, detail


def cmd_analyze(args: argparse.Namespace) -> int:
    space = parse_subspace(_read_text(args.input))
    if args.check_cert:
        ok, detail = _check_certificate(space, args.check_cert)
        _emit(args, {"instance": instance_id(space), "check": ok, "detail": detail}, [detail])
        return EXIT_OK if ok else EXIT_ERROR
    run_all = not (args.ideal or args.mfmc or args.minors or args.structure)
    ideal, mfmc, minors, structure = (
        run_all or wanted for wanted in (args.ideal, args.mfmc, args.minors, args.structure)
    )
    cl = mult(space) if ideal or mfmc or minors else None
    basis = disjoint_support_basis(space) if mfmc or structure else None
    factors = factor(space) if mfmc or minors or structure else ()
    pieces = _factor_mults(factors, cl, args.budget) if mfmc or minors else ()
    report: dict[str, Any] = {"instance": instance_id(space)}
    lines: list[str] = [f"instance: {instance_id(space)}"]
    unknown = False
    if ideal:
        report["ideal"], txt = _analysis_ideal(cl, args.max_ground)
        lines += txt
        unknown |= report["ideal"]["verdict"] is None
    if mfmc:
        report["mfmc"], txt = _analysis_mfmc(cl, basis is not None, args.budget, pieces)
        lines += txt
        unknown |= report["mfmc"]["verdict"] is None
    if minors:
        report["minors"], txt = _analysis_minors(space, cl, args.budget, pieces)
        lines += txt
        unknown |= None in report["minors"].values()
    if structure:
        report["structure"], txt = _analysis_structure(space, basis, factors)
        lines += txt
    _emit(args, report, lines)
    return EXIT_UNKNOWN if unknown else EXIT_OK


# ---------------------------------------------------------------------------
# witness
# ---------------------------------------------------------------------------

def cmd_witness(args: argparse.Namespace) -> int:
    space = parse_subspace(_read_text(args.input))
    builder, target_name = _WITNESS_BUILDERS[args.kind]
    if args.kind == "c5sq":
        alpha = _parse_alpha(args.alpha) if args.alpha else None
        chain = builder(space, alpha=alpha, rng=args.seed)
    else:
        if args.alpha or args.seed is not None:
            raise ParseError(f"--alpha/--seed apply only to c5sq, not {args.kind}")
        chain = builder(space)
    # the builders replay internally; this is belt and braces
    _, composed, found = _chain_certificate(mult(space), chain, target_name)
    cert_line = format_minor_certificate(composed, {e: t for t, e in found.items()})
    cert_text = (
        f"# minor certificate (re-check with: analyze <instance> --check-cert <this file>)\n"
        f"target: {target_name}\n"
        f"instance: {instance_id(space)}\n"
        f"{cert_line}\n"
    )
    if args.out:
        _write_text(args.out, cert_text)
    data = {
        "instance": instance_id(space),
        "kind": args.kind,
        "target": target_name,
        "steps": [summarize_certificate(s) for s in chain],
        "certificate": cert_line,
    }
    lines = [f"instance: {instance_id(space)}", f"target: {target_name}"]
    for idx, spec in enumerate(chain):
        d = ",".join(sorted(map(str, spec.delete)))
        c = ",".join(sorted(map(str, spec.contract)))
        lines.append(f"step {idx}: delete {{{d}}} contract {{{c}}}")
    lines += [f"replay: isomorphic to {target_name}", cert_line]
    _emit(args, data, lines)
    return EXIT_OK


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def cmd_sweep(args: argparse.Namespace) -> int:
    if args.jobs < 1:
        raise PreconditionViolated(f"job count must be at least 1, got {args.jobs}")
    swept = sweep_theorem(
        args.q,
        args.n,
        args.theorem,
        max_ground=args.max_ground,
        budget=args.budget,
    )
    reports = [r.to_dict() for r in swept]
    total = len(reports)
    disagreements = sum(1 for r in reports if not r["agreement"])
    unknowns = sum(len(r["unknown"]) for r in reports)
    data = {
        "q": args.q,
        "n": args.n,
        "theorem": reports[0]["theorem"] if reports else str(args.theorem),
        "total": total,
        "disagreements": disagreements,
        "unknown_verdicts": unknowns,
        "reports": reports,
    }
    rows = io.StringIO()
    writer = csv.writer(rows, lineterminator="\n")
    writer.writerow(
        ["instance", "i", "ii", "iii", "agreement", "unknown", "method_i", "method_ii", "method_iii"]
    )
    for r in reports:
        writer.writerow(
            [
                r["instance"],
                _fmt_verdict(r["i"]),
                _fmt_verdict(r["ii"]),
                _fmt_verdict(r["iii"]),
                "yes" if r["agreement"] else "NO",
                ";".join(r["unknown"]),
                r["methods"].get("i", ""),
                r["methods"].get("ii", ""),
                r["methods"].get("iii", ""),
            ]
        )
    rows.write(f"# total={total} disagreements={disagreements} unknown_verdicts={unknowns}")
    lines = [rows.getvalue()]  # one chunk: the CSV rows and the summary line
    _emit(args, data, lines, args.out)
    return EXIT_OK if disagreements == 0 else EXIT_ERROR


# ---------------------------------------------------------------------------
# localize
# ---------------------------------------------------------------------------

def cmd_localize(args: argparse.Namespace) -> int:
    space = parse_subspace(_read_text(args.input))
    alpha = _parse_alpha(args.alpha)
    try:
        profile = localization_profile(space, alpha)
    except PreconditionViolated:
        profile = None
    if profile is not None:
        data = {
            "instance": instance_id(space),
            "alpha": list(profile.alpha),
            "sigma": profile.sigma,
            "profile": summarize_certificate(profile),
        }
        lines = [
            f"instance: {instance_id(space)}",
            f"alpha: {','.join(map(str, profile.alpha))} (functional value {profile.sigma})",
            "size-1 members: " + " ".join(f"({p},{v})" for p, v in profile.size_one),
            f"size-2 components: {len(profile.components)}",
        ]
        for comp in profile.components:
            lines.append(
                f"  component {comp.head}: {len(comp.edges)} edges, "
                f"left {list(comp.left)}, right {list(comp.right)}"
            )
        lines.append(f"members of size >= 3: {len(profile.residual)}")
    else:
        # shapes without the closed-form census: report the raw localization
        cl = localization(space, alpha)
        sizes: dict[int, int] = {}
        for mem in cl.member_sets():
            sizes[len(mem)] = sizes.get(len(mem), 0) + 1
        data = {
            "instance": instance_id(space),
            "alpha": list(alpha),
            "profile": None,
            "member_count": len(cl.members),
            "size_histogram": {str(k): v for k, v in sorted(sizes.items())},
        }
        hist = " ".join(f"size {k}: {v}" for k, v in sorted(sizes.items()))
        lines = [
            f"instance: {instance_id(space)}",
            f"alpha: {','.join(map(str, alpha))}",
            f"no closed-form census for this shape; raw localization has "
            f"{len(cl.members)} members ({hist})",
        ]
    _emit(args, data, lines)
    return EXIT_OK


# ---------------------------------------------------------------------------
# matroid
# ---------------------------------------------------------------------------

def cmd_matroid(args: argparse.Namespace) -> int:
    space = parse_subspace(_read_text(args.input))
    m = matroid_of(space)
    report = classify(m)
    matches = [
        name
        for name, target in sorted(TARGETS.items())
        if m.size == target.size and circuits_isomorphic(m, target) is not None
    ]
    data = {
        "instance": instance_id(space),
        "size": m.size,
        "rank": m.rank(),
        "circuits": sorted(sorted(c) for c in m.circuits),
        "series_classes": [list(c) for c in series_classes(m)],
        "components": [list(c) for c in report.components],
        "kinds": list(report.kinds),
        "named_matches": matches,
    }
    circuits = " ".join("{" + ",".join(map(str, c)) + "}" for c in data["circuits"])
    lines = [
        f"instance: {instance_id(space)}",
        f"elements: {m.size}, rank: {m.rank()}",
        f"circuits: {circuits or '(none)'}",
        "series classes: "
        + " ".join("{" + ",".join(map(str, c)) + "}" for c in data["series_classes"]),
        "components: "
        + "; ".join(
            f"{{{','.join(map(str, comp))}}}: {kind}"
            for comp, kind in zip(report.components, report.kinds)
        ),
        f"named matches: {', '.join(matches) if matches else '(none)'}",
    ]
    _emit(args, data, lines)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Usage errors raise ParseError, which main reports like any input error."""

    def error(self, message: str) -> NoReturn:
        raise ParseError(message)


def _non_negative(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="clutterforge",
        description=(
            "Exact idealness and max-flow min-cut analysis for multipartite "
            "clutters built from subspaces of GF(q)^n."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_field = sub.add_parser("field", help="print GF(q) addition and multiplication tables")
    p_field.add_argument("--q", type=int, required=True)
    p_field.set_defaults(func=cmd_field)

    p_an = sub.add_parser("analyze", help="analyze one subspace instance")
    p_an.add_argument("input", help="subspace file (text or JSON)")
    p_an.add_argument("--ideal", action="store_true", help="extreme-point integrality")
    p_an.add_argument("--mfmc", action="store_true", help="covering = packing at all weights")
    p_an.add_argument("--minors", action="store_true", help="search the named forbidden minors")
    p_an.add_argument("--structure", action="store_true", help="bases, factors, series classes")
    p_an.add_argument("--budget", type=_non_negative, default=None, help=_BUDGET_HELP)
    p_an.add_argument("--max-ground", type=_non_negative, default=MAX_POLY_GROUND, help="polyhedral ground cap")
    p_an.add_argument("--check-cert", metavar="CERT", default=None,
                      help="re-validate a previously emitted minor certificate")
    p_an.set_defaults(func=cmd_analyze)

    p_wit = sub.add_parser("witness", help="build and replay a constructive minor chain")
    p_wit.add_argument("input", help="subspace file (text or JSON)")
    p_wit.add_argument("--kind", choices=sorted(_WITNESS_BUILDERS), required=True)
    p_wit.add_argument("--alpha", default=None, help="comma-separated point (c5sq only)")
    p_wit.add_argument("--seed", type=int, default=None, help="randomize free choices (c5sq only)")
    p_wit.add_argument("--out", default=None, help="write the certificate to this file")
    p_wit.set_defaults(func=cmd_witness)

    p_sw = sub.add_parser("sweep", help="run one statement over every subspace of GF(q)^n")
    p_sw.add_argument("--q", type=int, required=True)
    p_sw.add_argument("--n", type=int, required=True)
    p_sw.add_argument("--theorem", required=True, help="statement id: 1.1, 1.2, 1.3, or 1.4")
    p_sw.add_argument("--out", default=None, help="write CSV/JSON to this file")
    p_sw.add_argument("--jobs", type=int, default=1, help="at least 1; no other effect, since sweeps run in one process")
    p_sw.add_argument("--budget", type=_non_negative, default=None, help=_BUDGET_HELP)
    p_sw.add_argument("--max-ground", type=_non_negative, default=MAX_POLY_GROUND, help="polyhedral ground cap")
    p_sw.set_defaults(func=cmd_sweep)

    p_loc = sub.add_parser("localize", help="profile one localization of a subspace")
    p_loc.add_argument("input", help="subspace file (text or JSON)")
    p_loc.add_argument("--alpha", required=True, help="comma-separated point to localize at")
    p_loc.set_defaults(func=cmd_localize)

    p_mat = sub.add_parser("matroid", help="describe the matroid of minimal supports")
    p_mat.add_argument("input", help="subspace file (text or JSON)")
    p_mat.set_defaults(func=cmd_matroid)

    for p_sub in sub.choices.values():
        p_sub.add_argument("--json", action="store_true")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except BudgetExceeded as exc:
        print(f"UNKNOWN: {exc}", file=sys.stderr)
        return EXIT_UNKNOWN
    except ClutterforgeError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
