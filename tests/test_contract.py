"""Package-wide contracts: deliberate errors derive from ClutterforgeError,
checks still run under ``python -O``, and neither importing the package nor
running a sweep loads process-pool machinery."""
from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import clutterforge
from clutterforge.clutter import (
    Clutter,
    MinorSpec,
    apply_chain,
    builtin,
    find_minor,
    format_minor_certificate,
    is_isomorphic,
    localization,
    minor,
    mult,
    parse_minor_certificate,
    replay_minor,
)
from clutterforge.clutter import product as clutter_product
from clutterforge.errors import ClutterforgeError
from clutterforge.gf import build_field
from clutterforge.graphs import (
    MultiGraph,
    blocks,
    enumerate_connected_multigraphs,
    has_K4e_graph_minor,
    is_subdivision_of_At,
)
from clutterforge.matroid import (
    TARGETS,
    CircuitMatroid,
    circuits_isomorphic,
    classify,
    components,
    has_minor,
    intersecting_circuits,
    matroid_minor,
    matroid_of,
    series_classes,
)
from clutterforge.polyhedral import (
    extreme_point_witness,
    extreme_points,
    has_packing_property,
    is_ideal,
    mfmc_check,
    nu,
    packs,
    tau,
)
from clutterforge.verify import (
    c5sq_witness,
    count_subspaces,
    delta3_witness_k4e,
    delta3_witness_u24,
    enumerate_subspaces,
    gaussian_binomial,
    instance_id,
    localization_profile,
    sweep_theorem,
    verify_theorem,
)
from clutterforge.vspace import (
    Subspace,
    factor,
    parse_subspace,
    permute,
    project,
    span,
    subspace_minor,
    support,
)
from clutterforge.vspace import product as vspace_product

PACKAGE_DIR = Path(clutterforge.__file__).parent


def _run_python(*args: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(PACKAGE_DIR.parent), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_package_code_has_no_assert_statements():
    found = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def test_every_exported_name_resolves_once():
    names = clutterforge.__all__
    assert [n for n in names if not hasattr(clutterforge, n)] == []
    assert len(set(names)) == len(names)


def test_no_module_imports_a_name_it_never_uses():
    unused = []
    tests_dir = Path(__file__).parent
    for path in [*sorted(PACKAGE_DIR.glob("*.py")), *sorted(tests_dir.glob("*.py"))]:
        if path == PACKAGE_DIR / "__init__.py":
            continue  # it imports to re-export
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        imports = [n for n in ast.walk(tree) if isinstance(n, (ast.Import, ast.ImportFrom))]
        for node in imports:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name not in used:
                    unused.append(f"{path.parent.name}/{path.name}:{node.lineno} {name}")
    assert unused == []


def _package_imports_in_functions(node: ast.AST, function: str = "") -> list[tuple[str, str]]:
    """(enclosing function, module) for each package import inside a function body."""
    found = []
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found += _package_imports_in_functions(child, child.name)
            continue
        if function and isinstance(child, ast.ImportFrom):
            if child.level or (child.module or "").split(".")[0] == "clutterforge":
                found.append((function, child.module or ""))
        elif function and isinstance(child, ast.Import):
            found += [(function, a.name) for a in child.names if a.name.split(".")[0] == "clutterforge"]
        found += _package_imports_in_functions(child, function)
    return found


def test_package_imports_sit_at_module_level_but_the_vspace_detectors():
    # matroid builds on vspace, so only vspace's structured-basis detectors import it when called
    found = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [(path.stem, function, module) for function, module in _package_imports_in_functions(tree)]
    assert sorted(found) == [
        ("vspace", "disjoint_support_basis", "matroid"),
        ("vspace", "factor", "matroid"),
        ("vspace", "sunflower_basis", "matroid"),
    ]


def test_sweep_output_is_unchanged_under_optimize_flag():
    argv = ["-m", "clutterforge.cli", "sweep", "--q", "3", "--n", "2", "--theorem", "1.1",
            "--jobs", "2", "--json"]
    plain = _run_python(*argv)
    assert plain.startswith('{"q": 3')
    assert _run_python("-O", *argv) == plain


def test_extreme_point_check_runs_under_optimize_flag():
    # (1, 1/2, 1/2) is the midpoint of two extreme points of Delta3: feasible, not extreme
    code = (
        "from clutterforge.clutter import _bits, builtin\n"
        "from clutterforge.errors import VerificationFailure\n"
        "from clutterforge.polyhedral import _verify_extreme\n"
        "d3 = builtin('delta3')\n"
        "try:\n"
        "    _verify_extreme(d3, [_bits(m) for m in d3.members], (2, 1, 1, 2))\n"
        "except VerificationFailure as exc:\n"
        "    print('rejected:', exc)\n"
    )
    assert _run_python("-O", "-c", code) == "rejected: tight constraints do not pin the point\n"


def test_import_loads_no_process_pool():
    code = (
        "import sys, clutterforge, clutterforge.cli\n"
        "loaded = ['concurrent.futures.process' in sys.modules]\n"
        "status = clutterforge.cli.main(['sweep', '--q', '3', '--n', '2', '--theorem', '1.1', '--jobs', '2', '--json'])\n"
        "loaded.append('concurrent.futures.process' in sys.modules)\n"
        "print(status, loaded)\n"
    )
    out = _run_python("-c", code)
    assert out.splitlines()[-1] == "0 [False, False]"


@pytest.mark.parametrize(
    "build, builtin_type",
    [
        (lambda: Subspace(build_field(3), 2, ((0, 1), (1, 0))), ValueError),
        (lambda: Clutter((1, 1), [{1}]), ValueError),
        (lambda: CircuitMatroid(3, (frozenset({0, 1}), frozenset({0, 1}))), ValueError),
        (lambda: CircuitMatroid(3, (frozenset(),)), ValueError),
        (lambda: CircuitMatroid(3, (frozenset({0}), frozenset({0, 1}))), ValueError),
        (lambda: CircuitMatroid(4, (frozenset({0, 1}), frozenset({1, 2}))), ValueError),
        (lambda: MultiGraph(2, ((0,),)), ValueError),
        (lambda: MultiGraph("2", ()), TypeError),
        (lambda: MultiGraph(2, ((0, "1"),)), TypeError),
        (lambda: Clutter((1, 2), (1.5,)), TypeError),
        (lambda: Clutter((1, 2), [[[1]]]), TypeError),
        (lambda: CircuitMatroid(3, [frozenset({"a"})]), TypeError),
        (lambda: CircuitMatroid("3", [frozenset({0})]), TypeError),
        (lambda: MinorSpec(delete=5), TypeError),
        (lambda: CircuitMatroid(3, [5]), TypeError),
        (lambda: Subspace(build_field(3), "2", ()), TypeError),
        (lambda: Subspace(build_field(3), True, ()), TypeError),
        (lambda: Subspace(build_field(3), 3, ((True, 0, 1),)), ValueError),
        (lambda: MultiGraph(True, ()), TypeError),
        (lambda: CircuitMatroid(True, ()), TypeError),
        (lambda: CircuitMatroid(3, [frozenset({True, 2})]), TypeError),
        (lambda: MultiGraph(2, ((True, 0),)), TypeError),
        (lambda: Clutter((0, 1), [True]), TypeError),
        (lambda: Clutter(5), TypeError),
        (lambda: Clutter((1, 2), 5), TypeError),
        (lambda: MultiGraph(3, 5), TypeError),
        (lambda: Subspace(5, 2, ((1, 0),)), TypeError),
        (lambda: Subspace(build_field(3), 2, 5), TypeError),
    ],
    ids=["non-rref-basis", "duplicate-labels", "duplicate-circuits", "empty-circuit",
         "nested-circuits", "elimination-fails", "edge-not-a-pair", "vertex-count-not-int",
         "edge-endpoint-not-int", "member-not-iterable", "member-label-unhashable",
         "circuit-element-not-int", "ground-size-not-int", "minor-spec-not-a-set",
         "circuit-not-a-set", "ambient-dimension-not-int", "ambient-dimension-bool",
         "basis-entry-bool", "vertex-count-bool", "ground-size-bool", "circuit-element-bool",
         "edge-endpoint-bool", "member-mask-bool", "ground-not-iterable",
         "members-not-iterable", "edges-not-iterable", "subspace-field-not-gf",
         "basis-not-iterable"],
)
def test_constructor_errors_derive_from_clutterforge_error(build, builtin_type):
    with pytest.raises(ClutterforgeError) as info:
        build()
    assert isinstance(info.value, builtin_type)


@pytest.mark.parametrize(
    "call, builtin_type",
    [
        (lambda: mult([(0, 1)]), TypeError),
        (lambda: builtin("k5"), KeyError),
        (lambda: has_minor(matroid_of(Subspace(build_field(2), 3, ((1, 0, 1),))), "F7"), KeyError),
        (lambda: build_field("3"), TypeError),
        (lambda: build_field(3.0), TypeError),
        (lambda: matroid_minor(TARGETS["A3"], frozenset({"a"})), TypeError),
        (lambda: mfmc_check(builtin("delta3"), -1), ValueError),
        (lambda: matroid_minor(TARGETS["A3"], 5), TypeError),
        (lambda: span(build_field(3), "3", []), TypeError),
        (lambda: mfmc_check(builtin("delta3"), 1.5), TypeError),
        (lambda: enumerate_connected_multigraphs("3", 2), TypeError),
        (lambda: enumerate_connected_multigraphs(3, 2.0), TypeError),
        (lambda: enumerate_connected_multigraphs(3, True), TypeError),
        (lambda: has_K4e_graph_minor("x"), TypeError),
        (lambda: blocks("x"), TypeError),
        (lambda: is_subdivision_of_At("x"), TypeError),
        (lambda: tau(builtin("delta3"), None), TypeError),
        (lambda: is_ideal("x"), TypeError),
        (lambda: tau("x"), TypeError),
        (lambda: nu("x"), TypeError),
        (lambda: packs("x"), TypeError),
        (lambda: has_packing_property("x"), TypeError),
        (lambda: mfmc_check("x", 1), TypeError),
        (lambda: extreme_point_witness("x", [1]), TypeError),
        (lambda: has_packing_property(builtin("delta3"), budget="3"), TypeError),
        (lambda: has_packing_property(builtin("delta3"), budget=[1]), TypeError),
        (lambda: minor("x", MinorSpec()), TypeError),
        (lambda: minor(builtin("delta3"), "x"), TypeError),
        (lambda: find_minor("x", builtin("delta3")), TypeError),
        (lambda: find_minor(builtin("delta3"), "x"), TypeError),
        (lambda: is_isomorphic("x", builtin("delta3")), TypeError),
        (lambda: is_isomorphic(builtin("delta3"), "x"), TypeError),
        (lambda: replay_minor("x", MinorSpec(), "delta3"), TypeError),
        (lambda: replay_minor(builtin("delta3"), MinorSpec(), 5), TypeError),
        (lambda: apply_chain("x", [MinorSpec()]), TypeError),
        (lambda: verify_theorem("x", "1.1"), TypeError),
        (lambda: matroid_of("x"), TypeError),
        (lambda: matroid_of(["x"]), TypeError),
        (lambda: factor("x"), TypeError),
        (lambda: span(build_field(3), 3, [(True, 0, 1)]), ValueError),
        (lambda: localization(span(build_field(3), 2, [(1, 1)]), (True, 0)), ValueError),
        (lambda: parse_subspace('{"q": 3, "n": 2, "generators": [[true, 0]]}'), ValueError),
        (lambda: find_minor(builtin("q6"), builtin("delta3"), budget="729"), TypeError),
        (lambda: is_ideal(builtin("delta3"), max_ground="14"), TypeError),
        (lambda: extreme_points(builtin("delta3"), max_ground=14.0), TypeError),
        (lambda: list(enumerate_subspaces("3", 2)), TypeError),
        (lambda: verify_theorem(span(build_field(3), 2, [(1, 1)]), "1.1", budget="9"), TypeError),
        (lambda: verify_theorem(span(build_field(3), 2, [(1, 1)]), "1.4", budget="x"), TypeError),
        (lambda: verify_theorem(span(build_field(3), 2, [(1, 1)]), "1.4", max_ground="x"), TypeError),
        (lambda: span(build_field(3), 2, [(1, 1)]).points(cap="9"), TypeError),
        (lambda: has_packing_property(builtin("delta3"), budget=True), TypeError),
        (lambda: mfmc_check(builtin("delta3"), True), TypeError),
        (lambda: matroid_minor(TARGETS["A3"], frozenset({True})), TypeError),
        (lambda: project(span(build_field(3), 2, [(1, 1)]), [True]), ValueError),
        (lambda: list(enumerate_subspaces(1, 2)), ValueError),
        (lambda: sweep_theorem(1, 2, "1.1"), ValueError),
        (lambda: sweep_theorem(3, -1, "1.1"), ValueError),
        (lambda: gaussian_binomial(2, 1, 1), ValueError),
        (lambda: count_subspaces(1, 2), ValueError),
        (lambda: gaussian_binomial("3", 1, 2), TypeError),
        (lambda: count_subspaces("3", 2), TypeError),
        (lambda: count_subspaces(3, "2"), TypeError),
        (lambda: has_minor("x", "A3"), TypeError),
        (lambda: classify("x"), TypeError),
        (lambda: series_classes("x"), TypeError),
        (lambda: components("x"), TypeError),
        (lambda: circuits_isomorphic("x", TARGETS["A3"]), TypeError),
        (lambda: circuits_isomorphic(TARGETS["A3"], "x"), TypeError),
        (lambda: matroid_minor("x"), TypeError),
        (lambda: intersecting_circuits("x"), TypeError),
        (lambda: instance_id("x"), TypeError),
        (lambda: c5sq_witness(span(build_field(8), 3, [(1, 0, 1), (0, 1, 1)]), rng=True), TypeError),
        (lambda: c5sq_witness(span(build_field(8), 3, [(1, 0, 1), (0, 1, 1)]), rng="x"), TypeError),
        (lambda: c5sq_witness("x"), TypeError),
        (lambda: delta3_witness_u24("x"), TypeError),
        (lambda: delta3_witness_k4e("x"), TypeError),
        (lambda: localization_profile("x", (0, 0, 0)), TypeError),
        (lambda: builtin(3), TypeError),
        (lambda: replay_minor(builtin("delta3"), MinorSpec(), "delta3", mapping=5), TypeError),
        (lambda: find_minor(builtin("q6"), builtin("delta3"), budget=-1), ValueError),
        (lambda: has_packing_property(builtin("q6"), budget=-1), ValueError),
        (lambda: verify_theorem(span(build_field(3), 2, [(1, 1)]), "1.4", budget=-1), ValueError),
        (lambda: verify_theorem(span(build_field(3), 2, [(1, 1)]), "1.1", max_ground=-1), ValueError),
        (lambda: sweep_theorem(2, 2, "1.4", budget=-1), ValueError),
        (lambda: span(build_field(3), 3, 5), TypeError),
        (lambda: permute(span(build_field(3), 2, [(1, 1)]), 5), TypeError),
        (lambda: project(span(build_field(3), 2, [(1, 1)]), 5), TypeError),
        (lambda: subspace_minor(span(build_field(3), 2, [(1, 1)]), 5), TypeError),
        (lambda: vspace_product(5, span(build_field(3), 2, [(1, 1)])), TypeError),
        (lambda: parse_subspace(5), TypeError),
        (lambda: span(build_field(3), 2, [5]), TypeError),
        (lambda: localization(span(build_field(3), 2, [(1, 1)]), 5), TypeError),
        (lambda: support(5), TypeError),
        (lambda: clutter_product(5, builtin("delta3")), TypeError),
        (lambda: extreme_point_witness(builtin("delta3"), 5), TypeError),
        (lambda: apply_chain(builtin("delta3"), 5), TypeError),
        (lambda: parse_minor_certificate(5), TypeError),
        (lambda: format_minor_certificate(5, {}), TypeError),
        (lambda: c5sq_witness(span(build_field(8), 3, [(1, 0, 1), (0, 1, 1)]), alpha=5), TypeError),
        (lambda: localization_profile(span(build_field(8), 3, [(1, 0, 1), (0, 1, 1)]), 5), TypeError),
        (lambda: span(5, 2, [(1, 0)]), TypeError),
    ],
    ids=["mult-non-subspace", "unknown-builtin", "unknown-matroid-target", "field-order-str",
         "field-order-float", "minor-element-not-int", "mfmc-negative-bound-sweep",
         "minor-set-not-a-set", "span-dimension-not-int", "mfmc-bound-not-int", "enumeration-vertex-bound-str", "enumeration-edge-bound-float",
         "enumeration-edge-bound-bool", "k4e-not-a-multigraph", "blocks-not-a-multigraph",
         "subdivision-not-a-multigraph",
         "tau-weights-none", "is-ideal-not-a-clutter",
         "tau-not-a-clutter", "nu-not-a-clutter", "packs-not-a-clutter",
         "packing-property-not-a-clutter", "mfmc-not-a-clutter", "witness-not-a-clutter", "packing-budget-str",
         "packing-budget-list", "minor-not-a-clutter", "minor-spec-not-a-spec",
         "find-minor-not-a-clutter", "find-minor-target-not-a-clutter",
         "isomorphic-first-not-a-clutter", "isomorphic-second-not-a-clutter",
         "replay-not-a-clutter", "replay-target-not-a-clutter", "chain-not-a-clutter",
         "verify-theorem-not-a-subspace",
         "matroid-of-not-a-subspace", "matroid-of-unhashable", "factor-not-a-subspace",
         "span-entry-bool", "localization-entry-bool", "json-entry-bool", "find-minor-budget-str",
         "is-ideal-ground-cap-str", "extreme-points-ground-cap-float",
         "enumerate-subspaces-order-str",
         "verify-theorem-minor-budget-str", "verify-theorem-packing-budget-str",
         "verify-theorem-max-ground-str", "points-cap-str",
         "packing-budget-bool", "mfmc-bound-bool", "minor-element-bool", "project-coordinate-bool",
         "enumerate-subspaces-order-one", "sweep-order-one",
         "sweep-dimension-negative", "gaussian-binomial-order-one", "count-subspaces-order-one",
         "gaussian-binomial-order-str", "count-subspaces-order-str", "count-subspaces-dimension-str",
         "has-minor-not-a-matroid",
         "classify-not-a-matroid", "series-classes-not-a-matroid", "components-not-a-matroid",
         "circuits-isomorphic-first-not-a-matroid", "circuits-isomorphic-second-not-a-matroid",
         "matroid-minor-not-a-matroid", "intersecting-circuits-not-a-matroid",
         "instance-id-not-a-subspace", "c5sq-rng-bool", "c5sq-rng-str",
         "c5sq-not-a-subspace", "u24-witness-not-a-subspace", "k4e-witness-not-a-subspace",
         "localization-profile-not-a-subspace", "builtin-name-not-a-str",
         "replay-mapping-not-a-mapping", "find-minor-budget-negative", "packing-budget-negative",
         "verify-theorem-budget-negative", "verify-theorem-max-ground-negative",
         "sweep-budget-negative", "span-generators-not-iterable", "permute-order-not-a-sequence",
         "project-coordinates-not-iterable", "subspace-minor-coordinates-not-iterable",
         "subspace-product-not-a-subspace", "parse-subspace-not-a-str",
         "span-generator-not-a-sequence", "localization-point-not-a-sequence",
         "support-not-iterable", "clutter-product-not-a-clutter", "witness-point-not-a-sequence",
         "chain-specs-not-iterable", "parse-certificate-not-a-str", "format-certificate-not-a-spec",
         "c5sq-alpha-not-a-sequence", "localization-profile-alpha-not-a-sequence",
         "span-field-not-gf"],
)
def test_lookup_and_type_errors_derive_from_clutterforge_error(call, builtin_type):
    with pytest.raises(ClutterforgeError) as info:
        call()
    assert isinstance(info.value, builtin_type)
    assert not str(info.value).startswith("'")
