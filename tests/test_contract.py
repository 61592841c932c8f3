"""Package-wide contracts: deliberate errors derive from ClutterforgeError,
checks still run under ``python -O``, and importing the package loads no
process-pool machinery."""
from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import clutterforge
from clutterforge.clutter import Clutter, MinorSpec, builtin, mult
from clutterforge.errors import ClutterforgeError
from clutterforge.gf import build_field
from clutterforge.graphs import MultiGraph
from clutterforge.matroid import TARGETS, CircuitMatroid, has_minor, matroid_minor, matroid_of
from clutterforge.polyhedral import mfmc_check
from clutterforge.vspace import Subspace

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
    out = _run_python("-c", "import sys, clutterforge; print('concurrent.futures.process' in sys.modules)")
    assert out.strip() == "False"


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
    ],
    ids=["non-rref-basis", "duplicate-labels", "duplicate-circuits", "empty-circuit",
         "nested-circuits", "elimination-fails", "edge-not-a-pair", "vertex-count-not-int",
         "edge-endpoint-not-int", "member-not-iterable", "member-label-unhashable",
         "circuit-element-not-int", "ground-size-not-int", "minor-spec-not-a-set"],
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
        (lambda: mfmc_check(builtin("delta3"), -1, samples=3), ValueError),
        (lambda: mfmc_check(builtin("delta3"), -1), ValueError),
    ],
    ids=["mult-non-subspace", "unknown-builtin", "unknown-matroid-target", "field-order-str",
         "field-order-float", "minor-element-not-int", "mfmc-negative-bound-sampled",
         "mfmc-negative-bound-sweep"],
)
def test_lookup_and_type_errors_derive_from_clutterforge_error(call, builtin_type):
    with pytest.raises(ClutterforgeError) as info:
        call()
    assert isinstance(info.value, builtin_type)
    assert not str(info.value).startswith("'")
