"""Span tracing from outside the package: timing wrappers on module attributes.

Every public function named in LAYERS is replaced, in every loaded
``clutterforge`` module and in the module-level tables that hold it, by a
wrapper that records one span per call: name, start, end, parent span and the
benchmark operation it belongs to. Spans stay in memory (flat arrays) until
``dump`` writes them out; per-layer metrics are derived from them.
"""
from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import sys
import time
from array import array
from collections import Counter

# layer (module) -> traced public functions
LAYERS = {
    "gf": ("build_field",),
    "vspace": ("disjoint_support_basis", "factor", "sunflower_basis"),
    "clutter": ("mult", "minor", "find_minor", "is_isomorphic"),
    "matroid": ("matroid_of",),
    "polyhedral": ("is_ideal", "tau", "nu", "packs", "has_packing_property", "mfmc_check"),
    "verify": ("enumerate_subspaces", "verify_theorem", "sweep_theorem", "c5sq_witness", "localization_profile"),
    "graphs": ("enumerate_connected_multigraphs", "has_K4e_graph_minor", "blocks", "is_subdivision_of_At"),
    "cli": ("main",),
}


def _result_counts(name: str, result) -> dict:
    """Work counts read off a traced call's return value."""
    if name == "polyhedral.is_ideal":
        return {"rays_created": result.candidates_examined, "extreme_points": result.extreme_point_count}
    if name == "clutter.find_minor":
        return {"found": int(result is not None)}
    if name == "graphs.enumerate_connected_multigraphs":
        return {"graphs": len(result)}
    return {}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_at: array = array("i")
        self.parent: array = array("i")
        self.op_of: array = array("i")
        self.start: array = array("d")
        self.end: array = array("d")
        self.child_s: array = array("d")
        self.outer: array = array("b")
        self.counts: dict[int, Counter] = {}
        self.op = -1
        self._stack = [-1]
        self._active: list[int] = []
        self._restore: list = []

    # -- recording ---------------------------------------------------------

    def _open(self, nid: int) -> int:
        sid = len(self.start)
        self.name_at.append(nid)
        self.parent.append(self._stack[-1])
        self.op_of.append(self.op)
        self.outer.append(self._active[nid] == 0)
        self.child_s.append(0.0)
        self.end.append(0.0)
        self._active[nid] += 1
        self._stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def _close(self, sid: int, nid: int) -> None:
        t = time.perf_counter()
        self.end[sid] = t
        self._stack.pop()
        self._active[nid] -= 1
        parent = self.parent[sid]
        if parent >= 0:
            self.child_s[parent] += t - self.start[sid]

    def _count(self, name: str, values: dict) -> None:
        counter = self.counts.setdefault(self.op, Counter())
        for key, v in values.items():
            counter[f"{name}.{key}"] += v

    def _wrap(self, fn, name: str):
        nid = len(self.names)
        self.names.append(name)
        self._active.append(0)
        tracer = self

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                inner = fn(*args, **kwargs)
                while True:
                    sid = tracer._open(nid)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        tracer._close(sid, nid)
                    tracer._count(name, {"yielded": 1})
                    yield item
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(sid, nid)
            extra = _result_counts(name, result)
            if extra:
                tracer._count(name, extra)
            return result
        return wrapper

    # -- installation ------------------------------------------------------

    def install(self) -> int:
        """Wrap every traced function wherever a module or module table holds it."""
        homes = {layer: importlib.import_module(f"clutterforge.{layer}") for layer in LAYERS}
        modules = [m for k, m in sorted(sys.modules.items()) if k == "clutterforge" or k.startswith("clutterforge.")]
        wrapped = {}
        for layer, funcs in LAYERS.items():
            home = homes[layer]
            for func in funcs:
                original = getattr(home, func)
                wrapped[id(original)] = (original, self._wrap(original, f"{layer}.{func}"))
        replaced = 0
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if id(value) in wrapped and wrapped[id(value)][0] is value:
                    self._restore.append((vars(mod), attr, value))
                    setattr(mod, attr, wrapped[id(value)][1])
                    replaced += 1
                elif isinstance(value, dict):  # dispatch tables such as cli._WITNESS_BUILDERS
                    for key, entry in list(value.items()):
                        parts = entry if isinstance(entry, tuple) else (entry,)
                        if any(id(p) in wrapped and wrapped[id(p)][0] is p for p in parts):
                            new = tuple(wrapped[id(p)][1] if id(p) in wrapped and wrapped[id(p)][0] is p else p
                                        for p in parts)
                            self._restore.append((value, key, entry))
                            value[key] = new if isinstance(entry, tuple) else new[0]
                            replaced += 1
        return replaced

    def uninstall(self) -> None:
        for table, key, value in reversed(self._restore):
            table[key] = value
        self._restore.clear()

    # -- results -----------------------------------------------------------

    def layer_metrics(self, ops: set) -> dict:
        """Per-name calls, inclusive seconds (outermost spans) and self seconds over the given ops."""
        calls: Counter = Counter()
        incl: Counter = Counter()
        self_s: Counter = Counter()
        names, op_of, outer = self.names, self.op_of, self.outer
        for sid in range(len(self.start)):
            if op_of[sid] not in ops:
                continue
            name = names[self.name_at[sid]]
            dur = self.end[sid] - self.start[sid]
            calls[name] += 1
            self_s[name] += dur - self.child_s[sid]
            if outer[sid]:
                incl[name] += dur
        out = {}
        for name in calls:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.s"] = incl[name]
            out[f"{name}.self_s"] = self_s[name]
        for op in ops:
            for key, v in self.counts.get(op, {}).items():
                out[key] = out.get(key, 0) + v
        return out

    def dump(self, path) -> int:
        """Write every span as a tab-separated line (gzip); returns the span count."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("id\tname\tstart\tend\tparent\top\n")
            for sid in range(len(self.start)):
                fh.write(f"{sid}\t{self.names[self.name_at[sid]]}\t{self.start[sid]:.9f}\t"
                         f"{self.end[sid]:.9f}\t{self.parent[sid]}\t{self.op_of[sid]}\n")
        return len(self.start)
