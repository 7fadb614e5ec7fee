"""Span tracing of lmlab's layers, installed from outside the package.

Every public function, and every public method or arithmetic operator of a
public class, defined in one of the layer modules is replaced by a timing
wrapper for as long as the tracer is installed.  A module-level function is
replaced under every name that binds it in any loaded ``lmlab`` module
(``from .core import iter_ball_coords`` in ``lattice`` and ``search``, the
re-exports in ``lmlab/__init__``), so calls are seen whichever module they
go through.  Names that a module no longer has are simply not wrapped:
their metrics read 0 and ``missing`` lists them.

Spans are aggregated in memory by (name, parent) with calls, total and self
seconds; self time is the span's duration minus the time of the spans it
caused.  A function that returns a generator is timed again on every
``next()``, and the items it yields are counted.  The workloads are
single-threaded, so there is one span stack and no waiting time.
"""

from __future__ import annotations

import functools
import importlib
import sys
import types
from collections import Counter
from time import perf_counter
from typing import Callable

LAYERS = ("core", "lattice", "search", "bounds", "intervals", "metric", "qp", "cli")

#: Operator methods wrapped on top of the public ones (interval arithmetic).
OPERATORS = frozenset(
    "__add__ __radd__ __sub__ __rsub__ __mul__ __rmul__ __truediv__ __rtruediv__ __neg__".split()
)

ROOT = "<root>"
_VERIFY_SPANS = ("lattice.verify_lattice_packing", "lattice.verify_lattice_tiling")


def _count_verdict(tracer: "Tracer", parent: str, result) -> None:
    # verify_lattice_tiling calls verify_lattice_packing: count outermost only.
    if parent not in _VERIFY_SPANS:
        tracer.counts[f"lattice.verdict.{result.verdict}"] += 1


def _count_classification(tracer: "Tracer", parent: str, report) -> None:
    tracer.counts[f"bounds.verdict.{report.verdict}"] += 1
    for criterion in report.criteria:
        tracer.counts[f"bounds.status.{criterion.status}"] += 1


def _count_undecided(tracer: "Tracer", parent: str, result) -> None:
    if result is None:
        tracer.counts["intervals.undecided"] += 1


def _count_found(tracer: "Tracer", parent: str, found) -> None:
    tracer.counts["search.found"] += len(found)


#: Counters taken from return values at the layer boundary.
RESULT_HOOKS: dict[str, Callable] = {
    "lattice.verify_lattice_packing": _count_verdict,
    "lattice.verify_lattice_tiling": _count_verdict,
    "bounds.classify": _count_classification,
    "intervals.compare_ge": _count_undecided,
    "intervals.ceil_of": _count_undecided,
    "search.search_perfect_lattices": _count_found,
}


class Tracer:
    """Wraps the layer modules while installed; restores them on uninstall."""

    def __init__(self) -> None:
        self.spans: dict[tuple[str, str], list] = {}  # (name, parent) -> [calls, total_s, self_s]
        self.items: Counter = Counter()
        self.counts: Counter = Counter()
        self.wrapped: set[str] = set()
        self.missing_layers: list[str] = []
        self._names = [ROOT]
        self._child = [0.0]
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _timed(self, name: str, fn, args, kwargs, calls: int = 1):
        names, child = self._names, self._child
        parent = names[-1]
        names.append(name)
        child.append(0.0)
        t0 = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            dt = perf_counter() - t0
            names.pop()
            inner = child.pop()
            child[-1] += dt
            rec = self.spans.get((name, parent))
            if rec is None:
                rec = self.spans[(name, parent)] = [0, 0.0, 0.0]
            rec[0] += calls
            rec[1] += dt
            rec[2] += dt - inner
        hook = RESULT_HOOKS.get(name)
        if hook is not None:
            hook(self, parent, result)
        return result

    def _iterate(self, name: str, gen):
        # Each next() is a span of the same name; calls count invocations only.
        step = gen.__next__
        while True:
            try:
                item = self._timed(name, step, (), {}, calls=0)
            except StopIteration:
                return
            self.items[name] += 1
            yield item

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = self._timed(name, fn, args, kwargs)
            if isinstance(result, types.GeneratorType):
                return self._iterate(name, result)
            return result

        self.wrapped.add(name)
        return wrapper

    # -- installing ------------------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _wrap_class(self, layer: str, cls: type) -> None:
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_") and attr not in OPERATORS:
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(member, types.FunctionType):
                self._patch(cls, attr, self._wrap(name, member))
            elif isinstance(member, (classmethod, staticmethod)):
                self._patch(cls, attr, type(member)(self._wrap(name, member.__func__)))

    def install(self) -> "Tracer":
        modules = {}
        self.missing_layers = []
        for layer in LAYERS:
            try:
                modules[layer] = importlib.import_module(f"lmlab.{layer}")
            except ImportError:
                self.missing_layers.append(layer)
        originals: dict[int, tuple[object, object]] = {}
        for layer, module in modules.items():
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if isinstance(obj, type):
                    self._wrap_class(layer, obj)
                elif callable(obj):
                    originals[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        # Rebind each function under every name any lmlab module gives it.
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "lmlab" or module_name.startswith("lmlab.")):
                continue
            for attr, obj in list(vars(module).items()):
                entry = originals.get(id(obj))
                if entry is not None and entry[0] is obj:
                    self._patch(module, attr, entry[1])
        return self

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- reading ---------------------------------------------------------

    def totals(self) -> dict[str, list]:
        """Per span name, summed over parents: [calls, total_s, self_s]."""
        out: dict[str, list] = {}
        for (name, _), (calls, total, self_s) in self.spans.items():
            rec = out.setdefault(name, [0, 0.0, 0.0])
            rec[0] += calls
            rec[1] += total
            rec[2] += self_s
        return out

    def table(self) -> list[dict]:
        """The span aggregate as JSON-ready rows, heaviest self time first."""
        rows = [
            {"name": name, "parent": parent, "calls": calls, "total_s": total, "self_s": self_s}
            for (name, parent), (calls, total, self_s) in self.spans.items()
        ]
        rows.sort(key=lambda row: -row["self_s"])
        return rows
