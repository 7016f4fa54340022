"""Spans around trigsat's layer entry points, installed from outside.

`Tracer.installed()` replaces each listed function or method with a
wrapper that times the call, subtracts the time of the spans it caused
(self time), counts calls and "hits" (calls that changed state), and
keeps the values the fingerprint needs.  A function imported by name into
another trigsat module is replaced there too, unless the entry says the
binding of one module only.  Names that no longer exist are skipped and
listed in `Tracer.missing`, so a refactor degrades the trace instead of
breaking the benchmark.  Everything is restored on exit.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable, Optional


def _changed(result: Any) -> bool:
    return result is True


@dataclass(frozen=True)
class SpanSpec:
    layer: str  # metric stem, e.g. "cdcl.conflict"
    module: str
    attribute: str  # "name" or "Class.method"
    hit: Optional[Callable[[Any], bool]] = None
    capture: Optional[str] = None  # keep (tag, self-or-None, result)
    this_module_only: bool = False


SPANS = (
    SpanSpec("parser", "trigsat.parser", "parse_problem"),
    SpanSpec("parser", "trigsat.parser", "parse_model_text"),
    SpanSpec("selection", "trigsat.pipeline", "build_selection"),
    SpanSpec("saturation", "trigsat.saturation", "saturate",
             capture="saturate"),
    SpanSpec("saturation.check", "trigsat.saturation", "check_saturated",
             capture="check"),
    SpanSpec("saturation.subsume", "trigsat.saturation", "subsumes",
             hit=_changed),
    SpanSpec("saturation.infer", "trigsat.saturation", "resolve"),
    SpanSpec("saturation.infer", "trigsat.saturation", "factor"),
    SpanSpec("cdcl", "trigsat.cdcl", "Solver.run", capture="run"),
    SpanSpec("cdcl.conflict", "trigsat.cdcl", "Solver.find_conflict",
             hit=_changed),
    SpanSpec("cdcl.propagate", "trigsat.cdcl", "Solver.propagate",
             hit=_changed),
    SpanSpec("cdcl.decide", "trigsat.cdcl", "Solver.decide"),
    SpanSpec("cdcl.backjump", "trigsat.cdcl", "Solver.backjump_applicable"),
    SpanSpec("cdcl.backjump", "trigsat.cdcl", "Solver.backjump_step"),
    SpanSpec("cdcl.learn", "trigsat.cdcl", "Solver.learn"),
    SpanSpec("cdcl.instantiate", "trigsat.cdcl", "Solver.instantiate_step",
             hit=lambda r: r == "added"),
    SpanSpec("cdcl.match", "trigsat.cdcl", "match_literal",
             hit=lambda r: r is not None, this_module_only=True),
    SpanSpec("cdcl.sort_clause", "trigsat.cdcl", "sort_clause"),
    SpanSpec("models.ground", "trigsat.models", "filtered_ground_instances"),
    SpanSpec("models.produce", "trigsat.models", "produce_model"),
    SpanSpec("models.check", "trigsat.models", "verify_no_falsified",
             capture="verify"),
)

OP = "op"  # the benchmark's own span around one whole operation


class LayerStats:
    __slots__ = ("total", "self", "calls", "hits")

    def __init__(self) -> None:
        self.total = 0.0
        self.self = 0.0
        self.calls = 0
        self.hits = 0


class Tracer:
    def __init__(self) -> None:
        self._stack: list[list[float]] = []  # child time of each open span
        self.stats: dict[str, LayerStats] = {}
        self.captures: list[tuple[str, Any, Any]] = []
        self.missing: list[str] = []

    def reset(self) -> None:
        self.stats = {}
        self.captures = []

    def take_captures(self) -> list[tuple[str, Any, Any]]:
        out, self.captures = self.captures, []
        return out

    def layer(self, name: str) -> LayerStats:
        rec = self.stats.get(name)
        if rec is None:
            rec = self.stats[name] = LayerStats()
        return rec

    def call(self, name: str, fn: Callable, args: tuple, kwargs: dict,
             hit: Optional[Callable[[Any], bool]] = None,
             capture: Optional[str] = None) -> Any:
        frame = [0.0]
        self._stack.append(frame)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            elapsed = perf_counter() - start
            self._stack.pop()
            if self._stack:
                self._stack[-1][0] += elapsed
            rec = self.layer(name)
            rec.total += elapsed
            rec.self += elapsed - frame[0]
            rec.calls += 1
        if hit is not None and hit(result):
            rec.hits += 1
        if capture is not None:
            self.captures.append((capture, args[0] if args else None, result))
        return result

    def _wrap(self, spec: SpanSpec, fn: Callable) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer.call(spec.layer, fn, args, kwargs, spec.hit,
                               spec.capture)

        return wrapper

    @contextlib.contextmanager
    def installed(self, specs=SPANS):
        undo: list[tuple[Any, str, Any]] = []
        self.missing = []
        try:
            for spec in specs:
                undo.extend(self._install(spec))
            yield self
        finally:
            for owner, name, original in reversed(undo):
                setattr(owner, name, original)

    def _install(self, spec: SpanSpec) -> list[tuple[Any, str, Any]]:
        try:
            module = importlib.import_module(spec.module)
        except ImportError:
            self.missing.append(f"{spec.module}.{spec.attribute}")
            return []
        owner: Any = module
        *path, name = spec.attribute.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        original = getattr(owner, name, None) if owner is not None else None
        if original is None:
            self.missing.append(f"{spec.module}.{spec.attribute}")
            return []
        wrapped = self._wrap(spec, original)
        targets = [owner]
        if not path and not spec.this_module_only:
            targets += [m for m_name, m in list(sys.modules.items())
                        if m_name.startswith("trigsat.") and m is not module
                        and getattr(m, name, None) is original]
        undo = []
        for target in targets:
            undo.append((target, name, original))
            setattr(target, name, wrapped)
        return undo
