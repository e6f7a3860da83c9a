"""Spans recorded from the benchmark's own files around the program's calls.

A :class:`Tracer` keeps spans in memory (name, start, end, parent span,
run id, attributes) and writes them as JSON lines when the run ends.
:meth:`Tracer.install` wraps chosen public functions of the program
*from outside*: every module attribute or class attribute that refers to
the function is swapped for a timing wrapper, so calls made deep inside
the program (``api.average_rf`` calling ``read_newick_file``) are
recorded with their true nesting.  :meth:`Tracer.uninstall` puts the
originals back.  Nothing in ``src/`` is edited.

A span's *self time* is its duration minus the time its direct children
cover; summing self time by span name attributes a traced call's wall
time to layers without counting any interval twice.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable


@dataclass(frozen=True)
class Target:
    """One public function to wrap.

    ``owner`` is a module (every ``repro`` module holding the same
    function object is patched too, which catches ``from x import f``
    aliases) or a class (the class attribute is patched; classmethods
    stay classmethods).  ``after(args, kwargs, result)`` and
    ``before(args, kwargs)`` return attributes to store on the span.
    """

    span: str
    owner: Any
    attr: str
    after: Callable[..., dict] | None = None
    before: Callable[..., dict] | None = None


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches: list[tuple[Any, str, Any]] = []

    # -- recording -----------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, **attrs):
        stack = self._stack()
        record = {"id": next(self._ids), "name": name,
                  "parent": stack[-1] if stack else None,
                  "run": self.run_id, "start": time.perf_counter(),
                  "end": None, "attrs": attrs}
        self.spans.append(record)
        stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            stack.pop()

    def record(self, name: str, start: float, end: float,
               parent: int | None = None, **attrs) -> dict:
        """Add a span whose interval was timed elsewhere (e.g. on a wire)."""
        record = {"id": next(self._ids), "name": name, "parent": parent,
                  "run": self.run_id, "start": start, "end": end,
                  "attrs": attrs}
        self.spans.append(record)
        return record

    def _wrap(self, target: Target, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(target.span) as record:
                if target.before is not None:
                    record["attrs"].update(target.before(args, kwargs))
                result = fn(*args, **kwargs)
                if target.after is not None:
                    record["attrs"].update(target.after(args, kwargs, result))
                return result
        return traced

    # -- patching ------------------------------------------------------------

    def install(self, targets: list[Target]) -> None:
        for target in targets:
            if inspect.isclass(target.owner):
                raw = inspect.getattr_static(target.owner, target.attr)
                if isinstance(raw, classmethod):
                    patched = classmethod(self._wrap(target, raw.__func__))
                else:
                    patched = self._wrap(target, raw)
                self._patches.append((target.owner, target.attr, raw))
                setattr(target.owner, target.attr, patched)
                continue
            original = getattr(target.owner, target.attr)
            wrapper = self._wrap(target, original)
            for module in list(sys.modules.values()):
                name = getattr(module, "__name__", "") or ""
                if not name.startswith("repro"):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self, targets: list[Target]):
        self.install(targets)
        try:
            yield self
        finally:
            self.uninstall()

    # -- analysis ------------------------------------------------------------

    def self_times(self) -> dict[int, float]:
        covered: dict[int, float] = defaultdict(float)
        for record in self.spans:
            if record["parent"] is not None:
                covered[record["parent"]] += record["end"] - record["start"]
        return {record["id"]: record["end"] - record["start"]
                - covered[record["id"]] for record in self.spans}

    def subtree(self, root_id: int) -> list[dict]:
        """The span ``root_id`` and every span below it."""
        inside = {root_id}
        out = []
        for record in self.spans:  # parents are always recorded first
            if record["id"] in inside or record["parent"] in inside:
                inside.add(record["id"])
                out.append(record)
        return out

    def layer_table(self, root_id: int) -> dict[str, dict[str, float]]:
        """Per span name under ``root_id``: calls, total and self seconds."""
        selfs = self.self_times()
        table: dict[str, dict[str, float]] = {}
        for record in self.subtree(root_id):
            row = table.setdefault(record["name"],
                                   {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += record["end"] - record["start"]
            row["self_s"] += selfs[record["id"]]
        return table

    def write_jsonl(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for record in self.spans:
                fh.write(json.dumps(record, default=str) + "\n")


def format_layer_table(title: str, table: dict[str, dict[str, float]],
                       wall_s: float) -> list[str]:
    """A per-layer self-time table, biggest self time first."""
    lines = [f"{title}: wall {wall_s:.4f} s",
             f"  {'span':<28}{'calls':>7}{'total_s':>11}{'self_s':>11}"
             f"{'self%':>8}"]
    for name, row in sorted(table.items(), key=lambda kv: -kv[1]["self_s"]):
        share = 100.0 * row["self_s"] / wall_s if wall_s else 0.0
        lines.append(f"  {name:<28}{row['calls']:>7}{row['total_s']:>11.4f}"
                     f"{row['self_s']:>11.4f}{share:>7.1f}%")
    return lines
