"""In-memory span tracer for the benchmark's traced runs.

The tracer wraps module-level functions of the library from the outside:
it rebinds the name in every ``ramanujan_popuc.*`` module namespace that
holds the original object (``cli`` and ``duality`` import by name), and
restores every binding on ``uninstall``.  Nothing under ``src/`` changes.

A span records (name, tag, start, end, parent index, op id); spans stay
in memory until the run ends and are then written as JSON lines.  Self time
is a span's duration minus the time its child spans cover; spans of one
thread nest, so the covered time is the sum of the children's durations.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path


@dataclass
class Span:
    name: str
    tag: str | None
    start: float
    parent: int | None
    op_id: int
    end: float = 0.0
    child_time: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time


def _tag_verify_weights(args, kwargs) -> str:
    digits = kwargs.get("digits", args[2] if len(args) > 2 else None)
    return "float" if digits is None else "mpmath"


# Tag functions see the call's arguments; they split one function's spans
# by the path a caller chose.
TAGGERS = {"duality.verify_weights": _tag_verify_weights}

# The Toeplitz minors serve both sides of a dual pair; the side is read
# off the nearest ancestor that names one.
SIDE_OF_ANCESTOR = {
    "opuc_core.popuc_from_moments": "ramanujan",
    "duality.sturmian_from_charpoly": "sturmian",
}
SIDE_SPLIT = {"opuc_core.leading_toeplitz_minors"}

PACKAGE = "ramanujan_popuc"


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    observers: dict = field(default_factory=dict)
    _stack: list[int] = field(default_factory=list)
    _patched: list[tuple[object, str, object]] = field(default_factory=list)
    op_id: int = 0

    # -- installation ------------------------------------------------

    def install(self, targets: dict[str, str]) -> None:
        """Wrap each ``module.function`` (module relative to the package)
        in every package module that binds the same object; its spans
        carry the mapped name, so several functions can share one."""
        modules = [
            mod
            for key, mod in list(sys.modules.items())
            if mod is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
        ]
        for target, name in targets.items():
            mod_name, func_name = target.rsplit(".", 1)
            original = getattr(sys.modules[f"{PACKAGE}.{mod_name}"], func_name)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def _wrap(self, name: str, fn):
        tagger = TAGGERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tag = tagger(args, kwargs) if tagger else None
            span_index = self.open(name, tag)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span_index)
            observer = self.observers.get(name)
            if observer is not None:
                observer(result)
            return result

        return wrapper

    # -- spans ---------------------------------------------------------

    def open(self, name: str, tag: str | None = None) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, tag, time.perf_counter(), parent, self.op_id))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        span = self.spans[index]
        span.end = time.perf_counter()
        self._stack.pop()
        if span.parent is not None:
            self.spans[span.parent].child_time += span.duration

    def side_of(self, span: Span) -> str:
        """The ladder side a span works for: the nearest ancestor that
        names a side, or an op span tagged with one."""
        parent = span.parent
        while parent is not None:
            ancestor = self.spans[parent]
            if ancestor.name in SIDE_OF_ANCESTOR:
                return SIDE_OF_ANCESTOR[ancestor.name]
            if ancestor.name == "op" and ancestor.tag:
                return ancestor.tag
            parent = ancestor.parent
        return "other"

    def key_of(self, span: Span) -> str:
        if span.name in SIDE_SPLIT:
            return f"{span.name}.{self.side_of(span)}"
        return f"{span.name}.{span.tag}" if span.tag else span.name

    def summary(self) -> dict[str, dict[str, float]]:
        """Per key: total self time, call count and the list of durations."""
        out: dict[str, dict] = {}
        for span in self.spans:
            entry = out.setdefault(self.key_of(span), {"self_s": 0.0, "calls": 0, "durations": []})
            entry["self_s"] += span.self_time
            entry["calls"] += 1
            entry["durations"].append(span.duration)
        return out

    def write(self, path: Path) -> None:
        """All spans as JSON lines; ``parent`` is the parent's ``id``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for index, s in enumerate(self.spans):
                record = {"id": index, "name": s.name, "tag": s.tag, "start": s.start, "end": s.end}
                out.write(json.dumps(record | {"parent": s.parent, "op": s.op_id}) + "\n")
