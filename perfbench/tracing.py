"""Span tracer that wraps the program's public functions from outside.

``Tracer.install`` replaces every public function of the six modules, in
every module namespace that binds it, and every public method of their
public classes (plus the GFMatrix and LinearMatroid constructors) with a
wrapper that records a span: name, start, end, parent span, thread and op.
``Tracer.uninstall`` puts every original back.  Spans stay in memory and are
written by ``write_spans`` when the run ends.

Self time is a span's duration minus the part its children cover.  Work a
thread pool runs is parented to the span the main thread is waiting in
(``suites.run_suite``); its children on pool threads overlap one another,
so that parent subtracts the union of their intervals, not their sum.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import itertools
import threading
import time
import weakref
from array import array

MODULES = ("gf", "matroid", "catalog", "templates", "suites", "cli")
SPAN_LIMIT = 500_000  # spans kept for the trace file; aggregates count every call

SEARCH = ("matroid.find_isomorphism", "matroid.find_embedding")
VERIFY = ("matroid.verify_bijection", "matroid.verify_embedding", "matroid.verify_witness")
CONSTRUCT = tuple(f"matroid.LinearMatroid.{m}" for m in
                  ("__init__", "delete", "restrict", "contract", "minor", "simplify", "dual"))
RANK = "matroid.LinearMatroid.rank"
CONSTRUCTED = ("GFMatrix", "LinearMatroid")  # classes whose constructor is traced too


def wrap_targets(package):
    """(span name, owner, attribute) for everything the tracer wraps.

    Module-level functions are listed once per namespace that binds them,
    the package namespace included, so that callers which imported a name
    directly are traced too.
    """
    modules = {name: getattr(package, name) for name in MODULES}
    namespaces = [package, *modules.values()]
    targets = []
    for short, mod in modules.items():
        for attr, obj in sorted(vars(mod).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                for ns in namespaces:
                    for bound, value in sorted(vars(ns).items()):
                        if value is obj:
                            targets.append((f"{short}.{attr}", ns, bound))
            elif inspect.isclass(obj):
                for meth, raw in sorted(vars(obj).items()):
                    public = not meth.startswith("_") or (meth == "__init__" and attr in CONSTRUCTED)
                    if public and (inspect.isfunction(raw) or isinstance(raw, (classmethod, staticmethod))):
                        targets.append((f"{short}.{attr}.{meth}", obj, meth))
    return targets


class _Frame:
    __slots__ = ("name", "start", "child", "span", "parent_span", "parent_name",
                 "cpu", "pooled")

    def __init__(self, name, start, span, parent_span, parent_name):
        self.name = name
        self.start = start
        self.child = 0.0
        self.span = span
        self.parent_span = parent_span
        self.parent_name = parent_name
        self.cpu = None
        self.pooled = None  # intervals of children that ran on pool threads


def covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


class Tracer:
    """Records spans and per-(name, parent) aggregates for one traced pass."""

    def __init__(self, package):
        self.package = package
        self.names: dict[str, int] = {}
        self.op = -1
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._threads: list[dict] = []
        self._main = self._state()
        self._patches: list[tuple[object, str, object]] = []
        self._rank_seen: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self.rank_repeats = 0
        self.pool_wait = 0.0

    # -- per-thread state ------------------------------------------------------

    def _state(self) -> dict:
        st = getattr(self._local, "st", None)
        if st is None:
            spans = (array("q"), array("q"), array("i"), array("i"), array("d"), array("d"))
            with self._lock:
                st = {"stack": [], "agg": {}, "spans": spans, "thread": len(self._threads)}
                self._threads.append(st)
            self._local.st = st
        return st

    def name_id(self, name: str) -> int:
        with self._lock:
            return self.names.setdefault(name, len(self.names))

    # -- spans -------------------------------------------------------------------

    def enter(self, name_id: int) -> _Frame:
        st = self._state()
        stack = st["stack"]
        span = next(self._ids)
        if stack:
            parent = stack[-1]
        elif st is not self._main and self._main["stack"]:
            parent = self._main["stack"][-1]
        else:
            parent = None
        frame = _Frame(name_id, 0.0, span, parent.span if parent else -1,
                       parent.name if parent else -1)
        if not stack and parent is not None:
            frame.cpu = time.thread_time()
        stack.append(frame)
        frame.start = time.perf_counter()
        return frame

    def exit(self, frame: _Frame, result=None, error: bool = False) -> None:
        end = time.perf_counter()
        st = self._state()
        stack = st["stack"]
        dur = end - frame.start
        inner = frame.child
        if frame.pooled:
            inner += covered(frame.pooled)
        key = (frame.name, frame.parent_name)
        row = st["agg"].get(key)
        if row is None:
            row = st["agg"][key] = [0, 0.0, 0.0, 0, 0]
        row[0] += 1
        row[1] += dur
        row[2] += dur - inner
        row[3] += error
        row[4] += not error and result is not None and result is not False
        if frame.span < SPAN_LIMIT:
            ids, parents, names, ops, starts, ends = st["spans"]
            ids.append(frame.span)
            parents.append(frame.parent_span)
            names.append(frame.name)
            ops.append(self.op)
            starts.append(frame.start)
            ends.append(end)
        stack.pop()
        if stack:
            stack[-1].child += dur
        elif frame.cpu is not None:
            wait = dur - (time.thread_time() - frame.cpu)
            parent = next((f for f in reversed(self._main["stack"])
                           if f.span == frame.parent_span), None)
            with self._lock:
                self.pool_wait += wait
                if parent is not None:
                    if parent.pooled is None:
                        parent.pooled = []
                    parent.pooled.append((frame.start, end))

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span of the given name."""
        return self._wrap(name, fn)(*args, **kwargs)

    def _note_rank(self, args) -> None:
        m = args[0]
        subset = args[1] if len(args) > 1 else None
        key = None if subset is None else tuple(sorted(set(subset)))
        with self._lock:
            seen = self._rank_seen.setdefault(m, set())
            if key in seen:
                self.rank_repeats += 1
            else:
                seen.add(key)

    def _wrap(self, name: str, fn):
        nid = self.name_id(name)
        note = self._note_rank if name == RANK else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if note is not None:
                note(args)
            frame = self.enter(nid)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.exit(frame, error=True)
                raise
            self.exit(frame, result)
            return result

        wrapper.__perfbench_original__ = fn
        return wrapper

    # -- patching ------------------------------------------------------------------

    def install(self) -> None:
        wrapped: dict[int, object] = {}
        for name, owner, attr in wrap_targets(self.package):
            raw = inspect.getattr_static(owner, attr)
            if isinstance(raw, (classmethod, staticmethod)):
                new = type(raw)(self._wrap(name, raw.__func__))
            else:
                new = wrapped.get(id(raw))
                if new is None:
                    new = wrapped[id(raw)] = self._wrap(name, raw)
            self._patches.append((owner, attr, raw))
            setattr(owner, attr, new)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    # -- results ---------------------------------------------------------------------

    def aggregate(self) -> dict[tuple[str, str], list]:
        """(name, parent name) -> [calls, total_s, self_s, errors, positive]."""
        by_id = {i: n for n, i in self.names.items()}
        out: dict[tuple[str, str], list] = {}
        for st in self._threads:
            for (nid, pid), row in st["agg"].items():
                key = (by_id[nid], by_id.get(pid, ""))
                acc = out.setdefault(key, [0, 0.0, 0.0, 0, 0])
                for i, v in enumerate(row):
                    acc[i] += v
        return out

    def span_count(self) -> int:
        return sum(len(st["spans"][0]) for st in self._threads)

    def write_spans(self, path: str, t0: float) -> None:
        """One line per kept span: id, parent, thread, op, name, start and
        end in microseconds after t0."""
        by_id = {i: n for n, i in self.names.items()}
        with gzip.open(path, "wt", compresslevel=1, encoding="ascii") as fh:
            fh.write("span\tparent\tthread\top\tname\tstart_us\tend_us\n")
            for st in self._threads:
                for sid, par, nid, op, s, e in zip(*st["spans"]):
                    fh.write(f"{sid}\t{par}\t{st['thread']}\t{op}\t{by_id[nid]}"
                             f"\t{(s - t0) * 1e6:.1f}\t{(e - t0) * 1e6:.1f}\n")


def patched_names(package) -> list[str]:
    """Every wrapped name still in place; empty after a clean uninstall."""
    left = []
    for name, owner, attr in wrap_targets(package):
        raw = inspect.getattr_static(owner, attr)
        fn = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
        if hasattr(fn, "__perfbench_original__"):
            left.append(f"{name} ({attr})")
    return left


def layer_metrics(agg: dict[tuple[str, str], list], rank_repeats: int,
                  pool_wait_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, name -> (value, unit), from the aggregates."""
    def pick(names, parents=None):
        rows = [row for (n, par), row in agg.items()
                if n in names and (parents is None or par in parents)]
        return [sum(r[i] for r in rows) for i in range(5)]

    def calls(names, parents=None):
        return (pick(names, parents)[0], "count")

    def self_ms(names):
        return (pick(names)[2] * 1000.0, "ms")

    def ratio(num, den):
        return (num / den if den else 0.0, "ratio")

    def module(mod):
        return tuple({n for n, _ in agg if n.split(".")[0] == mod})

    rank = pick((RANK,))
    leaf = pick(("matroid.verify_bijection", "matroid.verify_embedding"), SEARCH)
    sub = pick(("templates.find_submatrix",))
    m = {
        "cli.main.self_ms": self_ms(("cli.main",)),
        "suites.run_suite.self_ms": self_ms(("suites.run_suite",)),
        "suites.wait_ms": (pool_wait_s * 1000.0, "ms"),
        "catalog.named.calls": calls(("catalog.named",)),
        "catalog.named.self_ms": self_ms(("catalog.named",)),
        "gf.matrix_new.calls": calls(("gf.GFMatrix.__init__",)),
        "gf.column.calls": calls(("gf.GFMatrix.column",)),
        "gf.rref.calls": calls(("gf.GFMatrix.rref",)),
        "gf.self_ms": self_ms(module("gf")),
        "matroid.rank.calls": (rank[0], "count"),
        "matroid.rank.self_ms": (rank[2] * 1000.0, "ms"),
        "matroid.rank.repeat_ratio": ratio(rank_repeats, rank[0]),
        "matroid.search.calls": calls(SEARCH),
        "matroid.search.self_ms": self_ms(SEARCH),
        "matroid.search.leaf_checks": (leaf[0], "count"),
        "matroid.search.leaf_yield": ratio(leaf[4], leaf[0]),
        "matroid.verify.calls": calls(VERIFY),
        "matroid.verify.self_ms": self_ms(VERIFY),
        "matroid.has_minor.calls": calls(("matroid.has_minor",)),
        "matroid.has_minor.self_ms": self_ms(("matroid.has_minor",)),
        "matroid.has_minor.embed_calls": calls(("matroid.find_embedding",), ("matroid.has_minor",)),
        "matroid.construct.calls": calls(CONSTRUCT),
        "matroid.construct.self_ms": self_ms(CONSTRUCT),
        "templates.classify.calls": calls(("templates.classify_Y_template",)),
        "templates.classify.self_ms": self_ms(("templates.classify_Y_template",)),
        "templates.find_submatrix.calls": (sub[0], "count"),
        "templates.find_submatrix.self_ms": (sub[2] * 1000.0, "ms"),
        "templates.find_submatrix.hit_ratio": ratio(sub[4], sub[0]),
        "templates.verify_classification.self_ms": self_ms(("templates.verify_classification",)),
    }
    for mod in MODULES:
        m[f"{mod}.errors"] = (pick(module(mod))[3], "count")
    return m
