"""Spans around calls into factorcrit, recorded from outside the program.

The tracer rebinds public functions at every module attribute the program
calls through (``factorcrit.search.is_k_factor_critical``,
``factorcrit.criticality.is_k_factor_critical``, ...) and restores the
originals afterwards.  Each span carries a name, start, end and parent; spans
stay in memory and are written out when the run ends.  Self time is a span's
duration minus the time its child spans cover, accumulated as spans close,
so it stays exact even past the span storage cap.

Two hot methods get counts instead of spans: ``PerfectMatcher.__init__``
and ``PerfectMatcher.pm_exists``, whose count includes recursion and whose
outermost calls are timed without being stored.
"""

from __future__ import annotations

import inspect
import json
import sys
from array import array
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable

# (defining module, function) pairs that get spans; a span is named
# "<module>.<function>" and its layer is the module.
SPANNED = (
    ("graph", "parse_graph6"),
    ("graph", "encode_graph6"),
    ("graph", "remove_edge"),
    ("graph", "add_edge"),
    ("graph", "delete_vertices"),
    ("matching", "maximum_matching"),
    ("matching", "has_perfect_matching"),
    ("matching", "forced_edge"),
    ("matching", "tutte_violators"),
    ("criticality", "is_k_factor_critical"),
    ("criticality", "is_minimally_kfc"),
    ("criticality", "minimality_witness"),
    ("configurations", "certify_minimal_edges"),
    ("configurations", "classify_residual"),
    ("configurations", "config_predicates"),
    ("verifiers", "minimal_verdicts"),
    ("verifiers", "check_conjecture"),
    ("verifiers", "check_degree_bounds"),
    ("verifiers", "check_two_maxdeg_nonadjacent"),
    ("verifiers", "check_maxdeg_profile"),
    ("verifiers", "check_n4_characterization"),
    ("search", "enumerate_catalog"),
    ("search", "generate_nonisomorphic"),
    ("search", "canonical_form"),
    ("search", "survey"),
    ("cli", "main"),
)
# (module, class, method, count key, name its outermost calls are timed as)
COUNTED = (
    ("matching", "PerfectMatcher", "__init__", "matching.PerfectMatcher.instances", None),
    ("matching", "PerfectMatcher", "pm_exists", "matching.pm_exists.calls", "matching.pm_exists"),
)
LAYERS = ("graph", "matching", "criticality", "configurations", "verifiers", "search", "cli")

SPAN_CAP = 300_000


@dataclass
class Stat:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class Tracer:
    def __init__(self) -> None:
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.dropped = 0
        self.stats: dict[str, Stat] = {}
        self.counts: Counter[str] = Counter()
        self.stage_s: Counter[str] = Counter()
        self.observers: dict[str, Callable[[object], None]] = {
            "configurations.certify_minimal_edges": self._observe_certificates,
            "verifiers.minimal_verdicts": self._observe_verdicts,
        }
        self._stack: list[list] = []
        self._last_search_call = ""
        self._patched: list[tuple[object, str, object]] = []
        self._origin = perf_counter()

    # -- spans ---------------------------------------------------------

    def _enter(self, name: str, record: bool = True) -> list:
        parent = self._stack[-1][3] if self._stack else -1
        if not record:
            index = -1
        elif len(self.span_name) < SPAN_CAP:
            index = len(self.span_name)
            self.span_name.append(self._name_ids.setdefault(name, len(self._name_ids)))
            self.span_parent.append(parent)
            self.span_start.append(0.0)
            self.span_end.append(0.0)
        else:
            index = -1
            self.dropped += 1
        frame = [name, 0.0, 0.0, index]
        self._stack.append(frame)
        frame[1] = perf_counter()
        return frame

    def _exit(self, frame: list, count: bool = True) -> float:
        end = perf_counter()
        self._stack.pop()
        name, start, child, index = frame
        duration = end - start
        stat = self.stats.setdefault(name, Stat())
        stat.calls += count
        stat.total_s += duration
        stat.self_s += duration - child
        if self._stack:
            self._stack[-1][2] += duration
        if index >= 0:
            self.span_start[index] = start - self._origin
            self.span_end[index] = end - self._origin
        return duration

    def _wrap(self, name: str, site: str, original: Callable) -> Callable:
        observe = self.observers.get(name)
        stage = name == "criticality.is_k_factor_critical" and site == "search"

        if inspect.isgeneratorfunction(original):
            def wrapper(*args, **kwargs):
                self.stats.setdefault(name, Stat()).calls += 1
                gen = original(*args, **kwargs)
                while True:
                    frame = self._enter(name)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        self._exit(frame, count=False)
                    yield item
        else:
            def wrapper(*args, **kwargs):
                previous = self._last_search_call
                if site == "search":
                    self._last_search_call = name
                frame = self._enter(name)
                try:
                    result = original(*args, **kwargs)
                finally:
                    duration = self._exit(frame)
                if stage:
                    # The first test after each parse is the record's
                    # k-factor-critical stage; the rest test G - e.
                    key = "kfc" if previous == "graph.parse_graph6" else "minimality"
                    self.stage_s[key] += duration
                if observe is not None:
                    observe(result)
                return result

        wrapper.__wrapped__ = original
        return wrapper

    def _count(self, key: str, original: Callable, timed_as: str | None) -> Callable:
        """Count every call; with ``timed_as``, also time the outermost call
        of a recursion as an unrecorded span, so its self time lands in its
        own layer without a span per recursive call."""
        counts = self.counts
        inside = [False]

        def wrapper(*args, **kwargs):
            counts[key] += 1
            if timed_as is None or inside[0]:
                return original(*args, **kwargs)
            inside[0] = True
            frame = self._enter(timed_as, record=False)
            try:
                return original(*args, **kwargs)
            finally:
                self._exit(frame)
                inside[0] = False

        return wrapper

    def _observe_certificates(self, certs: dict) -> None:
        self.counts["certified_edges"] += len(certs)
        self.counts["classified_edges"] += sum(entry.match is not None for entry in certs.values())

    def _observe_verdicts(self, verdicts: list) -> None:
        self.counts["verdicts"] += len(verdicts)
        self.counts["applicable_verdicts"] += sum(v.applicable for v in verdicts)

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        modules = _factorcrit_modules()
        for module_name, func in SPANNED:
            original = getattr(modules[f"factorcrit.{module_name}"], func)
            name = f"{module_name}.{func}"
            for site_name, module in modules.items():
                site = site_name.rpartition(".")[2]
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, attr, original))
                        setattr(module, attr, self._wrap(name, site, original))
        for module_name, cls_name, method, key, timed_as in COUNTED:
            cls = getattr(modules[f"factorcrit.{module_name}"], cls_name)
            original = cls.__dict__[method]
            self._patched.append((cls, method, original))
            setattr(cls, method, self._count(key, original, timed_as))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self):
        snapshot = attribute_snapshot()
        self.install()
        try:
            yield self
        finally:
            self.uninstall()
            left = changed_attributes(snapshot)
            if left:
                raise RuntimeError(f"tracer left factorcrit attributes changed: {left}")

    # -- results ---------------------------------------------------------

    def stat(self, name: str) -> Stat:
        return self.stats.get(name, Stat())

    def layer_self_s(self, layer: str) -> float:
        return sum(s.self_s for n, s in self.stats.items() if n.partition(".")[0] == layer)

    def span_count(self) -> int:
        return len(self.span_name) + self.dropped

    def write(self, path: Path, extra: dict) -> None:
        payload = {
            "names": sorted(self._name_ids, key=self._name_ids.get),
            "stats": {n: vars(s) for n, s in sorted(self.stats.items())},
            "counts": dict(self.counts),
            "stage_s": dict(self.stage_s),
            "spans": {
                "name": self.span_name.tolist(),
                "parent": self.span_parent.tolist(),
                "start_s": self.span_start.tolist(),
                "end_s": self.span_end.tolist(),
            },
            "dropped_spans": self.dropped,
            **extra,
        }
        path.write_text(json.dumps(payload), encoding="utf-8")


def _factorcrit_modules() -> dict[str, object]:
    return {
        name: module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "factorcrit" or name.startswith("factorcrit."))
    }


def attribute_snapshot() -> dict[tuple[str, str], int]:
    """Identity of every attribute of every factorcrit module and class."""
    snap = {}
    for name, module in _factorcrit_modules().items():
        for attr, value in vars(module).items():
            snap[(name, attr)] = id(value)
            if isinstance(value, type) and value.__module__ == name:
                for member, inner in vars(value).items():
                    snap[(f"{name}.{attr}", member)] = id(inner)
    return snap


def changed_attributes(snapshot: dict[tuple[str, str], int]) -> list[str]:
    now = attribute_snapshot()
    keys = snapshot.keys() | now.keys()
    return sorted(f"{owner}.{attr}" for owner, attr in keys if snapshot.get((owner, attr)) != now.get((owner, attr)))
