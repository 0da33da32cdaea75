"""Spans and exact counters recorded from outside the program.

``Tracer.install`` replaces each public entry point of ``curvelift`` with a
timing wrapper, in every module namespace that holds it: a caller looks a
name up in its own module (``curvelift.implicitize.lattice_slice``,
``curvelift.oracle.sylvester_det``), so patching only the defining module
would miss calls. Methods are patched on their class, aliases such as
``__rmul__ = __mul__`` included. ``uninstall`` restores every original.

Spans live in flat in-memory arrays (name, parent, start, end) and are
written out once at the end. A span's self time is its duration minus the
durations of its children; no entry point calls itself, so summing a
name's durations counts no interval twice.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from collections import Counter
from pathlib import Path


def _count_uni_mul(counts, args, result):
    a, b = args
    if type(b) is type(a):
        counts["algebra.uni_mul_term_pairs"] += len(a.terms()) * len(b.terms())


def _count_bi_mul(counts, args, result):
    a, b = args
    if type(b) is type(a):
        counts["algebra.bi_mul_term_pairs"] += len(a) * len(b)


def _count_slice(counts, args, result):
    counts["polygon.slice_points"] += len(result)


def _count_lift(counts, args, result):
    counts["implicitize.lift_iterations"] += len(result[2])


# spans whose (curve, level) pairs give the lift-versus-resultant ratio;
# the value reads the level off the call's arguments
_LEVEL_OF = {
    "implicitize.lift": lambda args: args[2],
    "oracle.resultant_implicitize": lambda args: args[0].level,
}

# (module, attribute, counter): the entry points the benchmark wraps
ENTRY_POINTS = (
    ("cli", "load_curve", None),
    ("cli", "branch_from_file", None),
    ("chardata", "validate_branch", None),
    ("implicitize", "implicitize_all", None),
    ("implicitize", "lift", _count_lift),
    ("implicitize", "certify", None),
    ("polygon", "lattice_slice", _count_slice),
    ("semigroup", "generators", None),
    ("semigroup", "semigroup_member", None),
    ("parametrize", "truncation", None),
    ("parametrize", "Parametrization.pullback", None),
    ("parametrize", "valuation_table", None),
    ("weierstrass", "is_weierstrass", None),
    ("oracle", "resultant_implicitize", None),
    ("algebra", "sylvester_det", None),
    ("algebra", "bipoly_exact_div", None),
    ("algebra", "UniPoly.__mul__", _count_uni_mul),
    ("algebra", "BiPoly.__mul__", _count_bi_mul),
    ("algebra", "PowerChain.get", None),
    ("cli", "chain_to_doc", None),
)


class Tracer:
    """Records spans and counters while installed."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._patches: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        """Drop recorded spans and counters; patches stay installed."""
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts: Counter = Counter()
        self.calls: Counter = Counter()
        self.level_spans: list[tuple[str, int, int, int]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, count=None):
        """``fn`` inside a span called ``name``; ``count(counts, args,
        result)`` then updates the exact counters."""
        nid = self._name_id(name)
        level_of = _LEVEL_OF.get(name)
        clock = time.perf_counter
        tr = self

        def traced(*args, **kwargs):
            idx = len(tr.name_of)
            tr.name_of.append(nid)
            tr.parent.append(tr._stack[-1])
            tr.start.append(0.0)
            tr.end.append(0.0)
            tr._stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                tr.end[idx] = clock()
                tr.start[idx] = t0
                tr._stack.pop()
            tr.calls[name] += 1
            if count is not None:
                count(tr.counts, args, result)
            if level_of is not None:
                tr.level_spans.append((name, tr._stack[1], level_of(args), idx))
            return result

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr: str, name: str, count=None) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, count))

    def install(self, package: str = "curvelift") -> None:
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == package or n.startswith(package + ".")]
        for mod_name, attr, count in ENTRY_POINTS:
            home = sys.modules[f"{package}.{mod_name}"]
            name = f"{mod_name}.{attr}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[meth]
                wrapped = self.wrap(name, original, count)
                for key, value in list(vars(cls).items()):
                    if value is original:
                        self._patches.append((cls, key, original))
                        setattr(cls, key, wrapped)
                continue
            original = getattr(home, attr)
            wrapped = self.wrap(name, original, count)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapped)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # derived numbers

    def per_name(self) -> dict[str, tuple[float, float]]:
        """name -> (total duration, total self time) over recorded spans."""
        n = len(self.name_of)
        child = array("d", bytes(8 * n))
        parent, start, end = self.parent, self.start, self.end
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        out: dict[str, list[float]] = {}
        for i in range(n):
            dur = end[i] - start[i]
            acc = out.setdefault(self.names[self.name_of[i]], [0.0, 0.0])
            acc[0] += dur
            acc[1] += dur - child[i]
        return {k: (v[0], v[1]) for k, v in out.items()}

    def lift_speedup_parts(self) -> tuple[float, float]:
        """(resultant seconds, lift seconds) over levels where both ran."""
        by_kind: dict[str, dict[tuple[int, int], float]] = {}
        for kind, root, level, idx in self.level_spans:
            by_kind.setdefault(kind, {})[(root, level)] = self.end[idx] - self.start[idx]
        lifts = by_kind.get("implicitize.lift", {})
        res = by_kind.get("oracle.resultant_implicitize", {})
        both = lifts.keys() & res.keys()
        return sum(res[k] for k in both), sum(lifts[k] for k in both)

    def write(self, path: Path) -> None:
        """Spans as columns: name id, parent index, start and end seconds."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.start[0] if len(self.start) else 0.0
        doc = {
            "names": self.names,
            "name": self.name_of.tolist(),
            "parent": self.parent.tolist(),
            "start": [round(t - t0, 7) for t in self.start],
            "end": [round(t - t0, 7) for t in self.end],
            "counts": dict(self.counts),
        }
        path.write_text(json.dumps(doc, separators=(",", ":")) + "\n")
