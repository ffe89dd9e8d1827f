"""Spans and counters recorded around calls into towertop, from outside it.

``Tracer.installed()`` replaces each traced function by a wrapper in
every loaded towertop module that binds it by name (``smith_normal_form``
lives in ``abelian`` and is also bound in ``simplicial``; ``homology`` is
also bound in ``tower``), and wraps the methods of the three abelian
classes on the class itself.  Everything is restored on exit.

A span is (id, parent id, job id, name, start, end, cover end).  Spans
are kept in memory and written out by ``write``.  Bookkeeping for
counters runs between ``end`` and ``cover end``: it is excluded from
every layer's self time and from the unattributed time.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from collections import defaultdict

# layer name -> (module, function) pairs
FUNCTIONS = {
    "cli.decode": [("towertop.cli", "deserialize")],
    "cli.emit": [("towertop.cli", "serialize"), ("towertop.cli", "_emit")],
    "abelian.smith": [("towertop.abelian", "smith_normal_form")],
    "simplicial.boundary": [("towertop.simplicial", "boundary_matrix")],
    "simplicial.homology": [("towertop.simplicial", "homology"), ("towertop.simplicial", "cohomology")],
    "simplicial.induced": [
        ("towertop.simplicial", "induced_map"),
        ("towertop.simplicial", "induced_cohomology_map"),
    ],
    "simplicial.telescope": [
        ("towertop.simplicial", "finite_telescope"),
        ("towertop.simplicial", "pinched_telescope"),
    ],
    "tower.build": [("towertop.tower", "homology_tower"), ("towertop.tower", "cohomology_system")],
    "tower.limits": [
        ("towertop.tower", "lim1_class"),
        ("towertop.tower", "tower_lim"),
        ("towertop.tower", "ml_status"),
        ("towertop.tower", "colim_direct_system"),
    ],
    "tower.periodic": [("towertop.tower", "periodic_lim")],
    "compactohedral.validate": [("towertop.compactohedral", "validate")],
    "compactohedral.gallery": [("towertop.compactohedral", "build_gallery")],
    "assembly.report": [
        ("towertop.assembly", "steenrod_report"),
        ("towertop.assembly", "cech_cohomology_report"),
        ("towertop.assembly", "petkova_report"),
    ],
    "nerve.nerve": [("towertop.nerve", "nerve")],
    "nerve.lebesgue": [("towertop.nerve", "lebesgue_number")],
}

# layer name -> (module, class); every method defined on the class is traced
CLASSES = {
    "abelian.group": ("towertop.abelian", "FGAbelianGroup"),
    "abelian.subgroup": ("towertop.abelian", "Subgroup"),
    "abelian.hom": ("towertop.abelian", "GroupHom"),
}
_UNTRACED_DUNDERS = {"__eq__", "__hash__", "__repr__"}

# per-layer metrics; every one is reported by every traced run
TIME_LAYERS = [
    "cli.decode", "cli.emit", "abelian.smith", "abelian.group", "abelian.subgroup",
    "abelian.hom", "simplicial.boundary", "simplicial.homology", "simplicial.induced",
    "simplicial.telescope", "tower.build", "tower.limits", "tower.periodic",
    "compactohedral.validate", "compactohedral.gallery", "assembly.report",
    "nerve.nerve", "nerve.lebesgue",
]
CALL_LAYERS = [
    "abelian.smith", "abelian.group", "abelian.subgroup", "abelian.hom",
    "simplicial.boundary", "simplicial.homology", "simplicial.induced", "assembly.report",
]
COUNTERS = {
    "abelian.smith.distinct": "count",
    "abelian.smith.cells": "count",
    "abelian.smith.max_cells": "count",
    "abelian.smith.max_bits": "bits",
    "simplicial.boundary.nonzeros": "count",
    "simplicial.telescope.simplexes": "count",
    "tower.limits.smith_calls": "count",
    "nerve.nerve.simplexes": "count",
}


def per_layer_units() -> dict:
    """Name -> unit of every per-layer metric, in report order."""
    units = {"cli.import_s": "s"}
    units.update({f"{layer}.self_s": "s" for layer in TIME_LAYERS})
    units.update({f"{layer}.calls": "count" for layer in CALL_LAYERS})
    units.update(COUNTERS)
    units["abelian.smith.useful_ratio"] = "ratio"
    units["unattributed_s"] = "s"
    units["trace.overhead_s"] = "s"
    units["trace.spans"] = "count"
    units["host.slowdown"] = "ratio"
    return units


def _max_bits(matrix) -> int:
    return max((abs(x).bit_length() for row in matrix.rows for x in row), default=0)


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self.maxima = defaultdict(int)
        self.smith_seen = set()
        self.active = defaultdict(int)
        self._stack = []
        self._next_id = 0
        self.job_id = None
        self.import_times = []  # CLI children's `import towertop.cli`, seconds

    # -- spans ------------------------------------------------------------------

    def _open(self, layer):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        self.active[layer] += 1
        return sid, parent

    def _close(self, layer, name, sid, parent, start, end):
        self._stack.pop()
        self.active[layer] -= 1
        self.spans.append((sid, parent, self.job_id, name, start, end, time.perf_counter()))

    @contextlib.contextmanager
    def job(self, job_id):
        """Root span of one job; every traced call inside it is its descendant."""
        self.job_id = job_id
        sid, parent = self._open("job")
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._close("job", "job", sid, parent, start, end)
            self.job_id = None

    def wrap(self, layer, fn):
        name = f"{layer}:{fn.__qualname__}"
        note = getattr(self, "_note_" + layer.replace(".", "_"), None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid, parent = self._open(layer)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end = time.perf_counter()
                self._close(layer, name, sid, parent, start, end)
                raise
            end = time.perf_counter()
            self.counts[layer + ".calls"] += 1
            if note is not None:
                note(args, result)
            self._close(layer, name, sid, parent, start, end)
            return result

        return traced

    # -- counters, keyed by layer ---------------------------------------------------

    def _note_abelian_smith(self, args, result):
        m = args[0]
        self.smith_seen.add(hash((m.nrows, m.ncols, m.rows)))
        cells = m.nrows * m.ncols
        self.counts["abelian.smith.cells"] += cells
        self.maxima["abelian.smith.max_cells"] = max(self.maxima["abelian.smith.max_cells"], cells)
        bits = max(_max_bits(result.u), _max_bits(result.v))
        self.maxima["abelian.smith.max_bits"] = max(self.maxima["abelian.smith.max_bits"], bits)
        if self.active["tower.limits"]:
            self.counts["tower.limits.smith_calls"] += 1

    def _note_simplicial_boundary(self, args, result):
        self.counts["simplicial.boundary.nonzeros"] += sum(
            1 for row in result.rows for x in row if x
        )

    def _note_simplicial_telescope(self, args, result):
        self.counts["simplicial.telescope.simplexes"] += len(result.complex.simplexes)

    def _note_nerve_nerve(self, args, result):
        self.counts["nerve.nerve.simplexes"] += len(result.simplexes)

    # -- installation ------------------------------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        """Wrap every traced function and method for the duration of the block."""
        undo = []
        loaded = {name: mod for name, mod in sys.modules.items() if name.startswith("towertop")}
        for layer, targets in FUNCTIONS.items():
            for module, attr in targets:
                if module not in loaded:
                    continue
                original = getattr(loaded[module], attr)
                traced = self.wrap(layer, original)
                for mod in loaded.values():
                    if getattr(mod, attr, None) is original:
                        undo.append((mod, attr, original))
                        setattr(mod, attr, traced)
        for layer, (module, cls_name) in CLASSES.items():
            if module not in loaded:
                continue
            cls = getattr(loaded[module], cls_name)
            for attr, value in list(vars(cls).items()):
                if isinstance(value, staticmethod):
                    traced = staticmethod(self.wrap(layer, value.__func__))
                elif isinstance(value, classmethod):
                    traced = classmethod(self.wrap(layer, value.__func__))
                elif callable(value) and attr not in _UNTRACED_DUNDERS and (
                    not attr.startswith("__") or attr == "__init__"
                ):
                    traced = self.wrap(layer, value)
                else:
                    continue
                undo.append((cls, attr, value))
                setattr(cls, attr, traced)
        try:
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    # -- results ---------------------------------------------------------------------

    def layer_times(self) -> tuple:
        """(self seconds per layer, unattributed seconds) over all recorded spans."""
        cover = defaultdict(float)
        for sid, parent, _, _, start, _, cover_end in self.spans:
            if parent is not None:
                cover[parent] += cover_end - start
        self_s = defaultdict(float)
        unattributed = 0.0
        for sid, _, _, name, start, end, _ in self.spans:
            own = end - start - cover[sid]
            if name == "job":
                unattributed += own
            else:
                self_s[name.split(":", 1)[0]] += own
        return self_s, unattributed

    def counters(self) -> dict:
        out = dict(self.counts)
        out.update(self.maxima)
        out["abelian.smith.distinct"] = len(self.smith_seen)
        return out

    def dump(self) -> dict:
        """Spans and counters as one JSON-ready object."""
        return {
            "spans": self.spans,
            "counters": self.counters(),
            "smith_seen": sorted(self.smith_seen),
        }

    def write(self, path: str, extra: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**extra, **self.dump()}, fh)


def merge_into(tracer: Tracer, data: dict, job_id) -> None:
    """Add a child process's dumped spans and counters to ``tracer``.

    Span ids are offset so they stay unique; the child's root spans
    take ``job_id``.
    """
    offset = tracer._next_id
    top = offset
    for sid, parent, _, name, start, end, cover_end in data["spans"]:
        tracer.spans.append(
            (sid + offset, None if parent is None else parent + offset, job_id, name, start, end, cover_end)
        )
        top = max(top, sid + offset + 1)
    tracer._next_id = top
    for key, value in data["counters"].items():
        if key in ("abelian.smith.max_cells", "abelian.smith.max_bits"):
            tracer.maxima[key] = max(tracer.maxima[key], value)
        elif key != "abelian.smith.distinct":
            tracer.counts[key] += value
    tracer.smith_seen.update(data.get("smith_seen", ()))
