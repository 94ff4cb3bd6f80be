"""Outside-in tracing of gmepw's public entry points.

The tracer wraps library functions from the benchmark's side; nothing under
``src/`` changes.  Methods are patched on their class.  Module functions are
patched in every ``gmepw`` module namespace that holds them by name, so a
call through ``from .linalg import kernel`` is traced as well as a call
through ``linalg.kernel``.  A function so hot that a span would dominate its
time (``exterior.wedge``) is counted, not spanned.

Each span records its name, start, end, parent span and op id.  Spans stay
in memory and are written out once, when the run ends.  A span's self time
is its duration minus the durations of its child spans; one thread means
the children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

# (module, attribute, span name) of the spanned module functions.
SPANNED_FUNCTIONS = (
    ("gmepw.linalg", "kernel", "linalg.kernel"),
    ("gmepw.exterior", "wedge_space", "exterior.wedge_space"),
    ("gmepw.polynomials", "interpolate", "polynomials.interpolate"),
    ("gmepw.polynomials", "poly_gcd", "polynomials.poly_gcd"),
    ("gmepw.epw", "stratum_poly_on_line", "epw.stratum_poly_on_line"),
    ("gmepw.epw", "y_stratum", "epw.y_stratum"),
    ("gmepw.epw", "z_stratum", "epw.z_stratum"),
    ("gmepw.quadrics", "isotropic_reduce", "quadrics.isotropic_reduce"),
    ("gmepw.quadrics", "_induced_quadric", "quadrics.induced_quadric"),
    ("gmepw.fibrations", "fibration1_fiber", "fibrations.fibration1_fiber"),
    ("gmepw.fibrations", "fibration2_fiber", "fibrations.fibration2_fiber"),
    ("gmepw.fibrations", "sigma1_level", "fibrations.sigma1_level"),
    ("gmepw.fibrations", "sigma2_level", "fibrations.sigma2_level"),
    ("gmepw.correspondence", "dim_report", "correspondence.dim_report"),
    ("gmepw.correspondence", "gm_to_lagrangian", "correspondence.gm_to_lagrangian"),
    ("gmepw.correspondence", "lagrangian_to_gm", "correspondence.lagrangian_to_gm"),
    ("gmepw.correspondence", "hyperplane_section_lagrangian",
     "correspondence.hyperplane_section_lagrangian"),
    ("gmepw.correspondence", "dualize", "correspondence.dualize"),
    ("gmepw.gm", "validate", "gm.validate"),
    ("gmepw.gm", "discriminant_on_line", "gm.discriminant_on_line"),
    ("gmepw.gm", "opposite", "gm.opposite"),
    ("gmepw.gm", "hull_point_sample", "gm.hull_point_sample"),
    ("gmepw.io", "parse", "io.parse"),
    ("gmepw.io", "emit", "io.emit"),
    ("gmepw.cli", "main", "cli.main"),
)
# (module, class, method, span name) of the spanned methods.
SPANNED_METHODS = (
    ("gmepw.linalg", "Matrix", "rref", "linalg.rref"),
    ("gmepw.linalg", "Matrix", "det", "linalg.det"),
    ("gmepw.linalg", "Subspace", "intersect", "linalg.intersect"),
)
COUNTED_FUNCTIONS = (("gmepw.exterior", "wedge", "exterior.wedge"),)
COUNTED_NAMES = {name for _, _, name in COUNTED_FUNCTIONS}


def _bits(x) -> int:
    return max(x.numerator.bit_length(), x.denominator.bit_length())


# What a span notes about its arguments and result, read by the metrics below.
NOTES = {
    "linalg.rref": lambda args, res: args[0].rows * args[0].cols,
    "linalg.det": lambda args, res: _bits(res),
    "polynomials.poly_gcd": lambda args, res: (args[0].degree, res.degree),
    "epw.stratum_poly_on_line": lambda args, res: res.sample_consistency,
    "io.parse": lambda args, res: len(args[0]),
    "io.emit": lambda args, res: len(res),
}

FIBER_SPANS = ("fibrations.fibration1_fiber", "fibrations.fibration2_fiber")
REDUCTION_PATH = ("quadrics.isotropic_reduce", "quadrics.induced_quadric")
CLOSED_FORM_PATH = ("fibrations.sigma1_level", "fibrations.sigma2_level", "epw.y_stratum",
                    "epw.z_stratum", "correspondence.dim_report")
CERTIFICATE = "epw.stratum_poly_on_line"

# name -> unit of every per-layer metric, in report order.
LAYER_METRICS = {
    "linalg.rref.calls": "count",
    "linalg.rref.self_s": "s",
    "linalg.rref.cells": "count",
    "linalg.kernel.calls": "count",
    "linalg.kernel.self_s": "s",
    "linalg.intersect.calls": "count",
    "linalg.intersect.self_s": "s",
    "linalg.det.calls": "count",
    "linalg.det.self_s": "s",
    "linalg.det.max_bits": "bits",
    "exterior.wedge_space.calls": "count",
    "exterior.wedge_space.self_s": "s",
    "exterior.wedge.calls": "count",
    "polynomials.interpolate.calls": "count",
    "polynomials.interpolate.self_s": "s",
    "polynomials.poly_gcd.calls": "count",
    "polynomials.poly_gcd.self_s": "s",
    "epw.stratum_poly_on_line.self_s": "s",
    "epw.y_stratum.calls": "count",
    "epw.y_stratum.self_s": "s",
    "epw.z_stratum.calls": "count",
    "epw.z_stratum.self_s": "s",
    "epw.compressions_tried": "count",
    "epw.compressions_useful_ratio": "ratio",
    "epw.sample_check_ratio": "ratio",
    "quadrics.isotropic_reduce.calls": "count",
    "quadrics.isotropic_reduce.self_s": "s",
    "fibrations.reduction_path_s": "s",
    "fibrations.closed_form_path_s": "s",
    "correspondence.dim_report.calls": "count",
    "correspondence.gm_to_lagrangian.self_s": "s",
    "correspondence.lagrangian_to_gm.self_s": "s",
    "correspondence.hyperplane_section_lagrangian.self_s": "s",
    "gm.validate.self_s": "s",
    "gm.discriminant_on_line.self_s": "s",
    "io.parse.self_s": "s",
    "io.emit.self_s": "s",
    "io.bytes_in": "bytes",
    "io.bytes_out": "bytes",
    "cli.main.self_s": "s",
    "trace.overhead_pct": "%",
}


class Tracer:
    """Spans and counts of one traced pass, kept in parallel lists."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.op_ids: list[int] = []
        self.notes: list = []
        self.counts: dict[str, int] = defaultdict(int)
        self.op_id = -1
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # ----------------------------------------------------------- wrapping

    def _spanned(self, name: str, fn):
        note = NOTES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(self.names)
            self.names.append(name)
            self.parents.append(self._stack[-1] if self._stack else -1)
            self.op_ids.append(self.op_id)
            self.notes.append(None)
            self.starts.append(0.0)
            self.ends.append(0.0)
            self._stack.append(i)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                self._stack.pop()
                self.starts[i] = t0
                self.ends[i] = t1
            if note is not None:
                self.notes[i] = note(args, result)
            return result

        return wrapper

    def _counted(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _replace_everywhere(self, original, wrapper) -> None:
        for modname, mod in list(sys.modules.items()):
            if modname != "gmepw" and not modname.startswith("gmepw."):
                continue
            for attr in [k for k, v in vars(mod).items() if v is original]:
                setattr(mod, attr, wrapper)
                self._undo.append((mod, attr, original))

    def install(self) -> None:
        for modname, attr, name in SPANNED_FUNCTIONS + COUNTED_FUNCTIONS:
            original = getattr(importlib.import_module(modname), attr)
            make = self._counted if name in COUNTED_NAMES else self._spanned
            self._replace_everywhere(original, make(name, original))
        for modname, clsname, attr, name in SPANNED_METHODS:
            cls = getattr(importlib.import_module(modname), clsname)
            original = vars(cls)[attr]
            setattr(cls, attr, self._spanned(name, original))
            self._undo.append((cls, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # ------------------------------------------------------------ results

    def _has_ancestor(self, i: int, names) -> bool:
        p = self.parents[i]
        while p >= 0:
            if self.names[p] in names:
                return True
            p = self.parents[p]
        return False

    def self_times(self) -> tuple[dict[str, float], dict[str, int]]:
        """Total self time and call count per span name."""
        n = len(self.names)
        dur = [self.ends[i] - self.starts[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            if self.parents[i] >= 0:
                child[self.parents[i]] += dur[i]
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for i in range(n):
            self_s[self.names[i]] += dur[i] - child[i]
            calls[self.names[i]] += 1
        return self_s, calls

    def layer_metrics(self, overhead_pct: float, host_factor: float) -> dict[str, float]:
        """Every metric of LAYER_METRICS over the traced spans; times in
        seconds are multiplied by host_factor (see hostclock.py)."""
        self_s, calls = self.self_times()
        idx = defaultdict(list)
        for i, name in enumerate(self.names):
            idx[name].append(i)

        def notes(name):  # spans that raised have no note
            return [self.notes[i] for i in idx[name] if self.notes[i] is not None]

        def in_cert(name):
            return [i for i in idx[name] if self._has_ancestor(i, (CERTIFICATE,))]

        def path_s(names):
            return sum(self.ends[i] - self.starts[i] for name in names for i in idx[name]
                       if self.parents[i] >= 0 and self.names[self.parents[i]] in FIBER_SPANS)

        tried = len(in_cert("polynomials.interpolate"))
        useful = sum(1 for i in in_cert("polynomials.poly_gcd")
                     if self.notes[i] is not None and self.notes[i][1] < self.notes[i][0])
        checked = sum(notes(CERTIFICATE))
        membership = len(in_cert("epw.y_stratum")) + len(in_cert("epw.z_stratum"))
        out = {}
        for metric in LAYER_METRICS:
            span, _, field = metric.rpartition(".")
            if field == "calls":
                out[metric] = self.counts[span] if span in COUNTED_NAMES else calls[span]
            elif field == "self_s":
                out[metric] = self_s[span]
        out.update({
            "linalg.rref.cells": sum(notes("linalg.rref")),
            "linalg.det.max_bits": max(notes("linalg.det"), default=0),
            "epw.compressions_tried": tried,
            "epw.compressions_useful_ratio": useful / tried if tried else 0.0,
            "epw.sample_check_ratio": checked / membership if membership else 0.0,
            "fibrations.reduction_path_s": path_s(REDUCTION_PATH),
            "fibrations.closed_form_path_s": path_s(CLOSED_FORM_PATH),
            "io.bytes_in": sum(notes("io.parse")),
            "io.bytes_out": sum(notes("io.emit")),
            "trace.overhead_pct": overhead_pct,
        })
        return {metric: out[metric] * host_factor if unit == "s" else out[metric]
                for metric, unit in LAYER_METRICS.items()}

    def root_time(self) -> float:
        """Time covered by top-level spans: the denominator of self-time shares."""
        return sum(self.ends[i] - self.starts[i] for i, p in enumerate(self.parents) if p < 0)

    def write(self, path: Path) -> None:
        """Write every span as [name, start, end, parent, op id], one per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = min(self.starts, default=0.0)
        with path.open("w", encoding="utf-8") as fh:
            for i, name in enumerate(self.names):
                rec = [name, round(self.starts[i] - t0, 7), round(self.ends[i] - t0, 7),
                       self.parents[i], self.op_ids[i]]
                fh.write(json.dumps(rec) + "\n")
