"""Per-layer tracing of certunlearn from outside the package.

`Tracer.installed()` wraps every public function of the measured modules in
a span (name, start, end, parent, tag) and restores the originals on exit.
Spans are kept in memory in flat arrays; `layer_metrics` turns them into
per-layer counts and self times (a span's duration minus its children's),
and `save` writes them out once the run is over. `pngd.project_ball` and
`pngd.clip_to_norm` are not wrapped: their time counts in their callers'.

Layers are the package modules. Measured: accountant, calibrate,
constants, pngd, objectives, d2d, data, harness. Not measured: cli,
estimators and validation (no paper protocol runs through them) and errors
(types only).
"""
from __future__ import annotations

import contextlib
import dataclasses
import importlib
import inspect
import sys
import time
from array import array

import numpy as np

from certunlearn.errors import CertUnlearnError

MEASURED = ("accountant", "calibrate", "constants", "pngd", "objectives", "d2d",
            "data", "harness")
_BUILDERS = ("logistic_objective", "multiclass_objective", "quadratic_objective")
# Left unwrapped, so their time stays in the caller's self time:
# pngd.pngd_step.self_s is the step without grad, projection included.
_INLINE = ("pngd.project_ball", "pngd.clip_to_norm")

# Per-layer metrics: (name, unit, better, end-to-end metric and workload it
# should move). Values are per traced pass.
LAYER_METRICS = (
    ("accountant.rdp_to_dp.calls", "count", "lower", "units_per_s on calibrate and stream"),
    ("accountant.rdp_to_dp.self_s", "s", "lower", "units_per_s on calibrate and stream"),
    ("accountant.curve_points", "count", "lower", "units_per_s on calibrate and stream"),
    ("accountant.learn_epsilon0.calls", "count", "lower", "units_per_s on stream"),
    ("accountant.learn_epsilon0.self_s", "s", "lower", "units_per_s on stream"),
    ("accountant.unlearn_epsilon.calls", "count", "lower", "units_per_s on calibrate"),
    ("accountant.unlearn_epsilon.self_s", "s", "lower", "units_per_s on calibrate"),
    ("constants.validate_schedule.calls", "count", "lower", "units_per_s on calibrate"),
    ("constants.validate_schedule.self_s", "s", "lower", "units_per_s on calibrate"),
    ("calibrate.binary_search_sigma.self_s", "s", "lower",
     "units_per_s and op_ms.p90 on calibrate"),
    ("calibrate.converted_epsilon.calls", "count", "lower",
     "units_per_s and op_ms.p90 on calibrate"),
    ("calibrate.converted_epsilon.self_s", "s", "lower",
     "units_per_s and op_ms.p90 on calibrate"),
    ("calibrate.find_min_k.calls", "count", "lower", "units_per_s and op_ms.p90 on calibrate"),
    ("calibrate.find_min_k.self_s", "s", "lower", "units_per_s and op_ms.p90 on calibrate"),
    ("calibrate.probes_per_cell", "probes/cell", "lower",
     "units_per_s and op_ms.p90 on calibrate"),
    ("calibrate.sequential_epsilon.calls", "count", "lower", "units_per_s on stream"),
    ("calibrate.sequential_epsilon.self_s", "s", "lower", "units_per_s on stream"),
    ("calibrate.sequential_k_schedule.self_s", "s", "lower", "units_per_s on stream"),
    ("calibrate.probes_per_request", "probes/request", "lower", "units_per_s on stream"),
    ("calibrate.request_ms.last", "ms", "lower", "units_per_s and op_ms.p90 on stream"),
    ("calibrate.typed_errors", "count", "lower", "fail_rate (guard) on calibrate and stream"),
    ("pngd.steps", "count", "lower", "units_per_s on unlearn-synthetic"),
    ("pngd.pngd_step.self_s", "s", "lower", "units_per_s on unlearn-synthetic"),
    ("pngd.train.self_s", "s", "lower", "units_per_s on unlearn-synthetic"),
    ("pngd.unlearn.self_s", "s", "lower", "units_per_s on unlearn-synthetic"),
    ("objectives.grad.calls", "count", "lower", "units_per_s on unlearn-mnist-shape"),
    ("objectives.grad.self_s", "s", "lower", "units_per_s on unlearn-mnist-shape"),
    ("objectives.grad.bytes_computed", "bytes", "lower", "units_per_s on unlearn-mnist-shape"),
    ("objectives.grad.gbps_computed", "GB/s", "higher", "units_per_s on unlearn-mnist-shape"),
    ("objectives.build.self_s", "s", "lower", "units_per_s on both unlearn-*"),
    ("objectives.apply_request.self_s", "s", "lower", "units_per_s on both unlearn-*"),
    ("objectives.evaluate.self_s", "s", "lower", "units_per_s on both unlearn-*"),
    ("d2d.d2d_train.calls", "count", "lower", "units_per_s on unlearn-synthetic"),
    ("d2d.d2d_train.self_s", "s", "lower", "units_per_s on unlearn-synthetic"),
    ("d2d.steps", "count", "lower", "units_per_s on unlearn-synthetic"),
    ("d2d.d2d_unlearn.self_s", "s", "lower", "units_per_s on unlearn-synthetic"),
    ("data.make_synthetic.self_s", "s", "lower",
     "units_per_s (or setup_s) on unlearn-mnist-shape"),
    ("harness.run_unlearn_one.self_s", "s", "lower", "units_per_s on both unlearn-*"),
    ("harness.trials", "count", "lower", "units_per_s on both unlearn-*"),
    ("trace.overhead_s", "s", "lower", "tracing cost: traced minus untraced pass wall"),
    ("trace.unattributed_s", "s", "lower", "timed wall outside every layer span"),
)


def _tag_reader(fn, param: str, convert):
    """Read an argument of fn (by name or position), converted to the span's integer tag."""
    try:
        names = list(inspect.signature(fn).parameters)
    except (TypeError, ValueError):
        return None
    if param not in names:
        return None
    pos = names.index(param)

    def read(args, kwargs):
        if param in kwargs:
            return int(convert(kwargs[param]))
        return int(convert(args[pos])) if pos < len(args) else 0
    return read


# span tags: d2d_train's step count, the request index of sequential_epsilon,
# the trials of a run_unlearn_one call
_TAGS = {
    "d2d.d2d_train": ("T", int),
    "calibrate.sequential_epsilon": ("i", int),
    "harness.run_unlearn_one": ("cfg", lambda cfg: cfg.trials * len(cfg.eps_targets)),
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.tag = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.paused = False
        self.curve_points = 0
        self.typed_errors: dict[str, int] = {}

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    @contextlib.contextmanager
    def quiet(self):
        """Run output checks without recording spans."""
        was, self.paused = self.paused, True
        try:
            yield
        finally:
            self.paused = was

    def span(self, fn, name: str, tag=None):
        """fn wrapped in a span; `tag(args, kwargs)` gives the span's integer tag."""
        nid = self._id(name)
        module = name.split(".")[0]
        name_id, parent, tags, start, end = (self.name_id, self.parent, self.tag,
                                             self.start, self.end)
        stack, clock = self._stack, time.perf_counter

        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            tags.append(tag(args, kwargs) if tag is not None else 0)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            except CertUnlearnError as exc:
                seen = exc.__dict__.setdefault("_perfbench_layers", set())
                if module not in seen:
                    seen.add(module)
                    self.typed_errors[module] = self.typed_errors.get(module, 0) + 1
                raise
            finally:
                end[idx] = clock()
                stack.pop()
        return traced

    def _builder(self, fn):
        """An objective builder whose Objective has a traced grad."""
        build = self.span(fn, "objectives.build")

        def traced_build(*args, **kwargs):
            obj = build(*args, **kwargs)
            data = obj.data
            nbytes = 2 * data.n * data.d * 8 if data is not None else 0
            grad = self.span(obj.grad, "objectives.grad", tag=lambda a, k: nbytes)
            return dataclasses.replace(obj, grad=grad)
        return traced_build

    @contextlib.contextmanager
    def installed(self):
        """Wrap the measured modules' public functions wherever they are bound."""
        mods = {m: importlib.import_module(f"certunlearn.{m}") for m in MEASURED}
        replace = {}
        for short, mod in mods.items():
            for attr, fn in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if getattr(fn, "__module__", None) != mod.__name__:
                    continue
                name = f"{short}.{attr}"
                if name in _INLINE:
                    continue
                if short == "objectives" and attr in _BUILDERS:
                    replace[fn] = self._builder(fn)
                else:
                    tag = _TAGS.get(name)
                    replace[fn] = self.span(fn, name, tag and _tag_reader(fn, *tag))
        saved = []
        for modname, mod in list(sys.modules.items()):
            if not (modname == "certunlearn" or modname.startswith("certunlearn.")):
                continue
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in replace:
                    saved.append((mod, attr, value))
                    setattr(mod, attr, replace[value])
        bound = mods["accountant"].RenyiBound
        call = bound.__call__

        def counted_call(curve, alpha):
            if not self.paused:
                self.curve_points += alpha.size if isinstance(alpha, np.ndarray) else 1
            return call(curve, alpha)
        bound.__call__ = counted_call
        try:
            yield self
        finally:
            bound.__call__ = call
            for mod, attr, value in saved:
                setattr(mod, attr, value)

    def arrays(self):
        return (np.frombuffer(self.name_id, dtype=np.int32),
                np.frombuffer(self.parent, dtype=np.int32),
                np.frombuffer(self.tag, dtype=np.int64),
                np.frombuffer(self.start, dtype=np.float64),
                np.frombuffer(self.end, dtype=np.float64))

    def save(self, path) -> None:
        name_id, parent, tag, start, end = self.arrays()
        np.savez(path, names=np.array(self.names), name_id=name_id, parent=parent,
                 tag=tag, start=start, end=end)

    def layer_metrics(self, passes: int, cells: int, requests: int,
                      traced_wall: float, untraced_wall: float) -> dict[str, float]:
        """Per-pass layer metrics from the recorded spans.

        `traced_wall` and `untraced_wall` are the mean timed wall of one pass
        with and without tracing; `cells` and `requests` are per pass.
        """
        name_id, parent, tag, start, end = self.arrays()
        k = len(self.names)
        dur = end - start
        child = np.zeros_like(dur)
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        self_t = dur - child
        calls = np.bincount(name_id, minlength=k)
        self_s = np.bincount(name_id, weights=self_t, minlength=k)
        tags = np.bincount(name_id, weights=tag, minlength=k)

        def get(arr, name):
            return float(arr[self._ids[name]]) / passes if name in self._ids else 0.0

        out = {}
        for name, unit, _, _ in LAYER_METRICS:
            layer, _, field = name.rpartition(".")
            if field == "calls":
                out[name] = get(calls, layer)
            elif field == "self_s":
                out[name] = get(self_s, layer)
        out["accountant.curve_points"] = self.curve_points / passes
        probes = get(calls, "calibrate.converted_epsilon")
        out["calibrate.probes_per_cell"] = probes / cells if cells else 0.0
        k_probes = get(calls, "accountant.rdp_to_dp")
        out["calibrate.probes_per_request"] = k_probes / requests if requests else 0.0
        last = 0.0
        if "calibrate.sequential_epsilon" in self._ids:
            seq = name_id == self._ids["calibrate.sequential_epsilon"]
            if np.any(seq):
                deepest = seq & (tag == tag[seq].max())
                last = 1e3 * float(dur[deepest].sum()) / passes
        out["calibrate.request_ms.last"] = last
        out["calibrate.typed_errors"] = self.typed_errors.get("calibrate", 0) / passes
        out["pngd.steps"] = get(calls, "pngd.pngd_step")
        out["objectives.grad.bytes_computed"] = get(tags, "objectives.grad")
        grad_s = get(self_s, "objectives.grad")
        out["objectives.grad.gbps_computed"] = (
            out["objectives.grad.bytes_computed"] / grad_s / 1e9 if grad_s else 0.0)
        out["d2d.steps"] = get(tags, "d2d.d2d_train")
        out["harness.trials"] = get(tags, "harness.run_unlearn_one")
        attributed = float(dur[parent < 0].sum()) / passes
        out["trace.overhead_s"] = traced_wall - untraced_wall
        out["trace.unattributed_s"] = traced_wall - attributed
        return out
