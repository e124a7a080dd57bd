"""Span tracing of the package's layers, built entirely from outside it.

``Tracer.install`` wraps every public function of the eight layer modules
and the ``block``, ``lattice_block`` and ``sample_at`` methods of
``StationaryPath``. A function imported by name into another module is a
second binding of the same object, so every package-module attribute bound
to a wrapped function is replaced (for example ``metrics.envelope_states``
and ``coupling.advance_batch``).

Spans stay in memory as parallel arrays (name, start, end, parent, plus a
size and a tag read from the call's arguments or result) and are written
when the run ends. A span's self time is its duration minus the time its
child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from array import array
from pathlib import Path
from time import perf_counter

import numpy as np

LAYERS = ("sequences", "kernel", "loynes", "coupling", "des", "metrics", "config", "cli")
PATH_METHODS = ("block", "lattice_block", "sample_at")


def _argument(fn, name: str):
    """Getter for parameter ``name`` of ``fn`` from a call's (args, kwargs)."""
    params = list(inspect.signature(fn).parameters)
    if name not in params:
        return lambda args, kwargs: None
    pos = params.index(name)
    return lambda args, kwargs: args[pos] if len(args) > pos else kwargs.get(name)


def _rows(getter):
    return lambda a, k, r: (getattr(getter(a, k), "shape", (0,))[0], 0, None)


def _number(getter):
    return lambda a, k, r: (getter(a, k) or 0, 0, None)


def _hooks(name: str, fn):
    """Size, tag and extra recorded for ``name``: counts come from arguments and results."""
    arg = lambda p: _argument(fn, p)  # noqa: E731
    if name in ("sequences.StationaryPath.block", "sequences.StationaryPath.lattice_block",
                "sequences.stream_uniforms"):
        return _number(arg("count"))
    if name == "sequences.StationaryPath.sample_at":
        return lambda a, k, r: (1, 0, None)
    if name in ("kernel.advance_batch", "kernel.advance_upper_batch", "kernel.advance_lower_batch",
                "kernel.advance_direct_batch"):
        return _rows(arg("u"))
    if name == "kernel.advance_lattice_batch":
        return _rows(arg("u_mult"))
    if name in ("loynes.envelope_states", "loynes.exact_states"):
        return _number(arg("steps"))
    if name == "loynes.backward_iterate":
        return _number(arg("depth"))
    if name == "loynes.stationary_estimate":
        return lambda a, k, r: (0, 0, getattr(r, "depth", None))
    if name == "coupling.cftp":
        return lambda a, k, r: (0, 0, getattr(r, "horizon_used", None))
    if name == "coupling.reachable_profile":
        return lambda a, k, r: (0, 0, [s.box_size for s in r])
    if name == "des.run":
        path, n = arg("path"), arg("n_arrivals")
        return lambda a, k, r: (n(a, k), int(path(a, k).spec.is_lattice), None)
    if name == "des.cross_validate":
        return _number(arg("n_arrivals"))
    if name == "des.write_trace":
        records = arg("records")
        return lambda a, k, r: (len(records(a, k)), 0, None)
    return None


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.size = array("d")
        self.tag = array("b")
        self.extra: dict[int, object] = {}
        self.stack: list[int] = []
        self._patches: list[tuple[object, str, object, object]] = []  # owner, attr, original, wrapper

    # -- installation -----------------------------------------------------

    def install(self):
        """Bind the wrappers in place of the originals (built on first use)."""
        if not self._patches:
            self._patches = self._build()
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)

    def _build(self) -> list:
        wrapped = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"impatientq.{layer}")
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not attr.startswith("_"):
                    wrapped[obj] = self._wrap(f"{layer}.{attr}", obj)
        patches = []
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "impatientq" or mod_name.startswith("impatientq."):
                for attr, obj in list(vars(mod).items()):
                    if inspect.isfunction(obj) and obj in wrapped:
                        patches.append((mod, attr, obj, wrapped[obj]))
        cls = importlib.import_module("impatientq.sequences").StationaryPath
        for attr in PATH_METHODS:
            if attr in vars(cls):
                original = vars(cls)[attr]
                patches.append((cls, attr, original, self._wrap(f"sequences.StationaryPath.{attr}", original)))
        return patches

    def _wrap(self, qualname: str, fn):
        nid = len(self.names)
        self.names.append(qualname)
        hook = _hooks(qualname, fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(self.start)
            self.name.append(nid)
            self.parent.append(self.stack[-1] if self.stack else -1)
            self.start.append(0.0)
            self.end.append(0.0)
            self.size.append(0.0)
            self.tag.append(0)
            self.stack.append(i)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                self.stack.pop()
                self.start[i] = t0
                self.end[i] = t1
            if hook is not None:
                try:
                    size, tag, extra = hook(args, kwargs, result)
                except (AttributeError, TypeError, IndexError):
                    return result   # signature changed: keep the span, skip its counts
                self.size[i] = size
                self.tag[i] = tag
                if extra is not None:
                    self.extra[i] = extra
            return result

        return traced

    # -- results ----------------------------------------------------------

    def spans(self) -> "Spans":
        return Spans(self.names, np.frombuffer(self.name, dtype=np.int32).copy(),
                     np.frombuffer(self.parent, dtype=np.int64).copy(),
                     np.frombuffer(self.start, dtype=np.float64).copy(),
                     np.frombuffer(self.end, dtype=np.float64).copy(),
                     np.frombuffer(self.size, dtype=np.float64).copy(),
                     np.frombuffer(self.tag, dtype=np.int8).copy(), dict(self.extra))


class Spans:
    """Recorded spans with derived self times and per-name aggregates."""

    def __init__(self, names, name, parent, start, end, size, tag, extra):
        self.names, self.name, self.parent = names, name, parent
        self.start, self.end, self.size, self.tag, self.extra = start, end, size, tag, extra
        dur = end - start
        child = parent >= 0
        covered = np.bincount(parent[child], weights=dur[child], minlength=len(dur))
        self.duration = dur
        self.self_time = dur - covered

    def save(self, path: Path):
        np.savez(path, names=np.array(self.names), name=self.name, parent=self.parent,
                 start=self.start, end=self.end, size=self.size, tag=self.tag)

    def mask(self, *qualnames: str, tag=None) -> np.ndarray:
        ids = [i for i, n in enumerate(self.names) if n in qualnames]
        m = np.isin(self.name, ids)
        return m if tag is None else m & (self.tag == tag)

    def layer_mask(self, layer: str) -> np.ndarray:
        ids = [i for i, n in enumerate(self.names) if n.split(".")[0] == layer]
        return np.isin(self.name, ids)

    def self_s(self, m) -> float:
        return float(self.self_time[m].sum())

    def calls(self, m) -> int:
        return int(m.sum())

    def size_sum(self, m) -> float:
        return float(self.size[m].sum())

    def extras(self, m) -> list:
        values = []
        for i in np.flatnonzero(m):
            v = self.extra.get(int(i))
            if isinstance(v, list):
                values.extend(v)
            elif v is not None:
                values.append(v)
        return values

    def children_of(self, parent_mask) -> np.ndarray:
        parents = np.flatnonzero(parent_mask)
        return np.isin(self.parent, parents)

    def root_s(self) -> float:
        return float(self.duration[self.parent < 0].sum())


BATCH = ("kernel.advance_batch", "kernel.advance_upper_batch", "kernel.advance_lower_batch",
         "kernel.advance_direct_batch", "kernel.advance_lattice_batch")
BLOCKS = ("sequences.StationaryPath.block", "sequences.StationaryPath.lattice_block")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(sp: Spans, items: int, traced_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass (times in the unit named by the suffix).

    A layer the workload never calls reads 0.
    """
    blocks, rng, batch = sp.mask(*BLOCKS), sp.mask("sequences.stream_uniforms"), sp.mask(*BATCH)
    rolls = sp.mask("loynes.envelope_states", "loynes.exact_states")
    estimates, backward = sp.mask("loynes.stationary_estimate"), sp.mask("loynes.backward_iterate")
    supremum = sp.mask("loynes.supremum_bound")
    cftp = sp.mask("coupling.cftp")
    hset = sp.mask("coupling.reachable_profile")
    hset_all = hset | sp.mask("coupling.reachable_set")
    run_float, run_lattice = sp.mask("des.run", tag=0), sp.mask("des.run", tag=1)
    validate, trace = sp.mask("des.cross_validate"), sp.mask("des.write_trace")
    report, batch_means = sp.mask("metrics.bound_report"), sp.mask("metrics.batch_means")
    loads, mains = sp.mask("config.load_config"), sp.mask("cli.main")

    depths = sp.extras(estimates)
    horizons = sp.extras(cftp)
    boxes = sp.extras(hset)
    cftp_steps = sp.size_sum(sp.children_of(cftp) & blocks)

    m = {
        "sequences.block_ns_per_index": _ratio(sp.self_s(blocks), sp.size_sum(blocks)) * 1e9,
        "sequences.rng_ns_per_index": _ratio(sp.self_s(rng), sp.size_sum(rng)) * 1e9,
        "sequences.calls_per_item": _ratio(sp.calls(blocks), items),
        "sequences.indices_per_item": _ratio(sp.size_sum(blocks), items),
        "kernel.batch_calls_per_item": _ratio(sp.calls(batch), items),
        "kernel.batch_us_per_call": _ratio(sp.self_s(batch), sp.calls(batch)) * 1e6,
        "kernel.lane_step_ns": _ratio(sp.self_s(batch), sp.size_sum(batch)) * 1e9,
        "kernel.lattice_rows_per_item": _ratio(sp.size_sum(sp.mask("kernel.advance_lattice_batch")), items),
        "loynes.roll_us_per_step": _ratio(sp.self_s(rolls), sp.size_sum(rolls)) * 1e6,
        "loynes.estimate_calls_per_item": _ratio(sp.calls(estimates), items),
        "loynes.estimate_depth_p50": float(np.median(depths)) if depths else 0.0,
        "loynes.estimate_depth_max": float(max(depths, default=0)),
        "loynes.backward_steps_per_item": _ratio(sp.size_sum(backward), items),
        "loynes.supremum_ms": _ratio(sp.self_s(supremum), sp.calls(supremum)) * 1e3,
        "coupling.cftp_self_ms": _ratio(sp.self_s(cftp), sp.calls(cftp)) * 1e3,
        "coupling.cftp_horizon_p50": float(np.median(horizons)) if horizons else 0.0,
        "coupling.cftp_horizon_max": float(max(horizons, default=0)),
        "coupling.cftp_useful_ratio": _ratio(sum(horizons), cftp_steps),
        "coupling.hset_self_ms": _ratio(sp.self_s(hset_all), sp.calls(hset)) * 1e3,
        "coupling.hset_box_p50": float(np.median(boxes)) if boxes else 0.0,
        "des.run_us_per_arrival.float": _ratio(sp.self_s(run_float), sp.size_sum(run_float)) * 1e6,
        "des.run_us_per_arrival.lattice": _ratio(sp.self_s(run_lattice), sp.size_sum(run_lattice)) * 1e6,
        "des.cv_us_per_arrival": _ratio(sp.self_s(validate), sp.size_sum(validate)) * 1e6,
        "des.trace_write_us_per_row": _ratio(sp.self_s(trace), sp.size_sum(trace)) * 1e6,
        "metrics.bound_report_self_ms": _ratio(sp.self_s(report), sp.calls(report)) * 1e3,
        "metrics.batch_means_ms": _ratio(sp.self_s(batch_means), sp.calls(batch_means)) * 1e3,
        "config.load_ms": _ratio(sp.self_s(sp.layer_mask("config")), sp.calls(loads)) * 1e3,
        "cli.self_ms": _ratio(sp.self_s(sp.layer_mask("cli")), sp.calls(mains)) * 1e3,
    }
    for layer in LAYERS:
        m[f"{layer}.self_frac"] = _ratio(sp.self_s(sp.layer_mask(layer)), traced_s)
    m["trace.covered_frac"] = _ratio(sp.root_s(), traced_s)
    return m
