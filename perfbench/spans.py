"""Span tracing of the entweave layers, from outside the package.

``Tracer.installed()`` wraps every public function of the layer modules at
every import site (``continuous`` calls ``expm`` by its imported name, so
patching ``qmath.expm`` alone would miss it) and the ``__post_init__`` of
every dataclass they define, which is where construction validates.  Each
call records one span: name, start, end, parent span and invocation id.
Spans stay in flat in-memory lists until ``save`` writes them out.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import pathlib
from time import perf_counter

import numpy as np

LAYERS = ("qmath", "states", "entanglement", "channels", "continuous",
          "optics", "cli")

# Spans that count as the CLI writing its outputs (CSV, report, manifest).
WRITE_SPAN = "cli.write"
_WRITERS = {("continuous", "write_profile_csv"), ("optics", "write_sweep_csv")}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.invocation: list[int] = []
        self._stack: list[int] = []
        self.current_invocation = -1

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        nid = self._name_id(name)
        stack, start, end = self._stack, self.start, self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.invocation.append(self.current_invocation)
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch the layers for the duration of the block, then restore them."""
        modules = {layer: importlib.import_module(f"entweave.{layer}")
                   for layer in LAYERS}
        wrappers = {}   # id(original) -> (original, wrapper)
        undo = []
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    if layer == "cli" and attr != "main":
                        continue  # cli's own helpers are cli self time
                    name = WRITE_SPAN if (layer, attr) in _WRITERS else f"{layer}.{attr}"
                    wrappers[id(obj)] = (obj, self.wrap(name, obj))
                elif inspect.isclass(obj):
                    span = (WRITE_SPAN, "write") if layer == "cli" else (f"{layer}.{attr}", "__post_init__")
                    original = vars(obj).get(span[1])
                    if original is not None:
                        setattr(obj, span[1], self.wrap(span[0], original))
                        undo.append((obj, span[1], original))
        write_text = pathlib.Path.write_text
        pathlib.Path.write_text = self.wrap(WRITE_SPAN, write_text)
        undo.append((pathlib.Path, "write_text", write_text))
        for mod in (importlib.import_module("entweave"), *modules.values()):
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers and wrappers[id(obj)][0] is obj:
                    setattr(mod, attr, wrappers[id(obj)][1])
                    undo.append((mod, attr, obj))
        try:
            yield self
        finally:
            for target, attr, original in reversed(undo):
                setattr(target, attr, original)

    def arrays(self, rescale=None) -> dict[str, np.ndarray]:
        """The spans as arrays; ``duration`` is ``rescale(start, end)`` of
        each span when given (run.HostSpeed.rescale), else end - start."""
        a = {
            "name_id": np.array(self.name_id, dtype=np.int32),
            "start": np.array(self.start, dtype=np.float64),
            "end": np.array(self.end, dtype=np.float64),
            "parent": np.array(self.parent, dtype=np.int64),
            "invocation": np.array(self.invocation, dtype=np.int32),
        }
        a["duration"] = (np.array([rescale(s, e) for s, e in zip(self.start, self.end)])
                         if rescale else a["end"] - a["start"])
        return a

    def save(self, path: pathlib.Path, arrays: dict[str, np.ndarray]) -> None:
        """Write every span: ``path`` (.npz arrays) plus a names sidecar."""
        np.savez(path, **arrays)
        path.with_suffix(".names.json").write_text(json.dumps(self.names))


class SpanStats:
    """Per-name aggregates over a finished trace."""

    def __init__(self, names: list[str], a: dict[str, np.ndarray]):
        self.names = list(names)
        self.name_id, self.parent = a["name_id"], a["parent"]
        self.start, self.end, self.invocation = a["start"], a["end"], a["invocation"]
        self.duration = a["duration"]
        has_parent = self.parent >= 0
        child_time = np.bincount(self.parent[has_parent],
                                 weights=self.duration[has_parent],
                                 minlength=len(self.duration))
        self.self_time = self.duration - child_time

    def _mask(self, name: str) -> np.ndarray:
        if name not in self.names:
            return np.zeros(len(self.name_id), dtype=bool)
        return self.name_id == self.names.index(name)

    def calls(self, name: str) -> int:
        return int(self._mask(name).sum())

    def self_s(self, name: str) -> float:
        return float(self.self_time[self._mask(name)].sum())

    def under(self, name: str) -> np.ndarray:
        """Mask of spans that have an ancestor called ``name``."""
        target = self.names.index(name) if name in self.names else -2
        name_id, parent = self.name_id.tolist(), self.parent.tolist()
        flag = [False] * len(parent)
        for i, p in enumerate(parent):   # parents precede their children
            if p >= 0 and (flag[p] or name_id[p] == target):
                flag[i] = True
        return np.array(flag, dtype=bool)

    def busy_s(self, name: str) -> float:
        """Time inside at least one span called ``name`` (no double counting)."""
        outer = self._mask(name) & ~self.under(name)
        return float(self.duration[outer].sum())

    def calls_under(self, name: str, ancestor: str) -> int:
        return int((self._mask(name) & self.under(ancestor)).sum())

    def calls_with_parent(self, name: str, parent: str) -> int:
        m = self._mask(name) & (self.parent >= 0)
        parent_names = self.name_id[self.parent[m]]
        pid = self.names.index(parent) if parent in self.names else -2
        return int((parent_names == pid).sum())

    def nesting_errors(self) -> list[str]:
        """Spans that leave their parent's interval or invocation, and
        siblings that overlap."""
        errors = []
        child = np.flatnonzero(self.parent >= 0)
        p = self.parent[child]
        outside = (self.start[child] < self.start[p]) | (self.end[child] > self.end[p])
        if outside.any():
            errors.append(f"{int(outside.sum())} spans leave their parent's interval")
        cross = self.invocation[child] != self.invocation[p]
        if cross.any():
            errors.append(f"{int(cross.sum())} spans change invocation id")
        if (self.end < self.start).any():
            errors.append("spans end before they start")
        order = np.lexsort((self.start, self.parent))
        same = self.parent[order][1:] == self.parent[order][:-1]
        overlap = same & (self.start[order][1:] < self.end[order][:-1])
        if overlap.any():
            errors.append(f"{int(overlap.sum())} sibling spans overlap")
        return errors

    @classmethod
    def load(cls, path: pathlib.Path) -> "SpanStats":
        """Read spans written by :meth:`Tracer.save`."""
        with np.load(path) as a:
            arrays = {k: a[k] for k in a.files}
        return cls(json.loads(path.with_suffix(".names.json").read_text()), arrays)


def layer_metrics(st: SpanStats) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of README.md, as name -> (value, unit)."""
    m: dict[str, tuple[float, str]] = {}

    def calls(name):
        m[f"{name}.calls"] = (st.calls(name), "count")

    def self_s(name):
        m[f"{name}.self_s"] = (st.self_s(name), "s")

    def busy_s(name):
        m[f"{name}.busy_s"] = (st.busy_s(name), "s")

    def ratio(metric, num, den):
        m[metric] = (num / den if den else 0.0, "ratio")

    for name in ("qmath.expm", "qmath.hermitian_eig"):
        calls(name)
        self_s(name)
    self_s("qmath.apply_superop_first_factor")
    calls("states.DensityMatrix")
    self_s("states.DensityMatrix")
    for name in ("entanglement.concurrence", "entanglement.negativity"):
        calls(name)
        self_s(name)
    calls("entanglement.werner_state")
    for name in ("channels.QuantumChannel", "channels.compose"):
        calls(name)
        self_s(name)
    calls("channels.channel_from_superop")
    ratio("channels.reextract_per_compose",
          st.calls_with_parent("channels.channel_from_superop", "channels.compose"),
          st.calls("channels.compose"))
    calls("channels.is_eb")
    busy_s("channels.is_eb")
    busy_s("channels.eb_order")
    calls("continuous.propagation_superop")
    self_s("continuous.propagation_superop")
    busy_s("continuous.concurrence_profile")
    calls("continuous.eb_length")
    busy_s("continuous.eb_length")
    evals = st.calls_under("continuous.propagation_superop", "continuous.eb_length")
    m["continuous.eb_length.evals"] = (evals, "count")
    ratio("continuous.eb_length.evals_per_call", evals, st.calls("continuous.eb_length"))
    busy_s("optics.sweep")
    for name in ("optics.run_point",):
        calls(name)
        busy_s(name)
    for name in ("optics.setup_map", "optics.dif_map"):
        calls(name)
        self_s(name)
    ratio("optics.setup_map_per_point", st.calls("optics.setup_map"),
          st.calls("optics.run_point"))
    calls("cli.main")
    m["cli.self_s"] = (st.self_s("cli.main"), "s")
    m["cli.write.self_s"] = (st.self_s(WRITE_SPAN), "s")
    return m
