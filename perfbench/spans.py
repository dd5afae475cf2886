"""Timing spans around ionqsim's public functions, installed from outside.

`Tracer.install()` replaces every public function of the layer modules
(plus the two `SphereDistribution` moment methods) with a wrapper that
records a span: name, start, end, parent span, the id of the benchmark
call it belongs to, and whether it raised.  The wrapper is bound in every
ionqsim namespace that held the original, so calls made through
`from .x import f` imports (e.g. `cli.spin_spin_couplings`) are seen.
Spans are kept in flat arrays and written out once, when the run ends.
The library itself is not modified on disk.
"""

import functools
import inspect
import json
import math
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

LAYERS = ("estimation", "sphere", "ionchain", "zeno", "bloch", "channels", "cli")

# Functions that are measured together under one span name.
MERGED_NAMES = {
    "estimation.mean_vector": "estimation.moments",
    "estimation.second_moment": "estimation.moments",
    "ionchain.epsilon_matrix": "ionchain.couplings",
    "ionchain.coupling_matrix": "ionchain.couplings",
}


def _public_functions(module):
    short = module.__name__.rsplit(".", 1)[-1]
    for attr, obj in vars(module).items():
        if (inspect.isfunction(obj) and not attr.startswith("_")
                and obj.__module__ == module.__name__):
            yield f"{short}.{attr}", obj


class Tracer:
    """Span recorder; one per process."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("l")
        self.parent = array("l")
        self.call = array("l")
        self.failed = array("b")
        self._stack = []
        self.call_id = -1
        self.counters = defaultdict(float)
        self.chain_sizes = defaultdict(list)   # n_ions -> equilibrium_positions seconds
        self.wrapped = {}                      # original function -> wrapper

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, fn, name):
        nid = self._name_id(name)
        before = _BEFORE.get(name)
        after = _AFTER.get(name)
        stack, clock = self._stack, time.perf_counter

        def traced(*args, **kwargs):
            if before is not None:
                args, kwargs = before(self, args, kwargs)
            idx = len(self.start)
            self.parent.append(stack[-1] if stack else -1)
            self.name.append(nid)
            self.call.append(self.call_id)
            self.failed.append(0)
            self.end.append(math.nan)
            stack.append(idx)
            result = None
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception:
                self.failed[idx] = 1
                raise
            finally:
                self.end[idx] = clock()
                stack.pop()
                if after is not None:
                    after(self, args, kwargs, result, self.end[idx] - self.start[idx])

        return functools.update_wrapper(traced, fn)

    def install(self):
        """Wrap the layer functions in every ionqsim namespace that binds them."""
        import ionqsim.cli  # noqa: F401  (the package does not import cli itself)
        from ionqsim.estimation import SphereDistribution

        for layer in LAYERS:
            module = sys.modules[f"ionqsim.{layer}"]
            for name, fn in _public_functions(module):
                self.wrapped[fn] = self.wrap(fn, MERGED_NAMES.get(name, name))
        for method in ("mean_vector", "second_moment"):
            fn = getattr(SphereDistribution, method)
            wrapper = self.wrap(fn, MERGED_NAMES[f"estimation.{method}"])
            self.wrapped[fn] = wrapper
            setattr(SphereDistribution, method, wrapper)

        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "ionqsim" or key.startswith("ionqsim."))]
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in self.wrapped:
                    setattr(module, attr, self.wrapped[obj])
        missed = [f"{m.__name__}.{attr}" for m in modules for attr, obj in vars(m).items()
                  if inspect.isfunction(obj) and obj in self.wrapped]
        if missed:
            raise RuntimeError(f"unwrapped bindings left: {missed}")

    def arrays(self):
        n = len(self.end)
        return {
            "start": np.frombuffer(self.start, dtype=float)[:n].copy(),
            "end": np.frombuffer(self.end, dtype=float)[:n].copy(),
            "name": np.frombuffer(self.name, dtype=np.int64)[:n].copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64)[:n].copy(),
            "call": np.frombuffer(self.call, dtype=np.int64)[:n].copy(),
            "failed": np.frombuffer(self.failed, dtype=np.int8)[:n].copy(),
        }

    def save(self, path):
        """Write every span plus the counters to an .npz file."""
        extra = {"names": self.names, "counters": dict(self.counters),
                 "chain_sizes": {str(k): v for k, v in self.chain_sizes.items()}}
        np.savez_compressed(path, meta=np.array(json.dumps(extra)), **self.arrays())


def load(path):
    with np.load(path) as data:
        spans = {key: data[key] for key in data.files if key != "meta"}
        extra = json.loads(str(data["meta"]))
    return spans, extra


def summarize(spans, names):
    """Per span name: calls, self time (busy_ms) and raised exceptions.

    Self time is a span's duration minus the durations of its direct
    children; spans nest strictly because every call is single-threaded.
    """
    dur = spans["end"] - spans["start"]
    parent = spans["parent"]
    inner = parent >= 0
    child = np.bincount(parent[inner], weights=dur[inner], minlength=dur.size)
    own = dur - child
    k = len(names)
    calls = np.bincount(spans["name"], minlength=k)
    busy = np.bincount(spans["name"], weights=own, minlength=k)
    failed = np.bincount(spans["name"], weights=spans["failed"], minlength=k)
    return {name: {"calls": int(calls[i]), "busy_ms": float(busy[i]) * 1e3,
                   "failed": int(failed[i])} for i, name in enumerate(names)}


def _arg(args, kwargs, position, keyword):
    return args[position] if len(args) > position else kwargs[keyword]


def _count_directions(tracer, args, kwargs):
    objective = _arg(args, kwargs, 0, "objective")

    def counted(dirs):
        tracer.counters["sphere.maximize_on_sphere.dirs_evaluated"] += len(dirs)
        return objective(dirs)

    if args:
        return (counted,) + tuple(args[1:]), kwargs
    return args, dict(kwargs, objective=counted)


def _record_grid(tracer, args, kwargs, result, seconds):
    if result is not None:
        nodes = result.values.size
        tracer.counters["sphere.grid_nodes"] = max(tracer.counters["sphere.grid_nodes"], nodes)


def _record_chain_size(tracer, args, kwargs, result, seconds):
    tracer.chain_sizes[int(_arg(args, kwargs, 0, "n_ions"))].append(seconds)


def _record_pairs(tracer, args, kwargs, result, seconds):
    tracer.counters["zeno.simulate_alternating.pairs"] += int(_arg(args, kwargs, 1, "n_pairs"))


_BEFORE = {"sphere.maximize_on_sphere": _count_directions}
_AFTER = {
    "estimation.uniform_prior": _record_grid,
    "ionchain.equilibrium_positions": _record_chain_size,
    "zeno.simulate_alternating": _record_pairs,
}
