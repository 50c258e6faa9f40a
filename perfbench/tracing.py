"""Per-layer spans and counters, recorded from outside the package.

Every public function of the layer modules is replaced by a timing
wrapper.  The package imports with ``from .x import y``, so the wrapper
is installed on every module attribute, and every value of a module-level
dict, that is bound to the original function, not only on the defining
module.  Spans nest on a stack: a layer's self time is its span
durations minus the time covered by child spans.  ``DensityOperator``
validation is wrapped too, as ``states.validations``.  Cache counters
come from each module's ``lru_cache`` ``cache_info()``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import os
import sys
from collections import defaultdict
from time import perf_counter

LAYERS = ("cli", "states", "basis", "tensors", "linalg", "entanglement", "sweep")
SMALL_DIM = 8


class Tracer:
    """Install with :meth:`install`, remove with :meth:`uninstall`; counters persist."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.values = defaultdict(float)
        self._stack = []
        self._patches = []  # (owner, attribute, original, wrapper)
        self._cache_base = {}
        self._modules = {layer: importlib.import_module(f"entmoment.{layer}") for layer in LAYERS}
        # Collected before any patching: the wrappers do not carry cache_info.
        self._caches = [
            (layer, obj)
            for layer, module in self._modules.items()
            for obj in vars(module).values()
            if hasattr(obj, "cache_info") and getattr(obj, "__module__", None) == module.__name__
        ]

    # -- install / uninstall ---------------------------------------------------

    def install(self) -> None:
        originals = {}
        for layer, module in self._modules.items():
            for name, obj in vars(module).items():
                if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj) or hasattr(obj, "cache_info"):
                    originals[id(obj)] = self._wrap(layer, name, obj)
        for module in [m for n, m in sys.modules.items() if n.split(".")[0] == "entmoment"]:
            for name, obj in list(vars(module).items()):
                if id(obj) in originals:
                    self._patch(module, name, obj, originals[id(obj)])
                elif isinstance(obj, dict):  # e.g. sweep.QUANTITIES
                    for key, value in list(obj.items()):
                        if id(value) in originals:
                            self._patch(obj, key, value, originals[id(value)])
        density = self._modules["states"].DensityOperator
        post_init = density.__dict__["__post_init__"]
        self._patch(density, "__post_init__", post_init,
                    self._wrap("states", "__post_init__", post_init))
        self._cache_base = self._cache_counts()

    def uninstall(self) -> None:
        for owner, key, original, _ in reversed(self._patches):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._patches.clear()
        for key, value in self._cache_counts().items():
            self.counts[key] += value - self._cache_base.get(key, 0)

    def _patch(self, owner, key, original, wrapper) -> None:
        self._patches.append((owner, key, original, wrapper))
        if isinstance(owner, dict):
            owner[key] = wrapper
        else:
            setattr(owner, key, wrapper)

    def _cache_counts(self) -> dict:
        counts = defaultdict(int)
        for layer, cached in self._caches:
            stats = cached.cache_info()
            counts[f"{layer}.cache_hits"] += stats.hits
            counts[f"{layer}.cache_misses"] += stats.misses
        return counts

    # -- spans -----------------------------------------------------------------

    def _wrap(self, layer: str, name: str, fn):
        hook = self._on_linalg if layer == "linalg" else getattr(self, f"_on_{name}", None)
        calls = f"{layer}.calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]  # time covered by child spans
            self._stack.append(frame)
            start = perf_counter()
            raised, result = True, None
            try:
                result = fn(*args, **kwargs)
                raised = False
                return result
            finally:
                duration = perf_counter() - start
                self._stack.pop()
                if self._stack:
                    self._stack[-1][0] += duration
                self.self_s[layer] += duration - frame[0]
                self.counts[calls] += 1
                if hook:
                    hook(args, kwargs, result, duration, duration - frame[0], raised)

        return wrapper

    # Counters of single functions; each runs after its span has closed.

    def _on___post_init__(self, args, kwargs, result, duration, self_time, raised):
        self.counts["states.validations"] += 1
        self.counts["states.rejections"] += raised

    def _on_fano_decompose(self, *_):
        self.counts["states.fano_calls"] += 1

    def _on_tensor_coefficients(self, args, kwargs, *_):
        if kwargs.get("order", args[2] if len(args) > 2 else 2) == 2:
            self.counts["tensors.order2_calls"] += 1

    def _on_linalg(self, args, kwargs, result, duration, self_time, raised):
        dim = len(args[0] if args else kwargs["matrix"])
        size = "small" if dim <= SMALL_DIM else "large"
        self.counts[f"linalg.calls.{size}"] += 1
        self.values[f"linalg.self_s.{size}"] += self_time
        self.counts["linalg.max_dim"] = max(self.counts["linalg.max_dim"], dim)
        self.counts["linalg.errors"] += raised

    def _on_criterion(self, *_):
        self.counts["entanglement.criteria_evaluated"] += 1

    _on_devicente_necessary = _on_devicente_sufficient = _on_criterion
    _on_omega_sufficient = _on_ppt_check = _on_octahedron_check = _on_criterion

    def _on_classify(self, args, kwargs, result, duration, self_time, raised):
        if not raised:
            self.counts["entanglement.verdicts"] += 1
            self.counts[f"entanglement.decided_by.{result.decided_by or 'undecided'}"] += 1

    def _on_grid_sweep(self, args, kwargs, result, duration, self_time, raised):
        self.counts["sweep.points"] += math.prod(axis.count for axis in args[0].axes)
        self.values["sweep.grid_s"] += duration

    def _on_wedge_field(self, args, kwargs, result, duration, self_time, raised):
        self.values["sweep.wedge_s"] += duration

    def _on_write_csv(self, args, kwargs, result, duration, self_time, raised):
        self.values["sweep.emit_s"] += duration
        if not raised:
            self.counts["sweep.emit_bytes"] += os.path.getsize(args[1])

    _on_write_svg = _on_write_csv

    # -- report ----------------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer totals; a counter that never moved is absent."""
        out = {f"{layer}.self_s": self.self_s[layer] for layer in LAYERS}
        out.update(self.values)
        out.update(self.counts)
        criteria = self.counts["entanglement.criteria_evaluated"]
        out["entanglement.useful_ratio"] = (
            self.counts["entanglement.verdicts"] / criteria if criteria else 0.0
        )
        return out
