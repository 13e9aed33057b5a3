"""Spans around capsieve's public functions, installed from outside the package.

Every public function defined in a layer module is replaced by a wrapper in
every capsieve module namespace that holds it (``sieve.largest_zero`` as
well as ``specfun.largest_zero``), so calls made through any import are
seen.  ``RegionSpec.contains`` is wrapped on the class.  A span's self time
is its duration minus the time of the spans it encloses, so the self times
of all spans add up to the time spent inside the outermost ones.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

import numpy as np

from capsieve import _backend, cli, manifold, oracle, region, sieve, specfun

# layer name -> module.  "_backend" is reported as "backend": metric names
# must start with a letter or a digit.
LAYERS = {"specfun": specfun, "manifold": manifold, "sieve": sieve,
          "region": region, "oracle": oracle, "cli": cli, "backend": _backend}


class Tracer:
    def __init__(self) -> None:
        self.spans: dict[str, list] = {}   # name -> [calls, self seconds]
        self.counts = {"region.points_sampled": 0, "oracle.active_nodes": 0}
        self._stack: list[list[float]] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, on_call=None, on_result=None):
        stat = self.spans.setdefault(name, [0, 0.0])
        stack = self._stack

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if on_call is not None:
                on_call(args, kwargs)
            child = [0.0]
            stack.append(child)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                stat[0] += 1
                stat[1] += dt - child[0]
                if stack:
                    stack[-1][0] += dt
            if on_result is not None:
                on_result(out)
            return out

        return span

    def _count_points(self, args, kwargs) -> None:
        u = kwargs["u"] if "u" in kwargs else args[3]
        self.counts["region.points_sampled"] += int(np.size(u))

    def _count_active(self, result) -> None:
        self.counts["oracle.active_nodes"] += int(result.region["n_active"])

    def install(self) -> None:
        hooks = {"backend.invert_beta_tail_cdf": {"on_call": self._count_points},
                 "oracle.concentration_eigenvalue": {"on_result": self._count_active}}
        wrappers = {}
        for layer, mod in LAYERS.items():
            for attr, fn in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                name = f"{layer}.{attr}"
                wrappers[id(fn)] = (fn, self._wrap(name, fn, **hooks.get(name, {})))
        namespaces = [m for n, m in sys.modules.items()
                      if n == "capsieve" or n.startswith("capsieve.")]
        for mod in namespaces:
            for attr, val in list(vars(mod).items()):
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    self._patch(mod, attr, val, hit[1])
        contains = region.RegionSpec.contains
        self._patch(region.RegionSpec, "contains", contains,
                    self._wrap("region.contains", contains))

    def _patch(self, owner, attr: str, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def summary(self) -> dict:
        return {"spans": {k: {"calls": v[0], "self_s": v[1]}
                          for k, v in sorted(self.spans.items())},
                "counts": dict(self.counts)}
