"""Spans and counters around the public functions of loopsift's modules.

``Tracer.install`` replaces every public function of the layer modules
(and the scorer's methods) by a wrapper that times the call, and swaps
the wrapper in wherever a loopsift module holds the function under a
name, so calls through ``from .x import f`` bindings are seen too.
Spans nest on one stack (the sift runs with ``--threads 1``); a span's
self time is its duration minus that of its child spans.  The geometry
helpers are counted but not timed: they are the arithmetic inside the
other layers (``render_depth`` rotates every surfel with
``quat_rotate``), so their time stays in their callers' self time and
thousands of tiny calls pay no clock reads.  Counters are taken at the
same boundaries, from the calls' arguments and results.  Spans stay in
memory as per-function sums until ``snapshot``.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

LAYERS = ("consistency", "posegraph", "surfels", "sifting", "synth", "ingest",
          "evaluation", "geometry")
COUNTED_ONLY = {"geometry"}


def _add(counters, name, value):
    counters[name] = counters.get(name, 0) + value


def _hook(name, counters, args, kwargs, result):
    if name == "consistency.render_depth":
        _add(counters, "consistency.surfels_splatted", len(args[0]))
        _add(counters, "consistency.pixels_rendered", result.width * result.height)
    elif name == "consistency.score_frame":
        _add(counters, "consistency.pixels_compared", result[1])
    elif name == "posegraph.optimize":
        _add(counters, "posegraph.lm_iterations", result.iterations)
        _add(counters, "posegraph.loop_edges",
             len(kwargs.get("loops", args[1] if len(args) > 1 else ())))
    elif name == "surfels.build_fragments":
        _add(counters, "surfels.surfels_fused", sum(len(f.surfels) for f in result))
    elif name == "sifting.sift":  # the baseline map is scored once per sift
        _add(counters, "sifting.evaluations", 1)
    elif name == "sifting.rank_loops":
        _add(counters, "sifting.evaluations", len(result))
    elif name == "sifting.greedy_accept":
        _add(counters, "sifting.evaluations", len(result.trace))
        _add(counters, "sifting.units_accepted", len(result.accepted))
    elif name == "sifting.expand_fragment_loop":
        _add(counters, "sifting.expanded_frame_loops", len(result))
    elif name == "synth.render_synthetic_depth":
        _add(counters, "synth.rays_cast", result.depth.size)


class Tracer:
    def __init__(self):
        self.spans = {}  # name -> [calls, total seconds, self seconds]
        self.counters = {}
        self._stack = []
        self._patched = []  # (owner, attribute, original)

    def _wrap(self, name, fn):
        stats = self.spans.setdefault(name, [0, 0.0, 0.0])
        stack, counters = self._stack, self.counters

        if name.split(".")[0] in COUNTED_ONLY:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                stats[0] += 1
                return fn(*args, **kwargs)

            return counted

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                stats[0] += 1
                stats[1] += dt
                stats[2] += dt - children[0]
            _hook(name, counters, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        import loopsift.cli  # noqa: F401  (loads every module)

        package = [m for n, m in sys.modules.items()
                   if n == "loopsift" or n.startswith("loopsift.")]
        wrapped = {}
        for layer in LAYERS:
            mod = sys.modules[f"loopsift.{layer}"]
            for attr, fn in inspect.getmembers(mod, inspect.isfunction):
                if not attr.startswith("_") and fn.__module__ == mod.__name__:
                    wrapped[id(fn)] = (fn, self._wrap(f"{layer}.{attr}", fn))
        scorer = sys.modules["loopsift.consistency"].DepthConsistencyScorer
        for attr, name in (("score_frame", "consistency.score_frame"),
                           ("__call__", "consistency.score")):
            fn = scorer.__dict__[attr]
            self._patched.append((scorer, attr, fn))
            setattr(scorer, attr, self._wrap(name, fn))
        for mod in package:
            for attr, value in list(vars(mod).items()):
                if id(value) in wrapped and wrapped[id(value)][0] is value:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, wrapped[id(value)][1])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def snapshot(self) -> dict:
        return {"spans": {k: list(v) for k, v in self.spans.items()},
                "counters": dict(self.counters)}
