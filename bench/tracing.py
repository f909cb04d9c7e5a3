"""Per-layer tracing from outside the package.

``Tracer.install`` replaces every public function of the layer modules, in
every module namespace of the package that holds it, with a wrapper that
records a span (id, name, start, end, parent id, op id) and per-name counts;
``uninstall`` puts the originals back.  The package itself is not edited:
calls inside a module go through its globals, so they reach the wrappers
too.  Spans stay in memory and are written out once, at the end of a run.
"""

import sys
import time
from array import array
from collections import Counter, defaultdict

import numpy as np

LAYERS = ("cli", "platforms", "recursive", "fixed_points", "analytic", "maps",
          "path_length", "mc")


class _Proxy:
    """Delegates every attribute to ``target`` except the ones given."""

    def __init__(self, target, **overrides):
        self._target = target
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._target, name)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_id = array("l")
        self.span_name = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("l")
        self.span_op = array("l")
        self.self_s = defaultdict(float)    # by span name
        self.total_s = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()             # named counters kept by the hooks
        self._stack = []                    # [span id, start, child time]
        self._next_id = 0
        self._op = -1
        self._solved = set()
        self._patches = []

    # --- spans ---------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, name: str, fn, hook=None):
        nid = self._name_id(name)
        stack = self._stack
        clock = time.perf_counter
        self_s, total_s, calls = self.self_s, self.total_s, self.calls

        def traced(*args, **kwargs):
            if hook is not None:
                args = hook(args, kwargs)
            span_id = self._next_id
            self._next_id += 1
            frame = [span_id, clock(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[1]
                self_s[name] += duration - frame[2]
                total_s[name] += duration
                calls[name] += 1
                parent = -1
                if stack:
                    stack[-1][2] += duration
                    parent = stack[-1][0]
                self.span_id.append(span_id)
                self.span_name.append(nid)
                self.span_start.append(frame[1])
                self.span_end.append(end)
                self.span_parent.append(parent)
                self.span_op.append(self._op)

        traced.__wrapped__ = fn
        return traced

    def op(self, op_id: int, run):
        """Run ``run()`` as op ``op_id``, under a root span named ``op``."""
        self._op = op_id
        self._solved = set()
        return self._wrap("op", run)()

    # --- hooks: counts at the layer boundaries -------------------------------

    def _purify_hook(self, trace_step: bool):
        counts = self.counts

        def hook(args, kwargs):
            f = args[0] if args else kwargs["fidelity"]
            if type(f) is float or np.ndim(f) == 0:
                counts["maps.purify.scalar_calls"] += 1
            else:
                counts["maps.purify.array_calls"] += 1
                counts["maps.purify.array_elems"] += np.size(f)
            if trace_step:
                counts["recursive.trace_steps"] += 1
            return args

        return hook

    def _fixed_point_hook(self, args, kwargs):
        key = (args, tuple(sorted(kwargs.items())))
        if key in self._solved:
            self.counts["fixed_points.find_fixed_points.repeats"] += 1
        self._solved.add(key)
        return args

    def _trials_hook(self, args, kwargs):
        self.counts["mc.trials"] += args[3] if len(args) > 3 else kwargs["trials"]
        return args

    def _simpson_hook(self, args, kwargs):
        func = args[0]
        counts = self.counts

        def integrand(x):
            counts["analytic.quad_nodes"] += 1
            return func(x)

        return (integrand,) + tuple(args[1:])

    # --- installation ----------------------------------------------------------

    def install(self) -> None:
        from repeater_scaling import mc

        public = {}
        for layer in LAYERS:
            module = sys.modules[f"repeater_scaling.{layer}"]
            for attr in getattr(module, "__all__", ["main"]):
                fn = getattr(module, attr)
                if callable(fn) and not isinstance(fn, type):
                    public[id(fn)] = f"{layer}.{attr}"
        hooks = {"fixed_points.find_fixed_points": self._fixed_point_hook,
                 "analytic.adaptive_simpson": self._simpson_hook,
                 "mc.simulate_counts": self._trials_hook}
        for module_name, module in list(sys.modules.items()):
            if module_name.split(".")[0] != "repeater_scaling":
                continue
            for attr, value in list(vars(module).items()):
                name = public.get(id(value))
                if name is None:
                    continue
                hook = hooks.get(name)
                if name == "maps.purify":
                    hook = self._purify_hook(module_name == "repeater_scaling.recursive")
                self._patches.append((module, attr, value))
                setattr(module, attr, self._wrap(name, value, hook))
        # mc calls np.random.default_rng; only its calls are timed.
        rng = self._wrap("mc.default_rng", np.random.default_rng)
        self._patches.append((mc, "np", mc.np))
        mc.np = _Proxy(np, random=_Proxy(np.random, default_rng=rng))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patches):
            setattr(module, attr, value)
        self._patches = []

    # --- results -----------------------------------------------------------------

    def write_spans(self, path) -> None:
        np.savez_compressed(
            path, names=np.array(self.names), id=np.frombuffer(self.span_id, np.int64),
            name=np.frombuffer(self.span_name, np.uint16),
            start=np.frombuffer(self.span_start), end=np.frombuffer(self.span_end),
            parent=np.frombuffer(self.span_parent, np.int64),
            op=np.frombuffer(self.span_op, np.int64))

    def layer_metrics(self, traced_ops: int) -> dict[str, float]:
        """Per-op layer figures over the traced ops."""
        per_op = 1.0 / traced_ops
        trials = self.counts["mc.trials"]
        layer_self = defaultdict(float)
        for name, seconds in self.self_s.items():
            if name != "op":
                layer_self[name.split(".", 1)[0]] += seconds
        solves = self.calls["fixed_points.find_fixed_points"]
        metrics = {f"{layer}.self_s": layer_self[layer] * per_op for layer in LAYERS}
        metrics.update({
            "fixed_points.find_fixed_points.calls": solves * per_op,
            "fixed_points.find_fixed_points.self_s":
                self.self_s["fixed_points.find_fixed_points"] * per_op,
            "fixed_points.find_fixed_points.repeat_ratio":
                self.counts["fixed_points.find_fixed_points.repeats"] / solves if solves else 0.0,
            "recursive.optimal_recursive_exponent.calls":
                self.calls["recursive.optimal_recursive_exponent"] * per_op,
            "recursive.optimal_recursive_exponent.self_s":
                self.self_s["recursive.optimal_recursive_exponent"] * per_op,
            "recursive.resource_exponent.self_s":
                self.self_s["recursive.resource_exponent"] * per_op,
            "recursive.trace_steps": self.counts["recursive.trace_steps"] * per_op,
            "analytic.adaptive_simpson.calls": self.calls["analytic.adaptive_simpson"] * per_op,
            "analytic.quad_nodes": self.counts["analytic.quad_nodes"] * per_op,
            "analytic.adaptive_simpson.self_s": self.self_s["analytic.adaptive_simpson"] * per_op,
            "maps.purify.scalar_calls": self.counts["maps.purify.scalar_calls"] * per_op,
            "maps.purify.array_calls": self.counts["maps.purify.array_calls"] * per_op,
            "maps.purify.array_elems": self.counts["maps.purify.array_elems"] * per_op,
            "maps.purify.self_s": self.self_s["maps.purify"] * per_op,
            "maps.swap_fidelity.calls": self.calls["maps.swap_fidelity"] * per_op,
            "path_length.max_path_length.self_s":
                self.self_s["path_length.max_path_length"] * per_op,
            "mc.simulate_counts.self_s": self.self_s["mc.simulate_counts"] * per_op,
            "mc.trial_us": self.total_s["mc.simulate_counts"] / trials * 1e6 if trials else 0.0,
            "mc.rng_construct_s": self.total_s["mc.default_rng"] * per_op,
            "platforms.evaluate_platform.self_s":
                self.self_s["platforms.evaluate_platform"] * per_op,
            "platforms.sweep.self_s": self.self_s["platforms.sweep"] * per_op,
            "trace.accounted_share": sum(layer_self.values()) / self.total_s["op"],
        })
        return metrics
