"""Outside-in layer tracing for the benchmark's traced runs.

The package has no instrumentation of its own, so the tracer wraps each
public function listed in ``TRACED`` and rebinds every name under which a
trajrisk module imported it (``engine.imhof_cdf``, ``sos.solve_dense_sdp``,
``frames.rotate_form`` inside ``to_ego_frame`` ...).  Spans are kept in
memory as (name, call id, start, end, parent) and written out when the run
ends; a span's self time is its duration minus its children's.  Counters
read from the returned objects are kept next to the spans.
"""

from __future__ import annotations

import importlib
import inspect
import json
import pkgutil
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, List

# (module, function) pairs, named in the metrics as "<module>.<function>".
TRACED = (
    ("scenario", "scenario_from_dict"),
    ("scenario", "run_assess"),
    ("scenario", "to_json"),
    ("engine", "marginal_risk"),
    ("engine", "trajectory_risk"),
    ("frames", "rotate_form"),
    ("frames", "to_ego_frame"),
    ("distributions", "gaussian2d_raw_moments"),
    ("qfmvg", "spectral_reduce"),
    ("qfmvg", "imhof_cdf"),
    ("qfmvg", "ltz_cdf"),
    ("chebyshev", "ellipse_to_halfspaces"),
    ("chebyshev", "cheb_bound_halfspace"),
    ("chebyshev", "cheb_bound_quadratic"),
    ("sos", "sos_risk_bound"),
    ("sdp", "solve_dense_sdp"),
    ("treering", "derive_position_moments"),
    ("treering", "dubins_position_tables"),
    ("treering", "propagate"),
    ("mc", "mc_position_risk"),
    ("mc", "mc_control_risk"),
)
SPAN_NAMES = tuple(f"{m}.{f}" for m, f in TRACED)
COUNTERS = (
    ("sdp.iterations", "count/call"),
    ("sdp.not_optimal", "count"),
    ("sos.degraded_frac", "frac"),
    ("qfmvg.imhof_cdf.max_error_bound", "prob"),
    ("mc.samples_per_s", "1/s"),
)


class Tracer:
    """Span recorder; ``install`` rebinds the traced names while active."""

    def __init__(self):
        self.spans: List[list] = []   # [name, call_id, start, end, parent]
        self.call_id = -1
        self._stack: List[int] = []
        self._sdp_iters = 0
        self._sdp_not_optimal = 0
        self._sos_degraded = 0
        self._imhof_err = 0.0
        self._mc_samples = 0

    def _wrap(self, name: str, fn, observe):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, self.call_id, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx][2:4] = (start, end)
            if observe is not None:
                observe(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _observer(self, name: str, fn):
        if name == "sdp.solve_dense_sdp":
            def observe(args, kwargs, sol):
                self._sdp_iters += sol.iterations
                self._sdp_not_optimal += sol.status != "optimal"
        elif name == "sos.sos_risk_bound":
            def observe(args, kwargs, bound):
                self._sos_degraded += bound.note is not None
        elif name == "qfmvg.imhof_cdf":
            def observe(args, kwargs, res):
                if res.error_bound is not None:
                    self._imhof_err = max(self._imhof_err, res.error_bound)
        elif name.startswith("mc."):
            sig = inspect.signature(fn)

            def observe(args, kwargs, res):
                self._mc_samples += int(sig.bind(*args, **kwargs).arguments["n_samples"])
        else:
            observe = None
        return observe

    @contextmanager
    def install(self):
        """Rebind every traced function in every trajrisk module; undo on exit."""
        import trajrisk
        from trajrisk.scenario import RiskReport

        mods = [trajrisk] + [
            importlib.import_module(f"trajrisk.{m.name}")
            for m in pkgutil.iter_modules(trajrisk.__path__)
        ]
        undo = []
        for mod_name, fn_name in TRACED:
            name = f"{mod_name}.{fn_name}"
            if fn_name == "to_json":
                owners, orig = [RiskReport], RiskReport.to_json
            else:
                orig = getattr(importlib.import_module(f"trajrisk.{mod_name}"), fn_name)
                owners = mods
            wrapper = self._wrap(name, orig, self._observer(name, orig))
            for owner in owners:
                for attr, val in list(vars(owner).items()):
                    if val is orig:
                        setattr(owner, attr, wrapper)
                        undo.append((owner, attr, orig))
        try:
            yield self
        finally:
            for owner, attr, orig in reversed(undo):
                setattr(owner, attr, orig)

    def layer_metrics(self) -> Dict[str, tuple]:
        """Per-function calls, ms and self ms plus the counters, as name -> (value, unit)."""
        child_s = [0.0] * len(self.spans)
        for name, _, start, end, parent in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        calls: Dict[str, int] = defaultdict(int)
        total: Dict[str, float] = defaultdict(float)
        own: Dict[str, float] = defaultdict(float)
        for i, (name, _, start, end, _) in enumerate(self.spans):
            calls[name] += 1
            total[name] += end - start
            own[name] += end - start - child_s[i]
        out: Dict[str, tuple] = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = (calls[name], "count")
            out[f"{name}.ms"] = (total[name] * 1e3, "ms")
            out[f"{name}.self_ms"] = (own[name] * 1e3, "ms")
        sdp_calls = calls["sdp.solve_dense_sdp"]
        sos_calls = calls["sos.sos_risk_bound"]
        mc_s = total["mc.mc_position_risk"] + total["mc.mc_control_risk"]
        values = {
            "sdp.iterations": self._sdp_iters / sdp_calls if sdp_calls else 0.0,
            "sdp.not_optimal": self._sdp_not_optimal,
            "sos.degraded_frac": self._sos_degraded / sos_calls if sos_calls else 0.0,
            "qfmvg.imhof_cdf.max_error_bound": self._imhof_err,
            "mc.samples_per_s": self._mc_samples / mc_s if mc_s else 0.0,
        }
        for name, unit in COUNTERS:
            out[name] = (values[name], unit)
        return out

    def module_shares(self) -> Dict[str, float]:
        """Share of all traced self time spent in each module."""
        own: Dict[str, float] = defaultdict(float)
        for name, value in self.layer_metrics().items():
            if name.endswith(".self_ms"):
                own[name.split(".")[0]] += value[0]
        total = sum(own.values()) or 1.0
        return {mod: ms / total for mod, ms in sorted(own.items(), key=lambda kv: -kv[1])}

    def write(self, path: str) -> None:
        names = {n: i for i, n in enumerate(SPAN_NAMES)}
        t0 = self.spans[0][2] if self.spans else 0.0
        rows = [
            [names[n], call, round((s - t0) * 1e6, 3), round((e - t0) * 1e6, 3), parent]
            for n, call, s, e, parent in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": list(SPAN_NAMES),
                       "columns": ["name", "call", "start_us", "end_us", "parent"],
                       "spans": rows}, fh, separators=(",", ":"))
