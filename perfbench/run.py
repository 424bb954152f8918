"""trajrisk benchmark: seeded workloads, end-to-end and per-layer metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload position-exact --seed 1 --seconds 25 --trace 0

One process, one caller, closed loop: each call starts when the previous
one and its (untimed) correctness check have finished.  The workloads and
the reasons for them are in ``workloads.py`` and ``BENCHMARK.json``.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median over
fresh interpreters of import plus one untimed warm-up call),
``assess_ms_p50`` (Harrell-Davis median of per-call latency),
``evals_per_s`` ((agent, step, method) values per timed second) and
``peak_rss_mb``.  ``--trace 1``
first runs untraced for half the time, then replays the same inputs with
every traced function rebound (``tracing.py``) and reports the per-layer
metrics, the tracing overhead, and the accuracy and tail figures.  Both
modes print a run record (machine, versions, sample counts, gate results,
digest of every risk value) before the final JSON line; the spans go to
``perfbench/out/``.

The package is imported from ``src/`` of the checkout; without it the
script exits with status 2 and prints no result.
"""

from __future__ import annotations

import os

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from typing import List, Optional  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")
SETUP_SAMPLES = 3
P90_MIN_CALLS = 100   # p90 needs at least ten calls beyond it
METHOD_TIMINGS = ("imhof", "ltz", "chebyshev-quad", "chebyshev-halfspace", "sos-d2", "mc")


def _import_workloads():
    """Import the workloads against the checkout's own src/trajrisk, or exit 2."""
    if not os.path.isfile(os.path.join(SRC, "trajrisk", "__init__.py")):
        sys.stderr.write(f"perfbench: no trajrisk sources under {SRC}\n")
        sys.exit(2)
    sys.path[:0] = [HERE, SRC]
    import workloads

    return workloads


@dataclass
class Call:
    inp: object
    latency_s: float
    digest: str = ""
    outcome: Optional[object] = None
    error: Optional[str] = None


@dataclass
class Loop:
    calls: List[Call] = field(default_factory=list)
    wall_s: float = 0.0

    @property
    def ok(self) -> List[Call]:
        return [c for c in self.calls if c.error is None]


def _digest(values) -> str:
    return hashlib.sha256(repr([float(v) for v in values]).encode()).hexdigest()


def _run_call(wl, inp, check: bool) -> Call:
    """Time one call; with `check`, run the gate and references afterwards."""
    try:
        t0 = time.perf_counter()
        out = wl.call(inp)
        latency = time.perf_counter() - t0
        call = Call(inp, latency, _digest(wl.values(out)))
        if check:
            call.outcome = wl.check(inp, out)
    except Exception:  # a failed call is counted, never fatal
        return Call(inp, 0.0, error=traceback.format_exc(limit=3))
    if call.outcome is not None and call.outcome.failures:
        call.error = "; ".join(call.outcome.failures[:3])
    return call


def measure(wl, seconds: float, keep_inputs: bool) -> Loop:
    """Whole cycles of calls until the next would end over half a cycle past `seconds`.

    Only the first `wl.min_calls` calls keep their accuracy figures, and
    inputs are kept only for a traced replay, so memory does not grow with
    the number of calls a run fits in.
    """
    loop = Loop()
    start = time.perf_counter()
    i = 0
    while True:
        for _ in range(wl.cycle):
            call = _run_call(wl, wl.make_input(i), check=True)
            if not keep_inputs:
                call.inp = None
            if i >= wl.min_calls and call.outcome is not None:
                call.outcome.slack, call.outcome.exact_err = [], []
            loop.calls.append(call)
            i += 1
        elapsed = time.perf_counter() - start
        per_cycle = elapsed / (i // wl.cycle)
        if i >= wl.min_calls and elapsed + per_cycle / 2 > seconds:
            break
    loop.wall_s = time.perf_counter() - start
    return loop


def replay_traced(wl, calls: List[Call], tracer) -> List[Call]:
    """Re-run the same inputs traced; a result that changes counts as failed."""
    traced = []
    with tracer.install():
        for n, c in enumerate(calls):
            tracer.call_id = n
            traced.append(_run_call(wl, c.inp, check=False))
    for c, t in zip(calls, traced):
        if t.error is None and t.digest != c.digest:
            t.error = "traced result differs from the untraced one"
    return traced


def setup_times(workload: str, seed: int, tiny: bool) -> List[float]:
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", workload, "--seed", str(seed)] + (["--tiny"] if tiny else [])
    samples = []
    for _ in range(1 if tiny else SETUP_SAMPLES):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=50, cwd=ROOT)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            sys.exit(proc.returncode or 1)
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def setup_probe(workload: str, seed: int, tiny: bool) -> None:
    t0 = time.perf_counter()
    workloads = _import_workloads()
    t1 = time.perf_counter()
    wl = workloads.WORKLOADS[workload](seed, tiny)
    inp = wl.make_input(0)
    t2 = time.perf_counter()
    wl.warmup(inp)
    t3 = time.perf_counter()
    print(json.dumps({"setup_s": (t1 - t0) + (t3 - t2)}))


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _accuracy(loop: Loop, min_calls: int) -> dict:
    """Gate and accuracy figures over the first `min_calls` calls (fixed per seed)."""
    head = loop.calls[:min_calls]
    slack = [s for c in head if c.outcome for s in c.outcome.slack]
    err = [e for c in head if c.outcome for e in c.outcome.exact_err]
    return {
        "bound_slack_mean": statistics.fmean(slack) if slack else 0.0,
        "bound_slack_n": len(slack),
        "exact_err_max": max(err) if err else 0.0,
        "exact_err_n": len(err),
        "digest": hashlib.sha256("".join(c.digest for c in head).encode()).hexdigest(),
        "digest_calls": len(head),
    }


def _quantile(values: List[float], p: float) -> float:
    """Harrell-Davis estimate: a weighted mean of all order statistics, which
    varies less between runs than one or two middle samples when calls are few
    or come in a few sizes."""
    import numpy as np
    from scipy import special  # already loaded by trajrisk; scipy.stats is not

    n = len(values)
    edges = special.betainc(p * (n + 1), (1 - p) * (n + 1), np.arange(n + 1) / n)
    return float(np.diff(edges) @ np.sort(values))


def _record(args, wl, loop: Loop, setup: List[float]) -> dict:
    import numpy
    import scipy

    lat_ms = [c.latency_s * 1e3 for c in loop.ok]
    n = len(lat_ms)
    rec = {
        "workload": args.workload,
        "seed": args.seed,
        "tiny": args.tiny,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": BLAS_THREADS,
        "clients": 1,
        "loop": "closed",
        "horizon": wl.horizon,
        "setup_samples_s": setup,
        "timed_calls": n,
        "attempted": len(loop.calls),
        "failed": len(loop.calls) - n,
        "failed_frac": (len(loop.calls) - n) / len(loop.calls),
        "loop_wall_s": loop.wall_s,
        "latencies_ms": [round(x, 3) for x in lat_ms],
        "assess_ms_p50": _quantile(lat_ms, 0.5),
        "assess_ms_p90": _quantile(lat_ms, 0.9) if n >= P90_MIN_CALLS else None,
    }
    rec.update(_accuracy(loop, wl.min_calls))
    return rec


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="4-step horizons and 2e4 MC samples, for the smoke test")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    if args.setup_probe:
        setup_probe(args.workload, args.seed, args.tiny)
        return 0

    workloads = _import_workloads()
    if args.workload not in workloads.WORKLOADS:
        ap.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    setup = setup_times(args.workload, args.seed, args.tiny)
    wl = workloads.WORKLOADS[args.workload](args.seed, args.tiny)
    wl.warmup(wl.make_input(0))

    metrics = {}
    loop = measure(wl, args.seconds if args.trace == 0 else args.seconds / 2,
                   keep_inputs=args.trace == 1)
    if not loop.ok:
        sys.stderr.write(loop.calls[0].error + "\n")
        sys.exit("perfbench: every call failed; no metrics to report")
    attempts = list(loop.calls)
    rec = _record(args, wl, loop, setup)
    if args.trace == 0:
        lat_s = [c.latency_s for c in loop.ok]
        evals = sum(c.outcome.evals for c in loop.ok)
        metrics["setup_s"] = (statistics.median(setup), "s")
        metrics["assess_ms_p50"] = (rec["assess_ms_p50"], "ms")
        metrics["evals_per_s"] = (evals / sum(lat_s), "1/s")
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    else:
        from tracing import Tracer

        tracer = Tracer()
        traced = replay_traced(wl, loop.ok, tracer)
        attempts += traced
        untraced_s = sum(c.latency_s for c in loop.ok)
        traced_s = sum(c.latency_s for c in traced)
        rec["module_self_share"] = tracer.module_shares()
        os.makedirs(OUT_DIR, exist_ok=True)
        span_path = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.json")
        tracer.write(span_path)
        rec["spans_file"] = os.path.relpath(span_path, ROOT)
        rec["span_count"] = len(tracer.spans)
        metrics.update(tracer.layer_metrics())
        agents = sum(c.outcome.agents for c in loop.ok)
        for m in METHOD_TIMINGS:
            ms = sum(c.outcome.method_ms.get(m, 0.0) for c in loop.ok)
            metrics[f"scenario.run_assess.{m}.ms_per_agent"] = (ms / agents if agents else 0.0, "ms")
        metrics["trace.overhead_ms"] = ((traced_s - untraced_s) * 1e3, "ms")
        metrics["trace.overhead_frac"] = ((traced_s - untraced_s) / untraced_s, "frac")
        metrics["failed_frac"] = (rec["failed_frac"], "frac")
        metrics["exact_err_max"] = (rec["exact_err_max"], "prob")
        metrics["bound_slack_mean"] = (rec["bound_slack_mean"], "prob")
        metrics["assess_ms_p90"] = (rec["assess_ms_p90"] or 0.0, "ms")
        metrics["assess_calls"] = (rec["timed_calls"], "count")

    failed = [c for c in attempts if c.error is not None]
    for c in failed:
        sys.stderr.write(f"failed call: {c.error}\n")
    print(json.dumps({"record": rec}))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(attempts),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
