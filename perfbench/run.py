"""pentacc benchmark: end-to-end timings, or a traced run with per-layer numbers.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload certify --seed 1 --seconds 20 --trace 0

The load is one closed-loop caller: a single process and thread that makes
each call after the previous one returns.  A pass runs every operation of
the workload once, in an order drawn from the seed; passes repeat until
``--seconds`` have gone by (at least one pass).  Every output is checked
against a reference; failures are counted, never raised.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json: set-up time
(median of fresh interpreters), the median pass time and the geometric mean
of the operations' median times, both rescaled to reference host speed
(speed.py), and peak memory.  ``--trace 1`` reports the
per-layer metrics: micro-timings of each layer, spans and Interval objects
of one traced pass, certificate counts and the tracing overhead.

Human-readable lines (the machine, per-operation times, the failure ratio)
go first; the last line of standard output is one JSON object.  The same
record, with the spans of a traced run, is written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

from speed import SpeedProbe

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
SETUP_RUNS = 5

# What a user pays before the first verdict: a fresh interpreter imports the
# package and builds the sign-type windows and the ray table.
SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import pentacc; "
    "from pentacc.symmetric import sign_type_windows; "
    "from pentacc.tropical import load_ray_table; "
    "sign_type_windows('A'); sign_type_windows('B'); load_ray_table()"
)


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def measure_setup() -> float:
    samples = []
    for _ in range(SETUP_RUNS):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)],
                              capture_output=True, text=True, timeout=120)
        samples.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            fail(f"set-up interpreter failed:\n{proc.stderr}")
    return statistics.median(samples)


def machine(seed: int, trace: int) -> dict:
    import numpy as np
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "load_start": list(os.getloadavg()), "seed": seed,
            "trace": bool(trace)}


class Runner:
    """Runs passes over a workload's operations and records their outcome.

    With a SpeedProbe, each operation's time is also rescaled to the
    reference host speed (see speed.py); without one the two are equal.
    """

    def __init__(self, ops, rng):
        self.ops = ops
        self.rng = rng
        self.probe = None
        self.raw = {op.name: [] for op in ops}
        self.ref = {op.name: [] for op in ops}
        self.outputs = {}
        self.attempted = 0
        self.failures = []

    def run_pass(self, api, tracer=None) -> tuple:
        """(raw seconds, reference seconds) of one pass."""
        order = list(self.ops)
        self.rng.shuffle(order)
        raw_total = ref_total = 0.0
        for op in order:
            inputs = op.draw(self.rng)
            objects = tracer.objects if tracer else 0
            mark = self.probe.mark() if self.probe else None
            t0 = time.perf_counter()
            try:
                out = op.run(api, inputs)
            except Exception:
                out, reason = None, traceback.format_exc(limit=3)
            else:
                reason = None
            raw = time.perf_counter() - t0
            raw, ref = self.probe.rescale(mark, raw) if self.probe else (raw, raw)
            if reason is None:
                try:
                    reason = op.check(out, inputs)
                except Exception:
                    reason = traceback.format_exc(limit=3)
            raw_total += raw
            ref_total += ref
            self.raw[op.name].append(raw)
            self.ref[op.name].append(ref)
            self.outputs[op.name] = (out, tracer.objects - objects if tracer else None)
            self.attempted += 1
            if reason is not None:
                self.failures.append(f"{op.name}: {reason}")
        return raw_total, ref_total

    def run_for(self, api, seconds: float) -> list:
        passes = []
        start = time.perf_counter()
        while not passes or time.perf_counter() - start < seconds:
            passes.append(self.run_pass(api))
        return passes


def end_to_end(runner, passes, setup_s) -> dict:
    medians = [statistics.median(v) for v in runner.ref.values()]
    return {
        "setup_s": (setup_s, "s"),
        "wall_ref_s": (statistics.median(ref for _, ref in passes), "s"),
        "op_geomean_ref_ms": (statistics.geometric_mean(medians) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(runner, seconds, tmp_dir, rng) -> tuple:
    from layers import micro_timings, probe
    from tracing import Tracer
    from workloads import CERT_NAMES, CERT_STAT_KEYS, cert_stats, make_api

    with SpeedProbe() as runner.probe:
        untraced = [ref for _, ref in runner.run_for(make_api(), seconds / 2)]
    metrics = dict(micro_timings(rng))
    with SpeedProbe() as runner.probe:
        # span clock stops while the speed probe's timer runs its loop
        tracer = Tracer(clock=lambda: time.perf_counter() - runner.probe.handler_s)
        tracer.install()
        try:
            traced_raw, traced = runner.run_pass(make_api(tracer), tracer)
            pass_spans = len(tracer.spans)
            objects = tracer.objects
            probe(tracer, tmp_dir)
        finally:
            tracer.uninstall()
    for layer, (calls, self_s) in tracer.layer_totals().items():
        metrics[f"{layer}.calls"] = (calls, "count")
        metrics[f"{layer}.self_s"] = (self_s, "s")
    for name in CERT_NAMES:
        out = runner.outputs.get(name)
        stats = cert_stats(out[0]) if out and out[0] is not None else {}
        for key in CERT_STAT_KEYS:
            metrics[f"certify.{name}.{key}"] = (stats.get(key, 0), "count")
    metrics["intervals.objects"] = (objects, "count")
    metrics["trace.overhead_ratio"] = (traced / statistics.median(untraced), "ratio")
    notes = {
        "traced_pass_ref_s": traced,
        "untraced_pass_ref_s": statistics.median(untraced),
        "untraced_passes": len(untraced),
        "pass_spans": pass_spans,
        "objects_per_op": {k: v[1] for k, v in runner.outputs.items()},
        "symmetric_inclusive_share":
            tracer.inclusive("symmetric", 0, pass_spans) / traced_raw,
    }
    return metrics, notes, tracer.spans


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "pentacc" / "__init__.py").is_file():
        fail(f"no pentacc sources under {SRC}")
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, json.JSONDecodeError) as exc:
        fail(f"cannot read BENCHMARK.json: {exc}")
    sys.path.insert(0, str(SRC))
    info = machine(args.seed, args.trace)
    setup_s = measure_setup() if not args.trace else None

    import pentacc
    if Path(pentacc.__file__).resolve().parent != (SRC / "pentacc").resolve():
        fail(f"imported pentacc from {pentacc.__file__}, not from {SRC}")
    from pentacc.symmetric import sign_type_windows
    from workloads import WORKLOADS, make_api
    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    sign_type_windows("A")
    sign_type_windows("B")

    OUT.mkdir(parents=True, exist_ok=True)
    tmp_dir = tempfile.mkdtemp(prefix="tmp-", dir=OUT)
    rng = random.Random(args.seed)
    try:
        runner = Runner(WORKLOADS[args.workload](
            SimpleNamespace(tmp_dir=tmp_dir)), rng)
        spans = []
        if args.trace:
            metrics, notes, spans = per_layer(runner, args.seconds, tmp_dir, rng)
            wanted = spec["per_layer"]
        else:
            with SpeedProbe() as runner.probe:
                passes = runner.run_for(make_api(), args.seconds)
            metrics = end_to_end(runner, passes, setup_s)
            notes = {"passes": len(passes),
                     "wall_s": statistics.median(raw for raw, _ in passes),
                     "speed_samples": len(runner.probe.loops),
                     "speed_loop_median_s": statistics.median(runner.probe.loops)}
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(tmp_dir, ignore_errors=True)
    info["load_end"] = list(os.getloadavg())

    expected = {m["name"]: m["unit"] for m in wanted}
    produced = {name: unit for name, (_, unit) in metrics.items()}
    if produced != expected:
        fail(f"metrics {sorted(produced.items())} do not match BENCHMARK.json "
             f"{sorted(expected.items())}")

    failed = len(runner.failures)
    print(f"# perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("# machine " + json.dumps(info))
    for name, times in runner.raw.items():
        q = statistics.quantiles(times, n=10) if len(times) >= 10 else None
        print(f"# op {name}: n={len(times)} median={statistics.median(times):.6f} s"
              + (f" p90={q[-1]:.6f} s" if q else "")
              + f" ref_median={statistics.median(runner.ref[name]):.6f} s")
    for reason in runner.failures:
        print(f"# FAILED {reason}")
    print(f"# failed_ratio={failed}/{runner.attempted}={failed / runner.attempted:.4g}")
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value} {unit}")
    for key, value in notes.items():
        print(f"# {key} = {value}")

    result = {"correct": failed == 0, "attempted": runner.attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    record = dict(result, workload=args.workload, machine=info, notes=notes,
                  op_times=runner.raw, op_ref_times=runner.ref, failures=runner.failures)
    if spans:
        record["spans"] = spans
    out_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, separators=(",", ":")))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
