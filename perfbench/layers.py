"""Per-layer micro-timings and the one-call-per-layer probe of the traced run.

Every micro-timing calls one public function of one layer on seeded inputs
and reports the median over batches of the mean time per call.  Inputs
that the function rejects (an angle pair that is not realisable, a box whose
enclosure cannot be evaluated) are dropped while drawing, outside the
timing, so every timed call succeeds.
"""

from __future__ import annotations

import math
import os
import statistics
import time
from fractions import Fraction

import numpy as np

from pentacc import certify, cli, equations, geometry, symmetric, tropical
from pentacc.geometry import ChainAngles, SymmetricShape, cyclic_from_angles
from pentacc.intervals import Box, Interval, Jet2
from pentacc.symmetric import window_for

# (metric name, unit, scale from seconds)
MICRO_METRICS = (
    ("intervals.add_us", "us", 1e6),
    ("intervals.mul_us", "us", 1e6),
    ("intervals.pow_real_us", "us", 1e6),
    ("symmetric.F_float_us", "us", 1e6),
    ("symmetric.F_grid_us", "us", 1e6),
    ("symmetric.F_dual_interval_ms", "ms", 1e3),
    ("symmetric.F_jet2_interval_ms", "ms", 1e3),
    ("certify.box_eval_ms", "ms", 1e3),
    ("equations.region_classify_us", "us", 1e6),
    ("equations.la2_feasible_us", "us", 1e6),
    ("geometry.mutual_distances_us", "us", 1e6),
    ("equations.mass_kernel_us", "us", 1e6),
    ("tropical.build_system_ms", "ms", 1e3),
    ("tropical.in_prevariety_ms", "ms", 1e3),
)

BATCHES = 5


def _per_call(fn, inputs) -> float:
    """Median over batches of the mean seconds per call of ``fn``."""
    times = []
    for _ in range(BATCHES):
        t0 = time.perf_counter()
        for x in inputs:
            fn(x)
        times.append((time.perf_counter() - t0) / len(inputs))
    return statistics.median(times)


def _evaluable(fn, candidates, n) -> list:
    out = []
    for x in candidates:
        try:
            fn(x)
        except (ArithmeticError, ValueError):
            continue
        out.append(x)
        if len(out) == n:
            break
    if len(out) < n:
        raise RuntimeError(f"only {len(out)} of {n} seeded inputs evaluate")
    return out


# windows with the exponent ranges of the certificates that bisect them
_WINDOWS = (("A", "A2", (2.0, 3.0)), ("A", "A4", (2.0, 3.0)), ("B", "B2", (2.0, 6.0)))


def _points(rng, n):
    """Seeded (branch, y4, A) points inside the certified windows."""
    pts = []
    for _ in range(n):
        branch, label, (a_lo, a_hi) = rng.choice(_WINDOWS)
        lo, hi = window_for(branch, label, inset=1e-3)
        pts.append((branch, rng.uniform(lo, hi), rng.uniform(a_lo, a_hi),
                    (hi - lo) * 1e-4, (a_hi - a_lo) * 1e-3))
    return pts


def _angles(rng, n):
    cands = (ChainAngles(rng.uniform(0.05, 2 * math.pi - 0.05),
                         rng.uniform(0.05, 2 * math.pi - 0.05),
                         rng.choice(("plus", "minus"))) for _ in range(50 * n))
    return _evaluable(lambda a: equations.region_classify(a, 3.0), cands, n)


def micro_timings(rng) -> dict:
    """{metric: (value, unit)} for every per-layer micro-timing."""
    ivs = []
    for _ in range(4000):
        lo = rng.uniform(-10.0, 10.0)
        lo2 = rng.uniform(-10.0, 10.0)
        ivs.append((Interval(lo, lo + rng.uniform(0.0, 1.0)),
                    Interval(lo2, lo2 + rng.uniform(0.0, 1.0))))
    pows = []
    for _ in range(2000):
        lo = rng.uniform(0.5, 3.0)
        pows.append((Interval(lo, lo + rng.uniform(0.0, 0.1)), -rng.uniform(2.05, 5.95)))
    pts = _points(rng, 400)
    scalar = [(b, y, a) for b, y, a, _, _ in pts]
    grids = [(b, np.linspace(*window_for(b, "A2" if b == "A" else "B2", inset=1e-9), 4097), a)
             for b, _, a, _, _ in pts[:20]]
    duals = _evaluable(lambda p: symmetric.F_dual(Interval(p[1], p[1] + p[3]), p[2], p[0]),
                       pts, 40)
    jets = _evaluable(
        lambda p: symmetric.F(Jet2.variable_y(Interval(p[1], p[1] + p[3])), branch=p[0],
                              a_exp=Jet2.variable_a(Interval(p[2], p[2] + p[4]))),
        pts, 20)
    boxes = _evaluable(
        lambda bb: certify.eval_F_interval(bb[1], bb[0]),
        ((p[0], Box(Interval(p[1], p[1] + p[3]), Interval(p[2], p[2] + p[4])))
         for p in pts), 16)
    angles = _angles(rng, 200)
    configs = [cyclic_from_angles(a) for a in angles]
    matrices = [equations.mass_coefficient_matrix(SymmetricShape(y, b), a)
                for b, y, a in scalar[:200]]
    exps = [Fraction(3), Fraction(5, 2)]
    system = tropical.build_system(Fraction(3))
    table = tropical.load_ray_table()
    rays = []
    for _ in range(16):
        w = table.ray_weight(rng.choice(table.rays)[0], Fraction(3))
        for _ in range(rng.randrange(5)):
            w = tropical.cyclic_weight(w)
        rays.append(w)

    seconds = {
        "intervals.add_us": _per_call(lambda p: p[0] + p[1], ivs),
        "intervals.mul_us": _per_call(lambda p: p[0] * p[1], ivs),
        "intervals.pow_real_us": _per_call(lambda p: p[0] ** p[1], pows),
        "symmetric.F_float_us": _per_call(lambda p: symmetric.F(p[1], p[2], p[0]), scalar),
        "symmetric.F_grid_us": _per_call(lambda g: symmetric.F(g[1], g[2], g[0]), grids),
        "symmetric.F_dual_interval_ms": _per_call(
            lambda p: symmetric.F_dual(Interval(p[1], p[1] + p[3]), p[2], p[0]), duals),
        "symmetric.F_jet2_interval_ms": _per_call(
            lambda p: symmetric.F(Jet2.variable_y(Interval(p[1], p[1] + p[3])),
                                  branch=p[0],
                                  a_exp=Jet2.variable_a(Interval(p[2], p[2] + p[4]))),
            jets),
        "certify.box_eval_ms": _per_call(
            lambda bb: certify.eval_F_interval(bb[1], bb[0]), boxes),
        "equations.region_classify_us": _per_call(
            lambda a: equations.region_classify(a, 3.0), angles),
        "equations.la2_feasible_us": _per_call(
            lambda c: equations.la2_feasible(c, 3.0), configs),
        "geometry.mutual_distances_us": _per_call(geometry.mutual_distances, configs),
        "equations.mass_kernel_us": _per_call(equations.mass_kernel, matrices),
        "tropical.build_system_ms": _per_call(tropical.build_system, exps),
        "tropical.in_prevariety_ms": _per_call(
            lambda w: tropical.in_prevariety(w, system, Fraction(3)), rays),
    }
    return {name: (seconds[name] * scale, unit) for name, unit, scale in MICRO_METRICS}


def probe(tracer, tmp_dir: str) -> None:
    """One traced call into every layer.

    Run after the traced pass, so that every layer reports calls and a
    measured self time on every workload, including layers the workload's
    own operations never reach.
    """
    def call(fn, *args):
        layer = fn.__module__.rpartition(".")[2]
        return tracer.wrap(layer, f"probe:{fn.__module__}.{fn.__name__}", fn)(*args)

    angles = ChainAngles(3 * math.pi / 5, 3 * math.pi / 5, "plus")
    config = cyclic_from_angles(angles)
    system = tropical.build_system(Fraction(3))
    Interval(0.5, 1.0).split()
    call(geometry.mutual_distances, config)
    call(equations.region_classify, angles, 3.0)
    call(symmetric.F, 1.0, 3.0, "A")
    call(certify.eval_F_interval,
         Box(Interval(0.15, 0.1501), Interval(2.0, 2.001)), "A")
    call(tropical.in_prevariety, tropical.WeightVector((1,) * 6), system, Fraction(3))
    code = call(cli.main, ["region-map", "--A", "3", "--grid", "2",
                           "--out", os.path.join(tmp_dir, "probe")])
    if code != 0:
        raise RuntimeError(f"probe region-map exited {code}")
