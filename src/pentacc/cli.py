"""Command-line interface.

Subcommands: symmetric-scan, certify, region-map, tropical-verify, evaluate,
bifurcation.  Angles are degrees on the command line and radians in emitted
files.  Exit codes: 0 success or certified, 1 input error or an output file
that cannot be written, 2 undecided certification, 3 empty result.  With
``--stats``, symmetric-scan, certify, region-map and tropical-verify report
how the result was reached on stderr, through the ``pentacc`` logger.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import math
import sys
import time
from collections import Counter
from fractions import Fraction
from itertools import product

import numpy as np

from .geometry import (
    ChainAngles,
    CollisionError,
    DistanceVector,
    OutOfDomainError,
    PlanarConfiguration,
    branch_position,
    mutual_distances,
    Y4_MAX,
)
from .equations import (
    Exponent,
    albouy_chenciner_f,
    la2_feasible,
    laura_andoyer,
    region_classify,
    region_labels,
    symmetric_g,
)
from .intervals import Box, Interval
from .certify import certify_no_common_zero, certify_unique_root
from .symmetric import (
    _SCAN_INSET,
    _SIGN_TYPES,
    bifurcation_scan,
    NoBifurcationError,
    scan_branch,
    isolate_roots,
    window_for,
)
from .tropical import WeightVector, _polys_examined, build_system, in_prevariety, verify_tables

log = logging.getLogger("pentacc")

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_UNDECIDED = 2
EXIT_EMPTY = 3

_FAMILY_SVG_SAMPLES = 400  # y4 samples per branch curve of --svg-out


def _write(payload: str, out: str | None) -> None:
    if out and out != "-":
        with open(out, "w") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)
        if not payload.endswith("\n"):
            sys.stdout.write("\n")


def _parse_pair(text: str, what: str) -> tuple:
    """The two comma-separated numbers of the flag ``what``."""
    parts = text.split(",")
    try:
        if len(parts) == 2:
            return float(parts[0]), float(parts[1])
    except ValueError:
        pass
    raise ValueError(f"{what} needs two comma-separated numbers, got {text!r}")


def _parse_range(text: str, what: str) -> tuple:
    lo, hi = _parse_pair(text, what)
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"{what} {text} is not a finite range")
    if lo > hi:
        raise ValueError(f"{what} {text} is inverted")
    return lo, hi


def _parse_window(text, branch: str, inset, default_inset: float):
    """The y4 window of ``--window``: a sign-type name, inset by ``--inset``
    or else by ``default_inset``, or a numeric lo,hi; None without one.
    An inset where no named window takes it is refused."""
    labels = {label for types in _SIGN_TYPES.values() for label, _, _ in types}
    if (text or "").upper() not in labels:
        if inset is not None:
            raise ValueError("--inset applies only to a named --window")
        return None if text is None else _parse_range(text, "--window")
    inset = default_inset if inset is None else inset
    try:
        lo, hi = window_for(branch, text.upper(), inset=inset)
    except KeyError as exc:
        raise ValueError(exc.args[0]) from None
    if lo > hi:
        raise ValueError(f"--inset {inset} leaves window {text} empty")
    return lo, hi


def cmd_symmetric_scan(args) -> int:
    a_exp = Exponent.parse(args.A).value
    window = _parse_window(args.window or None, args.branch, args.inset, _SCAN_INSET)
    if window:
        records = isolate_roots(args.branch, a_exp, window, tol=args.tol)
    else:
        records = scan_branch(args.branch, a_exp, tol=args.tol)
    if args.format == "csv":
        import io
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(["y4", "branch", "sign_type", "A", "m1", "m2", "m3", "m4",
                    "m5", "residual_max", "simple", "resolved"])
        for r in records:
            masses = list(r.masses.as_array()) if r.masses else [""] * 5
            # an empty field where the JSON has null, as for absent masses
            resid = r.residual_max if math.isfinite(r.residual_max) else ""
            w.writerow([r.y4, r.branch, r.sign_type.label, r.a_exp, *masses,
                        resid, r.simple, r.resolved])
        payload = buf.getvalue()
    else:
        payload = json.dumps([r.to_json() for r in records], indent=1)
    _write(payload, args.out)
    if args.svg_out:
        _write(_family_svg(), args.svg_out)
    return EXIT_OK if records else EXIT_EMPTY


def _family_svg() -> str:
    """SVG path data of the (x3, y3) family curves, one path per branch."""
    paths = []
    ys = np.linspace(0.0, Y4_MAX, _FAMILY_SVG_SAMPLES)
    for branch in ("A", "B"):
        x3, y3 = branch_position(ys, branch)
        pts = " L ".join(f"{x:.6f} {y:.6f}" for x, y in zip(x3, y3))
        paths.append(f'<path class="branch-{branch}" d="M {pts}" fill="none"/>')
    body = "\n".join(paths)
    return (f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="-1.1 -1.1 2.2 3.1">\n'
            f"{body}\n</svg>\n")


def cmd_certify(args) -> int:
    a_lo, a_hi = _parse_range(args.A_range, "--A-range")
    window = _parse_window(args.window, args.branch, args.inset, 1e-6)
    if args.mode == "unique-root":
        cert = certify_unique_root(window, (a_lo, a_hi), branch=args.branch,
                                   max_depth=args.max_depth)
    else:
        region = Box(Interval(window[0], window[1]), Interval(a_lo, a_hi))
        cert = certify_no_common_zero(region, branch=args.branch,
                                      max_depth=args.max_depth)
    # streamed: a capped run lists tens of thousands of boxes, and the whole
    # text would be the largest allocation of the run
    if args.out and args.out != "-":
        with open(args.out, "w") as fh:
            json.dump(cert.to_json(), fh, indent=1)
    else:
        json.dump(cert.to_json(), sys.stdout, indent=1)
        sys.stdout.write("\n")
    log.info("certificate stats: %s", json.dumps(cert.stats))
    return EXIT_OK if cert.certified else EXIT_UNDECIDED


def cmd_region_map(args) -> int:
    start = time.perf_counter()
    a_exp = Exponent.parse(args.A).value
    if args.point:
        # single-cell query; angles arrive in degrees
        t12_deg, t23_deg = _parse_pair(args.point, "--point")
        try:
            res = region_classify(
                ChainAngles(math.radians(t12_deg), math.radians(t23_deg),
                            args.closure), a_exp)
            payload = res.to_json()
        except OutOfDomainError as exc:
            payload = {"region": "unrealizable", "detail": str(exc)}
        except CollisionError as exc:
            payload = {"region": "collision", "detail": str(exc)}
        _write(json.dumps(payload, indent=1), None)
        return EXIT_OK
    n = args.grid
    if n < 1:
        raise ValueError(f"--grid must be at least 1, got {n}")
    thetas = np.linspace(0.0, 2.0 * math.pi, n + 2)[1:-1]
    t12, t23 = (t.ravel() for t in np.meshgrid(thetas, thetas, indexing="ij"))
    # labels[closure][i * n + j] is the cell (thetas[i], thetas[j])
    labels = {closure: region_labels(t12, t23, closure, a_exp)
              for closure in ("plus", "minus")}
    # the lines csv.writer would write: each float as its repr, no field
    # that needs quotes, \r\n line ends; one closure's lines at a time
    text = [repr(t) for t in thetas.tolist()]
    with open(args.out + ".csv", "w", newline="") as fh:
        fh.write("theta12,theta23,closure,region\r\n")
        for closure, labs in labels.items():
            fh.write("".join(f"{a},{b},{closure},{lab}\r\n"
                             for (a, b), lab in zip(product(text, repeat=2), labs)))
    _write(_boundary_svg(thetas, labels), args.out + ".svg")
    if log.isEnabledFor(logging.INFO):
        counts = Counter(lab for labs in labels.values() for lab in labs)
        log.info("region map: %d cells in %.3f s, labels %s", 2 * n * n,
                 time.perf_counter() - start, json.dumps(dict(counts.most_common())))
    return EXIT_OK


def _boundary_svg(thetas, labels: dict) -> str:
    """Grid-edge segments between cells whose region labels differ.

    ``labels`` maps each closure to its cell labels in row-major order over
    (theta12, theta23).
    """
    n = len(thetas)
    half = 0.5 * (thetas[1] - thetas[0]) if n > 1 else 0.1
    # each grid-line value is formatted once, then joined into the segments
    low, high, mid = ([f"{x:.4f}" for x in values.tolist()]
                      for values in (thetas - half, thetas + half,
                                     0.5 * (thetas[:-1] + thetas[1:])))
    paths = []
    for closure in ("plus", "minus"):
        grid = np.array(labels[closure]).reshape(n, n)
        # cell (i, j) lists its edge to cell (i + 1, j), then to (i, j + 1):
        # keys 2 * (i * n + j) and 2 * (i * n + j) + 1, in row-major order
        i, j = np.nonzero(grid[1:] != grid[:-1])
        keys = [2 * (i * n + j)]
        i, j = np.nonzero(grid[:, 1:] != grid[:, :-1])
        keys.append(2 * (i * n + j) + 1)
        segs = []
        for key in np.sort(np.concatenate(keys)).tolist():
            (i, j), across = divmod(key >> 1, n), key & 1
            segs.append(f"M {low[i]} {mid[j]} L {high[i]} {mid[j]}" if across
                        else f"M {mid[i]} {low[j]} L {mid[i]} {high[j]}")
        d = " ".join(segs)
        paths.append(f'<path class="closure-{closure}" d="{d}" fill="none"/>')
    body = "\n".join(paths)
    return (f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 6.3 6.3">\n'
            f"{body}\n</svg>\n")


def _parse_ray(text: str) -> WeightVector:
    try:
        return WeightVector(tuple(Fraction(x) for x in text.split(",")))
    except ZeroDivisionError:
        raise ValueError(f"--ray {text} has a zero denominator") from None


def cmd_tropical_verify(args) -> int:
    reports = []
    status = EXIT_OK
    for text in args.A:
        start = time.perf_counter()
        a_exp = Exponent.parse(text)
        if a_exp.rational is None:
            raise ValueError(f"exponent {text} is a decimal; give it as a fraction p/q, "
                             "such as 5/2, for the exact tables")
        if args.ray:
            weights = _parse_ray(args.ray)
            system = build_system(a_exp.rational)
            ok, witness = in_prevariety(weights, system, a_exp.rational)
            reports.append({"A": str(a_exp.rational),
                            "ray": [str(w) for w in weights.weights],
                            "in_prevariety": ok, "witness": witness})
            log.info("tropical ray at A=%s: %.3f s, stats %s", a_exp.rational,
                     time.perf_counter() - start,
                     json.dumps({"polynomials_examined": _polys_examined(system, witness),
                                 "witness": witness}))
            if not ok:
                status = EXIT_EMPTY
        else:
            rep = verify_tables(a_exp.rational)
            reports.append(rep.to_json())
            log.info("tropical tables at A=%s: %.3f s, stats %s", a_exp.rational,
                     time.perf_counter() - start, json.dumps(rep.stats))
            if not rep.all_passed:
                status = EXIT_EMPTY
    _write(json.dumps(reports if len(reports) > 1 else reports[0], indent=1),
           args.out)
    return status


def _finite_numbers(value, depth: int) -> bool:
    """False when an entry ``depth`` list levels into ``value`` is not a finite
    JSON number: null, a bool, a string, a list, NaN or an infinity.  A value
    that is not a list where one belongs is left to the shape checks."""
    if depth:
        return not isinstance(value, list) or all(_finite_numbers(v, depth - 1)
                                                  for v in value)
    # abs(v) <= max is False for NaN, the infinities and ints beyond the floats
    return type(value) in (int, float) and abs(value) <= sys.float_info.max


# r**(-A) may overflow at a large exponent: the residuals are checked instead
@np.errstate(over="ignore", invalid="ignore")
def cmd_evaluate(args) -> int:
    try:
        with open(args.config) as fh:
            spec = json.load(fh)
    except (OSError, RecursionError, json.JSONDecodeError) as exc:  # or nested too deep
        print(f"cannot read configuration: {exc}", file=sys.stderr)
        return EXIT_INPUT
    if not isinstance(spec, dict):
        print("configuration must be a JSON object", file=sys.stderr)
        return EXIT_INPUT
    a_exp = Exponent.parse(spec.get("A", args.A)).value
    masses = spec.get("masses", [1.0] * 5)
    if not isinstance(masses, list) or len(masses) != 5:
        print("expected a list of five masses", file=sys.stderr)
        return EXIT_INPUT
    for key, depth in (("masses", 1), ("points", 2), ("distances", 1)):
        if not _finite_numbers(spec.get(key), depth):
            print(f"every entry of {key} must be a finite number", file=sys.stderr)
            return EXIT_INPUT
    reports = []
    try:
        if "points" in spec:
            config = PlanarConfiguration(np.asarray(spec["points"], dtype=float))
            reports.append(laura_andoyer(config, masses, a_exp).to_json())
            reports.append(albouy_chenciner_f(config, masses, a_exp).to_json())
            reports.append(symmetric_g(config, masses, a_exp).to_json())
            verdict = None
            if mutual_distances(config).is_equilateral:
                verdict = la2_feasible(config, a_exp).to_json()
            reports.append({"system": "la2_feasibility",
                            "residuals": {}, "max_abs": 0.0,
                            "meta": {"verdict": verdict}})
        elif "distances" in spec:
            if not isinstance(spec["distances"], list) or len(spec["distances"]) != 6:
                print("expected a list of six class distances", file=sys.stderr)
                return EXIT_INPUT
            classes = DistanceVector(*[float(d) for d in spec["distances"]])
            table = classes.full_table()
            reports.append(albouy_chenciner_f(table, masses, a_exp).to_json())
            reports.append(symmetric_g(table, masses, a_exp).to_json())
        else:
            print("configuration needs 'points' or 'distances'", file=sys.stderr)
            return EXIT_INPUT
    except (CollisionError, ValueError) as exc:
        payload = json.dumps({"error": str(exc)}, indent=1)
        _write(payload, args.out)
        return EXIT_INPUT
    # NaN and infinities are not JSON: an overflowing residual is an input error
    if not all(math.isfinite(v) for r in reports for v in r["residuals"].values()):
        raise ValueError(f"the residuals are not finite at A = {a_exp:g}: "
                         "a power of a distance overflows")
    _write(json.dumps({"reports": reports}, indent=1, allow_nan=False), args.out)
    return EXIT_OK


def cmd_bifurcation(args) -> int:
    lo, hi = _parse_range(args.A_range, "--A-range")
    try:
        blo, bhi = bifurcation_scan((lo, hi), tol=args.tol)
    except NoBifurcationError as exc:
        _write(json.dumps({"found": False, "detail": str(exc)}, indent=1), args.out)
        return EXIT_EMPTY
    _write(json.dumps({"found": True, "A_c_enclosure": [blo, bhi]}, indent=1),
           args.out)
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="pentacc",
        description="Equilateral pentagon central configurations: scans, "
                    "certification, regions, tropical checks.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("symmetric-scan",
                       help="isolate admissible symmetric shapes and recover masses")
    p.add_argument("--A", required=True, help="potential exponent (real or p/q)")
    p.add_argument("--branch", choices=("A", "B"), default="A")
    p.add_argument("--window", help="sign-type name (a2, b2, ...) or lo,hi")
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("--inset", type=float,
                   help="shrink a named window away from its boundaries "
                        f"(default {_SCAN_INSET:g})")
    p.add_argument("--out", default="-")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--svg-out", help="also write the family-curve SVG path data")
    p.add_argument("--stats", action="store_true",
                   help="print each window's tangency guard (seeds, boxes per depth, "
                        "passes, unresolved cells) and its wall time to stderr")
    p.set_defaults(func=cmd_symmetric_scan)

    p = sub.add_parser("certify", help="interval certification over a (y4, A) box")
    p.add_argument("--mode", choices=("unique-root", "no-common-zero"),
                   default="unique-root")
    p.add_argument("--branch", choices=("A", "B"), default="A")
    p.add_argument("--window", required=True,
                   help="sign-type name (a2, b2, ...) or lo,hi")
    p.add_argument("--A-range", dest="A_range", required=True, help="lo,hi")
    p.add_argument("--inset", type=float, help="as for symmetric-scan, default 1e-6")
    p.add_argument("--max-depth", type=int, default=60)
    p.add_argument("--out", default="-")
    p.add_argument("--stats", action="store_true",
                   help="print the certificate's stats to stderr")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("region-map",
                       help="classify the two-angle family over a grid")
    p.add_argument("--A", default="3")
    p.add_argument("--grid", type=int, default=60)
    p.add_argument("--point", help="single query 'theta12,theta23' in degrees")
    p.add_argument("--closure", choices=("plus", "minus"), default="plus")
    p.add_argument("--out", default="regions", help="output prefix (.csv and .svg)")
    p.add_argument("--stats", action="store_true",
                   help="print the label histogram, the cells sent to the "
                        "region III test and the wall time to stderr")
    p.set_defaults(func=cmd_region_map)

    p = sub.add_parser("tropical-verify",
                       help="check the ray and cone tables, or a single ray")
    p.add_argument("--A", action="append", required=True,
                   help="rational exponent, repeatable (e.g. --A 3 --A 5/2)")
    p.add_argument("--ray", help="six comma-separated rational weights")
    p.add_argument("--out", default="-")
    p.add_argument("--stats", action="store_true",
                   help="print each table report's stats, or the ray's polynomials "
                        "examined and witness, and the wall time to stderr")
    p.set_defaults(func=cmd_tropical_verify)

    p = sub.add_parser("evaluate", help="residual systems for a configuration file")
    p.add_argument("--config", required=True,
                   help="JSON with points [[x,y]*5] or distances [6), plus "
                        "optional masses and A")
    p.add_argument("--A", default="3", help="exponent when the file omits it")
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("bifurcation",
                       help="certified enclosure of the root-count bifurcation exponent A_c")
    p.add_argument("--A-range", dest="A_range", default="3.0,3.3")
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_bifurcation)

    args = parser.parse_args(argv)
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(name)s: %(message)s"))
    level = log.level
    if getattr(args, "stats", False):
        log.addHandler(handler)
        log.setLevel(logging.INFO)
    try:
        return args.func(args)
    except (OutOfDomainError, CollisionError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    finally:
        log.removeHandler(handler)
        log.setLevel(level)


if __name__ == "__main__":
    sys.exit(main())
