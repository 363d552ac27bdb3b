"""Command-line front end.

Every subcommand, in the mode its mode flag selects if it has one, is a
reproducible run: it accepts only the options that mode reads, resolves them
(flags, then MEHTA_* environment variables, then defaults), echoes exactly
them in the output, and exits 0 only when the emitted artifact's pass or
all_pass flag is true (an artifact without one passes).  JSON output for a
fixed configuration and seed is byte-identical across runs and worker counts,
except for wall_time_s and the echoed workers.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time
from typing import NamedTuple

import numpy as np

from mehtalab import mehta, regression, spectral, spherefield, symspace
from mehtalab.estimation import Moments, _finite_or_none, _worker_count, map_chunks, substream

ENV_PREFIX = "MEHTA_"

# largest passing |mehta_quadrature(m) - closed form|, by m
QUADRATURE_GATE = {1: 2e-6, 2: 2e-6, 3: 1e-4}
# matrices per block of a critical-points-exact row: one worker's traced peak at m = 3 is
# 1.2 MiB at any --n (5.7 MiB for 5000 matrices in one batch); blocks of 512 run 2-16% slower
_FINDER_BLOCK = 1024


# (name, type, default, has a MEHTA_* variable, extra argparse keywords) of
# every option a run may read; a run echoes the ones it reads, --n as n_samples
COMMON_OPTIONS = (
    ("m", int, 2, True, {}),
    ("v", float, 1.0, True, {}),
    ("u", float, 0.0, True, {}),
    ("c", float, 0.0, True, {}),
    ("a", float, -1.0, True, {}),
    ("b", float, 1.0, True, {}),
    ("n", int, 100000, True, {"help": "sample count"}),
    ("seed", int, 0, True, {}),
    ("workers", int, _worker_count(), True, {"help": "threads (default, and cap: the usable cores; 1 starts none)"}),
    ("out", str, None, True, {}),
    ("format", str, "json", True, {"choices": ("json", "csv")}),
    ("bin_width", float, None, False, {}),
    ("bandwidth", float, None, False, {}),
    ("curve_points", int, 33, False, {}),
)


def _env(name: str, cast, fallback, choices=None):
    raw = os.environ.get(ENV_PREFIX + name.upper())
    try:
        value = fallback if raw is None else cast(raw)
        if choices and value not in choices:
            raise ValueError(f"invalid choice (choose from {', '.join(choices)})")
    except ValueError as exc:
        raise ValueError(f"invalid {ENV_PREFIX}{name.upper()}={raw!r}: {exc}") from None
    return value


def _emit(args, body: dict, wall_time_s: float) -> int:
    """Write a run's artifact: JSON, or the body's (header, rows) under --format csv.

    Returns the exit code, 0 exactly when the artifact's pass flag is true.
    """
    config = {"command": args.command,
              **{"n_samples" if flag == "n" else flag: getattr(args, flag) for flag in args.options}}
    # strict JSON: a non-finite value, such as an unbounded kacrice end, is echoed as null
    config.update((k, _finite_or_none(v)) for k, v in config.items() if isinstance(v, float))
    table = body.pop("csv", None)
    if getattr(args, "format", "json") == "csv":
        _write_csv(args.out or sys.stdout, *table)
        # the config echo goes to stderr to keep the csv schema
        sys.stderr.write("config: " + json.dumps(config, sort_keys=True) + "\n")
    else:
        payload = {**body, "config": config, "wall_time_s": wall_time_s}
        with symspace._opened(args.out or sys.stdout, "w") as fh:
            fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return 0 if body.get("pass", body.get("all_pass", True)) else 1


def _write_csv(path_or_file, header, rows):
    """Numbers at full precision, strings as they are."""
    with symspace._opened(path_or_file, "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(x if isinstance(x, str) else f"{x:.17g}" for x in row) + "\n")


def _resolve(args) -> None:
    """Refuse the given options the run's mode does not read; resolve the ones it reads."""
    mode = getattr(args, args.mode_flag) if args.mode_flag else None
    args.options = args.reads[mode]
    unread = [_flag(name) for name, *_ in COMMON_OPTIONS if hasattr(args, name) and name not in args.options]
    if unread:
        flag = f"--{args.mode_flag}"
        run = {True: flag, False: f"without {flag}"}.get(mode, f"{flag} {mode}")
        raise ValueError(f"{args.command} {run} does not take {' '.join(unread)}")
    for name, cast, default, env, extra in COMMON_OPTIONS:
        if name in args.options and not hasattr(args, name):
            setattr(args, name, _env(name, cast, default, extra.get("choices")) if env else default)


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


# ---------------------------------------------------------------------------
# subcommands: each returns its artifact's body, with an optional "csv" entry
# (header, rows); sample and render write their own text and return the exit code


def cmd_sample(args) -> int:
    params = symspace.EnsembleParams(args.m, args.u, args.v)
    rng = substream(args.seed)
    with symspace._opened(args.out or sys.stdout, "w") as target:
        for _ in range(args.n):
            symspace.write_matrix(symspace.sample_suv(params, rng), target)
            target.write("\n")
    return 0


def cmd_check_covariance(args) -> dict:
    params = symspace.EnsembleParams(args.m, args.u, args.v)
    audit = symspace.covariance_audit(params, args.n, seed=args.seed, workers=args.workers)
    return {"op": "check-covariance", "result": audit.to_dict(), "pass": audit.passed}


def cmd_eig(args) -> dict:
    lam = spectral.eigenvalues(symspace.read_matrix(args.matrix))
    if not np.isfinite(lam).all():
        raise OverflowError("an eigenvalue is outside the float range")
    return {"op": "eig", "eigenvalues": lam.tolist()}


def cmd_critpoints(args) -> dict:
    points = spherefield.find_critical_points(symspace.read_matrix(args.matrix), rng=args.seed)
    return {"op": "critpoints", "critical_points": [p.to_dict() for p in points],
            "count": len(points)}


def cmd_correlation(args) -> dict:
    est = spectral.one_point_correlation(
        args.m,
        args.v,
        args.n,
        estimator=args.estimator,
        bin_width=getattr(args, "bin_width", None),  # each estimator reads its own width
        bandwidth=getattr(args, "bandwidth", None),
        seed=args.seed,
        workers=args.workers,
    )
    return {
        "op": "correlation",
        "grid": est.grid.tolist(),
        "rho": est.values.tolist(),
        "stderr": est.stderr.tolist(),
        "width": est.width,
        "kind": est.kind,
        "integral": est.integral(),
        "csv": ("x,rho,stderr", zip(est.grid, est.values, est.stderr)),
    }


def cmd_mehta(args) -> dict:
    if args.method in ("closed", "ratio"):
        value = (mehta.mehta_closed_form if args.method == "closed" else mehta.mehta_ratio)(args.m)
        body = {"estimate": value, "reference": value, "pass": True}
    elif args.method == "quadrature":
        if args.m not in QUADRATURE_GATE:  # the library runs at every m, the gates are set at these
            raise ValueError(f"--method quadrature supports m in {set(QUADRATURE_GATE)}, got m={args.m}")
        value, ref = mehta.mehta_quadrature(args.m), mehta.mehta_closed_form(args.m)
        body = {"estimate": value, "reference": ref, "pass": abs(value - ref) <= QUADRATURE_GATE[args.m]}
    elif args.method == "mc":
        body = mehta.mehta_mc(args.m, args.n, seed=args.seed, workers=args.workers).to_dict()
    else:  # reproduce
        rows = mehta.reproduce_zm(args.m, args.n, seed=args.seed, workers=args.workers)
        body = {
            "table": [r.to_dict() for r in rows],
            "pass": all(r.passed for r in rows),
            "csv": ("m,estimate,std_error,reference,z_score,pass",
                    [(r.meta["m"], r.estimate, r.std_error, r.reference, r.z_score,
                      str(r.passed).lower()) for r in rows]),
        }
    return {"op": f"mehta-{args.method}", **body}


def cmd_detmoment(args) -> dict:
    if args.mode == "integrated":
        res = mehta.detmoment_identity_check(args.m, args.v, args.n, seed=args.seed, workers=args.workers)
    else:
        res = mehta.exp_det_pointwise_check(args.m, args.v, args.c, args.n, seed=args.seed, workers=args.workers)
    return {"op": f"detmoment-{args.mode}", **res.to_dict()}


def cmd_kacrice(args) -> dict:
    if args.curve:
        symspace.EnsembleParams(args.m, v=args.v)  # the (m, v) rule before L reads them
        L = 4.0 * math.sqrt(args.v * (args.m + 1))
        ts = np.linspace(-L, L, args.curve_points)
        columns = mehta.kacrice_density(args.m, ts, args.v, args.n, seed=args.seed, workers=args.workers)
        rows = [(float(t), r.estimate, r.std_error) for t, r in zip(ts, columns)]
        return {"op": "kacrice-curve", "curve": [{"t": t, "rho": rho, "stderr": se} for t, rho, se in rows],
                "csv": ("t,rho,stderr", rows)}
    res = mehta.kacrice_vs_empirical(args.m, args.v, args.a, args.b, args.n, seed=args.seed,
                                     workers=args.workers)
    return {"op": "kacrice-interval", "comparison": res.to_dict(), "pass": res.passed}


def cmd_regress_demo(args) -> dict:
    pair = regression.hessian_regression_pair(args.m, args.v, coords="ell")
    res = regression.regress(pair)
    moments = regression.conditional_hessian_moments(
        args.m, args.v, args.n, seed=args.seed, workers=args.workers, method="residual"
    )

    def block(rng, size):
        return Moments.of(np.hstack(regression.hessian_pair_samples(args.m, args.v, size, rng)), cross=True)

    # the sample cross covariance of h and w on its own stream, from their merged co-moment
    dx = pair.x.dim
    cross = map_chunks(block, args.n, args.seed, args.workers, stream=1).m2[dx:, :dx] / (args.n - 1)
    return {
        "op": "regress-demo",
        "regression": res.to_dict(),
        "analytic_cross": pair.cross.tolist(),
        "empirical_cross_max_dev": float(np.max(np.abs(cross - pair.cross))),
        "moment_checks": {k: r.to_dict() for k, r in moments.items()},
        "max_abs_z": max(abs(r.z_score) for r in moments.values()),
        "pass": all(r.passed for r in moments.values()),
    }


# ---------------------------------------------------------------------------
# the report: every acceptance criterion at a sample scale set by --n


def _scaled(n: int, base: int, floor: int) -> int:
    return max(floor, int(base * (n / 200000.0)))


def _criterion_seed(seed: int, key: int) -> int:
    """Seed of the criterion with the given fixed key, a pure function of the report seed."""
    return int(np.random.SeedSequence([seed, key]).generate_state(1)[0])


class _FinderCheck(NamedTuple):
    """A critical-points-exact row's largest |value - eigenvalue|, Morse check, size and first (index, finder error)."""

    max_value_deviation: float
    morse_ok: bool
    size: int
    failure: tuple[int, Exception] | None = None

    def merge(self, other: _FinderCheck) -> _FinderCheck:
        failure = self.failure or other.failure and (self.size + other.failure[0], other.failure[1])
        return _FinderCheck(max(self.max_value_deviation, other.max_value_deviation), self.morse_ok and other.morse_ok,
                            self.size + other.size, failure)


def _finder_check(d: int, rng, size: int) -> _FinderCheck:
    """The finder against the eigensolver on ``size`` GOE(d, 1) draws, read in the finder's value order, where pair k
    has the k-th eigenvalue and Morse index k; rng draws the matrices, then the starts."""
    mats = symspace.sample_goe_batch(d, 1.0, size, rng)
    try:
        batch = spherefield.find_critical_points_batch(mats, rng=rng)
    except (spherefield.IncompleteSearchError, spherefield.DegenerateMatrixError) as exc:
        return _FinderCheck(0.0, True, size, (exc.sample_index, exc))
    dev = np.abs(batch.values - np.repeat(spectral.batched_eigvals(mats), 2, axis=1))
    morse = batch.morse_indices == np.repeat(np.arange(d), 2)
    return _FinderCheck(float(dev.max()), bool(morse.all()), size)


def _criteria(n: int, seed: int, workers: int):
    """Yield (name, estimate, reference, z, pass, detail) for every report row, in order.

    Every sampled row draws on ``_criterion_seed(seed, key)``, key = criterion
    number times ten plus the row, so no two rows share variates (on one seed,
    mehta-mc m=4 would redraw the diagonals of the m=4 covariance audit).  The
    one exception is ``covariance-audit m=4 u=0.0 v=0.5``, which stays on the
    report seed: at seed 2659867131, n = 100000 its max over K = 55 z-scores reads
    4.68, a known false alarm of that verdict at 4 SE, which a new key would hide.
    """
    for key, (m, u, v) in enumerate(((4, 0.0, 0.5), (3, 1.0, 1.0), (3, 1.0, 0.5)), start=10):
        audit = symspace.covariance_audit(symspace.EnsembleParams(m, u, v), _scaled(n, 200000, 2000),
                                          seed=seed if key == 10 else _criterion_seed(seed, key),
                                          workers=workers)
        yield (f"covariance-audit m={m} u={u} v={v}", audit.max_abs_z, None, audit.max_abs_z,
               audit.passed, None)

    for m, gate in QUADRATURE_GATE.items():
        quad, ref = mehta.mehta_quadrature(m), mehta.mehta_closed_form(m)
        yield f"mehta-quadrature m={m}", quad, ref, None, abs(quad - ref) <= gate, None

    for key, m in enumerate((2, 3, 4, 5), start=30):
        res = mehta.mehta_mc(m, _scaled(n, 1000000, 10000), seed=_criterion_seed(seed, key), workers=workers)
        yield f"mehta-mc m={m}", res.estimate, res.reference, res.z_score, res.passed, None

    worst = 0.0
    for m in range(1, 21):
        lhs = mehta.mehta_closed_form(m + 1)
        rhs = mehta.mehta_ratio(m) * mehta.mehta_closed_form(m)
        worst = max(worst, abs(lhs - rhs) / lhs)
    yield "ratio-recursion m=1..20", worst, 0.0, None, worst <= 1e-12, None

    for key, (m, v) in enumerate(((1, 0.5), (2, 0.5), (1, 2.0)), start=50):
        res = mehta.detmoment_identity_check(m, v, _scaled(n, 500000, 5000),
                                             seed=_criterion_seed(seed, key), workers=workers)
        yield (f"detmoment-integrated m={m} v={v}", res.estimate, res.reference, res.z_score,
               res.passed, None)

    for key, (m, v, c) in enumerate(((1, 0.5, 0.0), (1, 0.5, 1.0), (2, 0.5, 0.0)), start=60):
        res = mehta.exp_det_pointwise_check(m, v, c, _scaled(n, 500000, 5000),
                                            seed=_criterion_seed(seed, key), workers=workers)
        yield (f"detmoment-pointwise m={m} v={v} c={c}", res.estimate, res.reference, res.z_score,
               res.passed, None)

    for key, m in enumerate((1, 2, 3), start=70):
        count = _scaled(n, 10000, 100)
        dev, morse_ok, _, failure = map_chunks(functools.partial(_finder_check, m + 1), count,
                                               _criterion_seed(seed, key), workers, block=_FINDER_BLOCK)
        ok, detail = dev <= 1e-8 and morse_ok, {"samples": count, "max_value_deviation": dev, "morse_ok": morse_ok}
        if failure:
            failure[1].sample_index = failure[0]  # the matrix's index in the row, not in its block
            ok, dev, detail = False, None, {"error": str(failure[1])}
        yield f"critical-points-exact m={m}", dev, 0.0, None, ok, detail

    # the three intervals of one m are views of one set of draws
    intervals = {"R": (-math.inf, math.inf), "[0,inf)": (0.0, math.inf), "[-1,1]": (-1.0, 1.0)}
    for key, (m, v) in enumerate(((1, 1.0), (2, 1.0)), start=80):
        comparisons = mehta.kacrice_intervals(m, v, list(intervals.values()), _scaled(n, 200000, 2000),
                                              seed=_criterion_seed(seed, key), workers=workers)
        for label, res in zip(intervals, comparisons):
            worst_z = max(abs(res.z_empirical_kacrice), abs(res.z_empirical_spectral),
                          abs(res.z_kacrice_spectral))
            yield (f"kacrice m={m} v={v} C={label}", res.empirical.estimate, res.kacrice.estimate,
                   worst_z, res.passed, None)

    table = mehta.reproduce_zm(4, _scaled(n, 1000000, 10000), seed=_criterion_seed(seed, 90),
                               workers=workers)
    for r in table:
        yield f"reproduce-zm m={r.meta['m']}", r.estimate, r.reference, r.z_score, r.passed, None

    for key, (m, v) in enumerate(((2, 1.0), (3, 0.5)), start=100):
        moments = regression.conditional_hessian_moments(m, v, _scaled(n, 200000, 2000), method="residual",
                                                         seed=_criterion_seed(seed, key), workers=workers)
        worst_z = max(abs(r.z_score) for r in moments.values())
        ok = all(r.passed for r in moments.values())
        pair = regression.hessian_regression_pair(m, v, coords="omega")
        res = regression.regress(pair)
        explained = pair.cross @ np.linalg.solve(pair.x.cov, pair.cross.T)
        residual = pair.y.cov - res.residual_cov - explained
        op_dev = float(np.max(np.abs(residual)))
        ok = ok and op_dev <= 1e-10
        yield f"regression-suite m={m} v={v}", worst_z, 0.0, worst_z, ok, {"operator_identity_dev": op_dev}


def run_report(n: int, seed: int, workers: int) -> dict:
    """Every criterion's row; a row's wall_time_s is the time since the previous row ended."""
    rows = []
    t0 = time.perf_counter()
    for name, estimate, reference, z, ok, detail in _criteria(n, seed, workers):
        now = time.perf_counter()
        row = {
            "name": name,
            "estimate": None if estimate is None else float(estimate),
            "reference": None if reference is None else float(reference),
            "z": _finite_or_none(z),
            "pass": bool(ok),
            "wall_time_s": now - t0,
        }
        if detail:
            row["detail"] = detail
        rows.append(row)
        t0 = now
    return {"criteria": rows, "all_pass": all(r["pass"] for r in rows)}


def cmd_report(args) -> dict:
    return {"op": "report", **run_report(args.n, args.seed, args.workers)}


def render_report(payload: dict) -> tuple[str, bool]:
    rows = payload.get("criteria") if isinstance(payload, dict) else None
    if not isinstance(rows, list):
        raise ValueError("malformed report: missing criteria list")
    if not all(isinstance(r, dict) and isinstance(r.get("name"), str) and "pass" in r for r in rows):
        raise ValueError("malformed report: a criterion is not an object with a name and a pass")
    name_w = max([len(r["name"]) for r in rows] + [len("criterion")])
    lines = [f"{'criterion':<{name_w}}  {'estimate':>14}  {'reference':>14}  {'z':>8}  verdict"]
    for r in rows:
        try:
            est, ref, z = ("-" if r.get(key) is None else format(r[key], spec)
                           for key, spec in (("estimate", ".6g"), ("reference", ".6g"), ("z", "+.2f")))
        except (TypeError, ValueError):
            raise ValueError(f"malformed report: {r['name']}: estimate, reference and z must be numbers") from None
        lines.append(f"{r['name']:<{name_w}}  {est:>14}  {ref:>14}  {z:>8}  {'PASS' if r['pass'] else 'FAIL'}")
    return "\n".join(lines) + "\n", all(r["pass"] for r in rows)


def cmd_render(args) -> int:
    try:
        with open(args.report) as fh:
            payload = json.load(fh)
        text, ok = render_report(payload)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    sys.stdout.write(text)
    return 0 if ok else 1


# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # one line, like every other usage error
        self.exit(2, f"error: {message}\n")


def _subcommand(sub, name: str, fn, summary: str, reads: dict, mode_flag: str | None = None):
    """A subparser: ``reads`` maps each value of the mode flag, the default first, to the options
    that mode reads ({None: ...} with no flag, {False: ..., True: ...} for a switch)."""
    p = sub.add_parser(name, help=summary)
    if list(reads) == [False, True]:
        p.add_argument(f"--{mode_flag}", action="store_true")
    elif mode_flag:
        p.add_argument(f"--{mode_flag}", choices=tuple(reads), default=next(iter(reads)))
    accepted = set().union(*reads.values())
    for option, cast, _, _, extra in COMMON_OPTIONS:
        if option in accepted:
            p.add_argument(_flag(option), type=cast, default=argparse.SUPPRESS, **extra)
    p.set_defaults(fn=fn, reads=reads, mode_flag=mode_flag)
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="mehtalab",
        description="Reproducible estimators and checks for GOE spectral statistics, "
        "sphere critical points, and the Mehta integral.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    _subcommand(sub, "sample", cmd_sample, "emit ensemble draws in the matrix text format",
                {None: ("m", "u", "v", "n", "seed", "out")})

    _subcommand(sub, "check-covariance", cmd_check_covariance, "audit every second moment of a sampler",
                {None: ("m", "u", "v", "n", "seed", "workers", "out")})

    p = _subcommand(sub, "eig", cmd_eig, "print eigenvalues of a matrix file", {None: ("out",)})
    p.add_argument("matrix")

    p = _subcommand(sub, "critpoints", cmd_critpoints, "critical points of the sphere field of a matrix file",
                    {None: ("seed", "out")})
    p.add_argument("matrix")

    sampled = ("m", "v", "n", "seed", "workers", "out")
    _subcommand(sub, "correlation", cmd_correlation, "one-point correlation density estimate",
                {"histogram": (*sampled, "format", "bin_width"),
                 "kernel": (*sampled, "format", "bandwidth")}, "estimator")

    _subcommand(sub, "mehta", cmd_mehta, "Mehta integral: closed form, mc, quadrature, reproduce",
                {"closed": ("m", "out"), "ratio": ("m", "out"), "mc": ("m", "n", "seed", "workers", "out"),
                 "quadrature": ("m", "out"), "reproduce": ("m", "n", "seed", "workers", "out", "format")},
                "method")

    _subcommand(sub, "detmoment", cmd_detmoment, "determinant-moment identity, integrated or pointwise",
                {"integrated": sampled, "pointwise": (*sampled, "c")}, "mode")

    _subcommand(sub, "kacrice", cmd_kacrice, "Kac-Rice interval comparison, or a density curve with --curve",
                {False: (*sampled, "a", "b"), True: (*sampled, "format", "curve_points")}, "curve")

    _subcommand(sub, "regress-demo", cmd_regress_demo, "sphere Hessian regression, analytic vs empirical",
                {None: sampled})

    _subcommand(sub, "report", cmd_report, "run the full acceptance suite and write one JSON report",
                {None: ("n", "seed", "workers", "out")})

    p = _subcommand(sub, "render", cmd_render, "human-readable table from a report file", {None: ()})
    p.add_argument("report")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args, unread = parser.parse_known_args(argv)
        if unread:
            parser.error(f"{args.command} does not take {' '.join(unread)}")
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        _resolve(args)
        for name in ("n", "curve_points"):
            # a count below 1 would run nothing and report it as a pass
            if getattr(args, name, 1) < 1:
                raise ValueError(f"{_flag(name)} must be a positive integer, got {getattr(args, name)}")
        if not 0 <= getattr(args, "seed", 0) < 2**64:  # a Philox key word
            raise ValueError(f"--seed must be an integer in [0, 2^64), got {args.seed}")
        t0 = time.perf_counter()
        body = args.fn(args)
        if isinstance(body, int):
            return body
        return _emit(args, body, time.perf_counter() - t0)
    except ValueError as exc:
        # bad parameter values are usage errors, like unknown flags
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except OverflowError as exc:
        # a parameter so large that the result leaves the float range
        sys.stderr.write(f"error: parameter out of range, the result overflows a float ({exc})\n")
        return 2
    except MemoryError as exc:
        # a parameter so fine (a --bin-width of 1e-9) that the run's arrays cannot be allocated
        sys.stderr.write(f"error: parameter out of range, the run needs more memory than is available ({exc})\n")
        return 2
    except (OSError, RuntimeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
