"""Command-line front end.

Every subcommand is a reproducible run: it resolves its configuration (flags,
then MEHTA_* environment variables, then defaults), echoes that configuration
in the output, and exits 0 only when every pass flag in the emitted artifact
is true.  JSON output for a fixed configuration and seed is byte-identical
across runs and worker counts, except for wall_time_s and the echoed workers.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

import numpy as np

from mehtalab import mehta, regression, spectral, spherefield, symspace
from mehtalab.estimation import substream

ENV_PREFIX = "MEHTA_"

# largest passing |mehta_quadrature(m) - closed form|, by m
QUADRATURE_GATE = {1: 2e-6, 2: 2e-6, 3: 1e-4}


# (flag, type, default, extra argparse keywords) of the options every
# subcommand takes and echoes; --n is echoed as n_samples
COMMON_OPTIONS = (
    ("m", int, 2, {}),
    ("v", float, 1.0, {}),
    ("u", float, 0.0, {}),
    ("c", float, 0.0, {}),
    ("a", float, -1.0, {}),
    ("b", float, 1.0, {}),
    ("n", int, 100000, {"help": "sample count"}),
    ("seed", int, 0, {}),
    ("workers", int, 1, {}),
    ("out", str, None, {}),
    ("format", str, "json", {"choices": ("json", "csv")}),
)


def _env(name: str, cast, fallback):
    raw = os.environ.get(ENV_PREFIX + name.upper())
    if raw is None:
        return fallback
    try:
        return cast(raw)
    except ValueError as exc:
        raise ValueError(f"invalid {ENV_PREFIX}{name.upper()}={raw!r}: {exc}") from None


def _add_common(p: argparse.ArgumentParser):
    for flag, cast, default, extra in COMMON_OPTIONS:
        p.add_argument(f"--{flag}", type=cast, default=_env(flag, cast, default), **extra)


def _config_dict(args, command: str) -> dict:
    """The resolved common options of a run, echoed in every output."""
    config = {"n_samples" if flag == "n" else flag: getattr(args, flag) for flag, *_ in COMMON_OPTIONS}
    return {"command": command, **config}


def _emit(args, payload: dict) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    with symspace._opened(args.out or sys.stdout, "w") as fh:
        fh.write(text)


def _emit_csv(args, writer) -> None:
    """writer(fh) dumps csv rows; config echo goes to stderr to keep the schema."""
    with symspace._opened(args.out or sys.stdout, "w") as fh:
        writer(fh)
    sys.stderr.write("config: " + json.dumps(_config_dict(args, args.command), sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# subcommands


def cmd_sample(args) -> int:
    params = symspace.EnsembleParams(args.m, args.u, args.v)
    rng = substream(args.seed)
    with symspace._opened(args.out or sys.stdout, "w") as target:
        for _ in range(args.n):
            symspace.write_matrix(symspace.sample_suv(params, rng), target)
            target.write("\n")
    return 0


def cmd_check_covariance(args) -> int:
    t0 = time.perf_counter()
    params = symspace.EnsembleParams(args.m, args.u, args.v)
    audit = symspace.covariance_audit(params, args.n, seed=args.seed, workers=args.workers)
    payload = {
        "op": "check-covariance",
        "config": _config_dict(args, "check-covariance"),
        "result": audit.to_dict(),
        "pass": audit.passed,
        "wall_time_s": time.perf_counter() - t0,
    }
    _emit(args, payload)
    return 0 if audit.passed else 1


def cmd_eig(args) -> int:
    mat = symspace.read_matrix(args.matrix)
    lam = spectral.eigenvalues(mat)
    payload = {
        "op": "eig",
        "config": _config_dict(args, "eig"),
        "eigenvalues": lam.tolist(),
    }
    _emit(args, payload)
    return 0


def cmd_critpoints(args) -> int:
    mat = symspace.read_matrix(args.matrix)
    points = spherefield.find_critical_points(mat, rng=args.seed)
    payload = {
        "op": "critpoints",
        "config": _config_dict(args, "critpoints"),
        "critical_points": [p.to_dict() for p in points],
        "count": len(points),
    }
    _emit(args, payload)
    return 0


def cmd_correlation(args) -> int:
    est = spectral.one_point_correlation(
        args.m,
        args.v,
        args.n,
        estimator=args.estimator,
        bin_width=args.bin_width,
        bandwidth=args.bandwidth,
        seed=args.seed,
        workers=args.workers,
    )
    if args.format == "csv":
        _emit_csv(args, est.to_csv)
    else:
        payload = {
            "op": "correlation",
            "config": _config_dict(args, "correlation"),
            "grid": est.grid.tolist(),
            "rho": est.values.tolist(),
            "stderr": est.stderr.tolist(),
            "width": est.width,
            "kind": est.kind,
            "integral": est.integral(),
        }
        _emit(args, payload)
    return 0


def cmd_mehta(args) -> int:
    t0 = time.perf_counter()
    if args.method == "closed":
        value = mehta.mehta_closed_form(args.m)
        body = {"estimate": value, "reference": value, "pass": True}
        ok = True
    elif args.method == "ratio":
        value = mehta.mehta_ratio(args.m)
        body = {"estimate": value, "reference": value, "pass": True}
        ok = True
    elif args.method == "quadrature":
        value = mehta.mehta_quadrature(args.m)
        ref = mehta.mehta_closed_form(args.m)
        ok = abs(value - ref) <= QUADRATURE_GATE[args.m]
        body = {"estimate": value, "reference": ref, "pass": ok}
    elif args.method == "mc":
        res = mehta.mehta_mc(args.m, args.n, seed=args.seed, workers=args.workers)
        body = res.to_dict()
        ok = res.passed
    else:  # reproduce
        rows = mehta.reproduce_zm(args.m, args.n, seed=args.seed, workers=args.workers)
        ok = all(r.passed for r in rows)
        if args.format == "csv":
            def writer(fh):
                fh.write("m,estimate,std_error,reference,z_score,pass\n")
                for r in rows:
                    fh.write(
                        f"{r.meta['m']},{r.estimate:.17g},{r.std_error:.17g},"
                        f"{r.reference:.17g},{r.z_score:.17g},{str(r.passed).lower()}\n"
                    )

            _emit_csv(args, writer)
            return 0 if ok else 1
        body = {"table": [r.to_dict() for r in rows], "pass": ok}
    payload = {
        "op": f"mehta-{args.method}",
        "config": _config_dict(args, "mehta"),
        "wall_time_s": time.perf_counter() - t0,
    }
    payload.update(body)
    _emit(args, payload)
    return 0 if ok else 1


def cmd_detmoment(args) -> int:
    t0 = time.perf_counter()
    if args.mode == "integrated":
        res = mehta.detmoment_identity_check(args.m, args.v, args.n, seed=args.seed, workers=args.workers)
    else:
        res = mehta.exp_det_pointwise_check(args.m, args.v, args.c, args.n, seed=args.seed, workers=args.workers)
    payload = {
        "op": f"detmoment-{args.mode}",
        "config": _config_dict(args, "detmoment"),
        "wall_time_s": time.perf_counter() - t0,
    }
    payload.update(res.to_dict())
    _emit(args, payload)
    return 0 if res.passed else 1


def cmd_kacrice(args) -> int:
    t0 = time.perf_counter()
    if args.curve:
        L = 4.0 * math.sqrt(args.v * (args.m + 1))
        grid = np.linspace(-L, L, args.curve_points)
        rows = []
        for t in grid:
            res = mehta.kacrice_density(
                args.m, float(t), args.v, args.n, seed=args.seed, workers=args.workers
            )
            rows.append((float(t), res.estimate, res.std_error))
        if args.format == "csv":
            def writer(fh):
                fh.write("t,rho,stderr\n")
                for row in rows:
                    fh.write(",".join(f"{x:.17g}" for x in row) + "\n")

            _emit_csv(args, writer)
        else:
            payload = {
                "op": "kacrice-curve",
                "config": _config_dict(args, "kacrice"),
                "curve": [{"t": r[0], "rho": r[1], "stderr": r[2]} for r in rows],
                "wall_time_s": time.perf_counter() - t0,
            }
            _emit(args, payload)
        return 0
    a = -math.inf if args.full_line else args.a
    b = math.inf if args.full_line else args.b
    res = mehta.kacrice_vs_empirical(args.m, args.v, a, b, args.n, seed=args.seed, workers=args.workers)
    payload = {
        "op": "kacrice-interval",
        "config": _config_dict(args, "kacrice"),
        "comparison": res.to_dict(),
        "pass": res.passed,
        "wall_time_s": time.perf_counter() - t0,
    }
    _emit(args, payload)
    return 0 if res.passed else 1


def cmd_regress_demo(args) -> int:
    t0 = time.perf_counter()
    pair = regression.hessian_regression_pair(args.m, args.v, coords="ell")
    res = regression.regress(pair)
    emp_w, emp_h = regression.hessian_pair_samples(args.m, args.v, args.n, substream(args.seed))
    emp = regression.empirical_correlator(emp_w, emp_h)
    moments = regression.conditional_hessian_moments(
        args.m, args.v, args.n, seed=args.seed, workers=args.workers, method="residual"
    )
    max_z = max(abs(r.z_score) for r in moments.values())
    cross_dev = float(np.max(np.abs(emp.cross - pair.cross)))
    ok = max_z <= 4.0
    payload = {
        "op": "regress-demo",
        "config": _config_dict(args, "regress-demo"),
        "regression": res.to_dict(),
        "analytic_cross": pair.cross.tolist(),
        "empirical_cross_max_dev": cross_dev,
        "moment_checks": {k: r.to_dict() for k, r in moments.items()},
        "max_abs_z": max_z,
        "pass": ok,
        "wall_time_s": time.perf_counter() - t0,
    }
    _emit(args, payload)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# the report: every acceptance criterion at a sample scale set by --n


def _scaled(n: int, base: int, floor: int) -> int:
    return max(floor, int(base * (n / 200000.0)))


def _row(name, estimate, reference, z, ok, t0, detail=None):
    row = {
        "name": name,
        "estimate": None if estimate is None else float(estimate),
        "reference": None if reference is None else float(reference),
        "z": None if z is None or not math.isfinite(z) else float(z),
        "pass": bool(ok),
        "wall_time_s": time.perf_counter() - t0,
    }
    if detail:
        row["detail"] = detail
    return row


def _criterion_seed(seed: int, key: int) -> int:
    """Seed of the criterion with the given fixed key, a pure function of the report seed."""
    return int(np.random.SeedSequence([seed, key]).generate_state(1)[0])


def run_report(n: int, seed: int, workers: int) -> dict:
    rows = []

    for m, u, v in ((4, 0.0, 0.5), (3, 1.0, 1.0), (3, 1.0, 0.5)):
        t0 = time.perf_counter()
        audit = symspace.covariance_audit(
            symspace.EnsembleParams(m, u, v), _scaled(n, 200000, 2000), seed=seed, workers=workers
        )
        rows.append(_row(f"covariance-audit m={m} u={u} v={v}", audit.max_abs_z, None,
                         audit.max_abs_z, audit.passed, t0))

    for m, gate in QUADRATURE_GATE.items():
        t0 = time.perf_counter()
        quad = mehta.mehta_quadrature(m)
        ref = mehta.mehta_closed_form(m)
        rows.append(_row(f"mehta-quadrature m={m}", quad, ref, None, abs(quad - ref) <= gate, t0))

    for m in (2, 3, 4, 5):
        t0 = time.perf_counter()
        res = mehta.mehta_mc(m, _scaled(n, 1000000, 10000), seed=seed, workers=workers)
        rows.append(_row(f"mehta-mc m={m}", res.estimate, res.reference, res.z_score, res.passed, t0))

    t0 = time.perf_counter()
    worst = 0.0
    for m in range(1, 21):
        lhs = mehta.mehta_closed_form(m + 1)
        rhs = mehta.mehta_ratio(m) * mehta.mehta_closed_form(m)
        worst = max(worst, abs(lhs - rhs) / lhs)
    rows.append(_row("ratio-recursion m=1..20", worst, 0.0, None, worst <= 1e-12, t0))

    # these rows and the reproduce-zm table draw the same kind of variates, so
    # each gets its own key (criterion number times ten plus the row): on the
    # report seed they would be one experiment counted several times
    for key, (m, v) in enumerate(((1, 0.5), (2, 0.5), (1, 2.0)), start=50):
        t0 = time.perf_counter()
        res = mehta.detmoment_identity_check(m, v, _scaled(n, 500000, 5000),
                                             seed=_criterion_seed(seed, key), workers=workers)
        rows.append(_row(f"detmoment-integrated m={m} v={v}", res.estimate, res.reference,
                         res.z_score, res.passed, t0))

    for m, v, c in ((1, 0.5, 0.0), (1, 0.5, 1.0), (2, 0.5, 0.0)):
        t0 = time.perf_counter()
        res = mehta.exp_det_pointwise_check(m, v, c, _scaled(n, 500000, 5000), seed=seed, workers=workers)
        rows.append(_row(f"detmoment-pointwise m={m} v={v} c={c}", res.estimate, res.reference,
                         res.z_score, res.passed, t0))

    for m in (1, 2, 3):
        t0 = time.perf_counter()
        count = _scaled(n, 10000, 100)
        mats = symspace.sample_goe_batch(m + 1, 1.0, count, substream(seed, 500 + m))
        try:
            batch = spherefield.find_critical_points_batch(mats, rng=seed + m)
            lam = spectral.batched_eigvals(mats)
            dev = float(np.max(np.abs(np.sort(batch.values, axis=1) - np.repeat(lam, 2, axis=1))))
            want = np.repeat(np.arange(m + 1), 2)[None, :]
            morse_ok = bool((np.sort(batch.morse_indices, axis=1) == want).all())
            ok = dev <= 1e-8 and morse_ok
            detail = {"samples": count, "max_value_deviation": dev, "morse_ok": morse_ok}
        except (spherefield.IncompleteSearchError, spherefield.DegenerateMatrixError) as exc:
            ok, dev, detail = False, None, {"error": str(exc)}
        rows.append(_row(f"critical-points-exact m={m}", dev, 0.0, None, ok, t0, detail))

    for m, v in ((1, 1.0), (2, 1.0)):
        for label, (aa, bb) in (("R", (-math.inf, math.inf)), ("[0,inf)", (0.0, math.inf)),
                                ("[-1,1]", (-1.0, 1.0))):
            t0 = time.perf_counter()
            res = mehta.kacrice_vs_empirical(m, v, aa, bb, _scaled(n, 200000, 2000),
                                             seed=seed, workers=workers)
            worst_z = max(abs(res.z_empirical_kacrice), abs(res.z_empirical_spectral),
                          abs(res.z_kacrice_spectral))
            rows.append(_row(f"kacrice m={m} v={v} C={label}", res.empirical.estimate,
                             res.kacrice.estimate, worst_z, res.passed, t0))

    t0 = time.perf_counter()
    table = mehta.reproduce_zm(4, _scaled(n, 1000000, 10000), seed=_criterion_seed(seed, 90),
                               workers=workers)
    for r in table:
        rows.append(_row(f"reproduce-zm m={r.meta['m']}", r.estimate, r.reference, r.z_score,
                         r.passed, t0))
        t0 = time.perf_counter()

    for m, v in ((2, 1.0), (3, 0.5)):
        t0 = time.perf_counter()
        moments = regression.conditional_hessian_moments(
            m, v, _scaled(n, 200000, 2000), seed=seed, workers=workers, method="residual"
        )
        worst_z = max(abs(r.z_score) for r in moments.values())
        ok = worst_z <= 4.0
        pair = regression.hessian_regression_pair(m, v, coords="omega")
        res = regression.regress(pair)
        explained = pair.cross @ np.linalg.solve(pair.x.cov, pair.cross.T)
        residual = pair.y.cov - res.residual_cov - explained
        op_dev = float(np.max(np.abs(residual)))
        ok = ok and op_dev <= 1e-10
        rows.append(_row(f"regression-suite m={m} v={v}", worst_z, 0.0, worst_z, ok, t0,
                         {"operator_identity_dev": op_dev}))

    return {"criteria": rows, "all_pass": all(r["pass"] for r in rows)}


def cmd_report(args) -> int:
    t0 = time.perf_counter()
    report = run_report(args.n, args.seed, args.workers)
    payload = {
        "op": "report",
        "config": _config_dict(args, "report"),
        "criteria": report["criteria"],
        "all_pass": report["all_pass"],
        "wall_time_s": time.perf_counter() - t0,
    }
    _emit(args, payload)
    return 0 if report["all_pass"] else 1


def render_report(payload: dict) -> tuple[str, bool]:
    rows = payload.get("criteria")
    if rows is None or not isinstance(rows, list):
        raise ValueError("malformed report: missing criteria list")
    name_w = max([len(r.get("name", "")) for r in rows] + [len("criterion")])
    lines = [f"{'criterion':<{name_w}}  {'estimate':>14}  {'reference':>14}  {'z':>8}  verdict"]
    all_ok = True
    for r in rows:
        if "pass" not in r or "name" not in r:
            raise ValueError("malformed report: row without name/pass")
        est = "-" if r.get("estimate") is None else f"{r['estimate']:.6g}"
        ref = "-" if r.get("reference") is None else f"{r['reference']:.6g}"
        z = "-" if r.get("z") is None else f"{r['z']:+.2f}"
        ok = bool(r["pass"])
        all_ok = all_ok and ok
        lines.append(f"{r['name']:<{name_w}}  {est:>14}  {ref:>14}  {z:>8}  {'PASS' if ok else 'FAIL'}")
    return "\n".join(lines) + "\n", all_ok


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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mehtalab",
        description="Reproducible estimators and checks for GOE spectral statistics, "
        "sphere critical points, and the Mehta integral.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="emit ensemble draws in the matrix text format")
    _add_common(p)
    p.set_defaults(fn=cmd_sample)

    p = sub.add_parser("check-covariance", help="audit every second moment of a sampler")
    _add_common(p)
    p.set_defaults(fn=cmd_check_covariance)

    p = sub.add_parser("eig", help="print eigenvalues of a matrix file")
    p.add_argument("matrix")
    _add_common(p)
    p.set_defaults(fn=cmd_eig)

    p = sub.add_parser("critpoints", help="critical points of the sphere field of a matrix file")
    p.add_argument("matrix")
    _add_common(p)
    p.set_defaults(fn=cmd_critpoints)

    p = sub.add_parser("correlation", help="one-point correlation density estimate")
    _add_common(p)
    p.add_argument("--estimator", choices=("histogram", "kernel"), default="histogram")
    p.add_argument("--bin-width", type=float, default=None)
    p.add_argument("--bandwidth", type=float, default=None)
    p.set_defaults(fn=cmd_correlation)

    p = sub.add_parser("mehta", help="Mehta integral: closed form, mc, quadrature, reproduce")
    _add_common(p)
    p.add_argument("--method", choices=("closed", "ratio", "mc", "quadrature", "reproduce"),
                   default="closed")
    p.set_defaults(fn=cmd_mehta)

    p = sub.add_parser("detmoment", help="determinant-moment identity, integrated or pointwise")
    _add_common(p)
    p.add_argument("--mode", choices=("integrated", "pointwise"), default="integrated")
    p.set_defaults(fn=cmd_detmoment)

    p = sub.add_parser("kacrice", help="Kac-Rice density curve or interval comparison")
    _add_common(p)
    p.add_argument("--full-line", action="store_true", help="compare on all of R")
    p.add_argument("--curve", action="store_true", help="emit a density curve instead")
    p.add_argument("--curve-points", type=int, default=33)
    p.set_defaults(fn=cmd_kacrice)

    p = sub.add_parser("regress-demo", help="sphere Hessian regression, analytic vs empirical")
    _add_common(p)
    p.set_defaults(fn=cmd_regress_demo)

    p = sub.add_parser("report", help="run the full acceptance suite and write one JSON report")
    _add_common(p)
    p.set_defaults(fn=cmd_report)

    p = sub.add_parser("render", help="human-readable table from a report file")
    p.add_argument("report")
    _add_common(p)
    p.set_defaults(fn=cmd_render)

    return parser


def main(argv=None) -> int:
    try:
        parser = build_parser()
    except ValueError as exc:
        # a malformed MEHTA_* default is a usage error, like a bad flag value
        sys.stderr.write(f"error: {exc}\n")
        return 2
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        for flag in ("n", "curve_points"):
            # a count below 1 would run nothing and report it as a pass
            if getattr(args, flag, 1) < 1:
                name = flag.replace("_", "-")
                raise ValueError(f"--{name} must be a positive integer, got {getattr(args, flag)}")
        return args.fn(args)
    except ValueError as exc:
        # bad parameter values are usage errors, like unknown flags
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except OverflowError as exc:
        # a parameter so large that the result leaves the float range
        sys.stderr.write(f"error: parameter out of range, the result overflows a float ({exc})\n")
        return 2
    except (OSError, RuntimeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
