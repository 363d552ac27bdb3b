"""mehtalab benchmark: end-to-end and per-layer metrics of three workloads.

    python3 perfbench/run.py --workload {acceptance,spectrum,determinant} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the lab is imported from ./src.
Each pass runs in a fresh interpreter (see one_pass.py).  With --trace 0 the
run makes untraced passes until --seconds is spent (at least one) plus
set-up-only starts, and reports medians of the end-to-end metrics.  With
--trace 1 it makes one untraced and one traced pass and reports the per-layer
metrics of the traced one.  The last stdout line is the result object; the
line before it holds the per-pass values, failed checks and provenance.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# workers per workload; only spectrum runs the threaded map path
WORKERS = {"acceptance": 1, "spectrum": 2, "determinant": 1}
SETUP_STARTS = 3  # set-up-only interpreter starts before each untraced pass
BLAS_THREADS = 1
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
RUN_LIMIT_S = 170.0  # every pass must end inside this budget from the start of the run


class BenchError(RuntimeError):
    pass


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def git_commit() -> str:
    """HEAD of the checkout when it is a git work tree, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def pass_env() -> dict:
    """Child environment: one BLAS thread and no huge-page advice.

    One BLAS thread keeps workers x BLAS threads <= nproc for every workload.
    numpy advises the kernel to back large arrays with transparent huge pages;
    whether it gets them depends on how fragmented the host's memory is, not
    on the lab, so the advice is off to keep that out of time and RSS.
    """
    return dict(os.environ, NUMPY_MADVISE_HUGEPAGE="0",
                **{var: str(BLAS_THREADS) for var in BLAS_THREAD_VARS})


def run_child(args: list[str], env: dict, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "one_pass.py"), *args]
    timeout = deadline - time.perf_counter()
    if timeout <= 0:
        raise BenchError("run budget spent before the next pass could start")
    spawned_at = time.perf_counter()
    cmd += ["--spawned-at", repr(spawned_at)]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the child
        raise BenchError(f"pass did not finish within {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"pass exited with code {proc.returncode}")
    return json.loads(lines[-1])


def metric_units() -> tuple[dict, dict]:
    """Names and units of the end-to-end and per-layer metrics, as BENCHMARK.json lists them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def measure(workload: str, seed: int, seconds: int, trace: bool) -> tuple[dict, dict]:
    end_to_end, per_layer = metric_units()
    t_start = time.perf_counter()
    deadline = t_start + RUN_LIMIT_S
    env = pass_env()
    load_start = os.getloadavg()
    common = ["--workload", workload, "--seed", str(seed)]

    passes, setups = [], []
    if trace:
        # the untraced pass of the same seed lets the digest check show that
        # tracing leaves every output bit unchanged
        passes.append(run_child(common + ["--trace", "0"], env, deadline))
        passes.append(run_child(common + ["--trace", "1"], env, deadline))
    else:
        t_measure = time.perf_counter()
        while True:
            # interleaved with the passes, so set-up samples span the run's load
            for _ in range(SETUP_STARTS):
                setups.append(run_child(common + ["--setup-only"], env, deadline)["setup_s"])
            passes.append(run_child(common + ["--trace", "0"], env, deadline))
            elapsed = time.perf_counter() - t_measure
            if elapsed + passes[-1]["wall_s"] > seconds:
                break
    setups += [p["setup_s"] for p in passes]

    checks = [c for p in passes for c in p["checks"]]
    digests = sorted({p["digest"] for p in passes})
    if len(passes) > 1:
        # the same seed must give the same bits in every pass, traced or not
        checks.append(("passes bit-identical", len(digests) == 1))
    failed = [name for name, ok in checks if not ok]

    if trace:
        traced = passes[1]
        layers = dict(traced["layers"])
        # traced wall over the same pass's wall without the hooks' own time; the
        # untraced pass differs from it by host drift far above that cost
        hook_s = layers["hook_s"]
        layers["trace.overhead"] = traced["wall_s"] / (traced["wall_s"] - hook_s) - 1.0
        layers["checks_failed"] = len(failed) / len(checks)
        metrics = {k: {"value": layers[k], "unit": unit} for k, unit in per_layer.items()}
    else:
        values = {k: [p[k] for p in passes] for k in end_to_end if k != "setup_s"}
        values["setup_s"] = setups
        metrics = {k: {"value": statistics.median(values[k]), "unit": unit}
                   for k, unit in end_to_end.items()}

    detail = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "passes": [{k: p[k] for k in ("wall_s", "cpu_s", "peak_rss_mb", "setup_s", "digest")}
                   for p in passes],
        "setup_samples": setups,
        "checks_attempted": len(checks),
        "checks_failed": failed,
        "digest": digests,
        "notes": passes[0]["notes"],
        "absent_hooks": passes[-1].get("absent_hooks", []),
        "layers": passes[-1].get("layers"),
        "machine": {
            "nproc": nproc(),
            "cpu_model": cpu_model(),
            "loadavg_start": load_start,
            "loadavg_end": os.getloadavg(),
            "workers": WORKERS[workload],
            "blas_threads": BLAS_THREADS,
            "numpy_madvise_hugepage": 0,
        },
        "provenance": dict(passes[0]["provenance"], git_commit=git_commit()),
        "run_s": time.perf_counter() - t_start,
    }
    result = {
        "correct": not failed,
        "attempted": len(checks),
        "failed": len(failed),
        "metrics": metrics,
    }
    return detail, result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    try:
        detail, result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        sys.stderr.write(f"benchmark failed: {exc}\n")
        return 1
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
