#!/usr/bin/env python3
"""capsieve benchmark: one workload per run, timed end to end.

    python3 perfbench/run.py --workload table --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout (the package is imported from
``src``).  Workloads: table, bound_large_k, density, spectral; see
perfbench/README.md.  The workload runs in a fresh worker process with one
BLAS/OpenMP thread.  Set-up is timed ``SETUP_PROBES`` times, each in its own
fresh process.  Outputs are checked here, after the worker has ended, by
perfbench/checks.py.  The last line of standard output is the result as
JSON; a copy goes to perfbench/results/.  Exits 1 without a result when the
workload cannot run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("table", "bound_large_k", "density", "spectral")
SETUP_PROBES = 7
TIMEOUT_S = 170.0

# traced run: span self times (.s) and call counts (.calls) of these names
SPAN_METRICS = {
    "specfun.largest_zero": ("calls", "s"),
    "sieve.nyquist_delta": ("calls",),
    "specfun.gauss_jacobi_rule": ("calls", "s"),
    "specfun.tail_quadrature": ("s",),
    "sieve.t2_constant": ("s",),
    "sieve.a_constant": ("s",),
    "sieve.a_infinity": ("s",),
    "sieve.candidate_centers": ("s",),
    "region.max_nyquist_density": ("s",),
    "region.contains": ("calls", "s"),
    "backend.invert_beta_tail_cdf": ("s",),
    "oracle.concentration_eigenvalue": ("s",),
    "oracle.sphere_grid": ("s",),
    "backend.legendre_kernel_matrix": ("s",),
    "cli.main": ("s",),
}
COUNT_METRICS = ("region.points_sampled", "oracle.active_nodes")


class WorkerError(RuntimeError):
    pass


def _env() -> dict:
    env = dict(os.environ)
    # One BLAS thread: the default 2-thread OpenBLAS pool stalls the dense
    # eigh of small Golub-Welsch problems in some fresh processes.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    src = str(ROOT / "src")
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src + os.pathsep + old if old else src
    return env


def _start(args, workdir: str, setup_only: bool) -> tuple[subprocess.Popen, float]:
    """Start a worker and wait for READY; returns it with its set-up time."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", workdir]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, env=_env(), stdout=subprocess.PIPE, text=True,
                            cwd=str(ROOT))
    try:
        line = proc.stdout.readline()
        setup = time.perf_counter() - t0
        if line.strip() != "READY":
            raise WorkerError(f"worker did not get ready (exit {proc.wait()})")
    except BaseException:
        _stop(proc)
        raise
    return proc, setup


def _stop(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait()
    proc.stdout.close()


def _finish(proc: subprocess.Popen) -> str:
    """Wait for a started worker; returns the rest of its standard output."""
    try:
        out, _ = proc.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise WorkerError("worker timed out") from exc
    finally:
        _stop(proc)
    if proc.returncode != 0:
        raise WorkerError(f"worker exited with {proc.returncode}")
    return out


def _run_worker(args, workdir: str) -> tuple[dict, list[float]]:
    """Set-up probes that stop at READY, then the worker that runs the ops."""
    setups = []
    for _ in range(0 if args.trace else SETUP_PROBES - 1):
        proc, setup = _start(args, workdir, setup_only=True)
        setups.append(setup)
        _finish(proc)
    proc, setup = _start(args, workdir, setup_only=False)
    setups.append(setup)
    return json.loads(_finish(proc).strip().splitlines()[-1]), setups


def _round_times(ops: list[dict], outputs: list[dict]) -> list[float]:
    rounds: dict[int, float] = {}
    for op, out in zip(ops, outputs):
        rounds[op["round"]] = rounds.get(op["round"], 0.0) + out["seconds"]
    return [rounds[r] for r in sorted(rounds)]


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _per_layer(trace: dict, wall: float) -> dict:
    spans, metrics = trace["spans"], {}
    for name, kinds in SPAN_METRICS.items():
        calls, self_s = (spans[name]["calls"], spans[name]["self_s"]) \
            if name in spans else (0, 0.0)
        if "calls" in kinds:
            metrics[f"{name}.calls"] = _metric(calls, "count")
        if "s" in kinds:
            metrics[f"{name}.s"] = _metric(self_s, "s")
    for name in COUNT_METRICS:
        metrics[name] = _metric(trace["counts"][name], "count")
    covered = sum(s["self_s"] for s in spans.values())
    metrics["trace.wall_s"] = _metric(wall, "s")
    metrics["trace.span_coverage"] = _metric(covered / wall, "ratio")
    return metrics


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "capsieve" / "__init__.py").is_file():
        sys.stderr.write(f"error: no capsieve sources under {ROOT / 'src'}\n")
        return 1

    results_dir = HERE / "results"
    results_dir.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=results_dir, prefix="work-") as workdir:
        try:
            payload, setups = _run_worker(args, workdir)
        except WorkerError as exc:
            sys.stderr.write(f"error: {exc}\n")
            return 1

    import checks  # scipy and mpmath load only after the worker has ended

    ops, outputs = payload["ops"], payload["outputs"]
    failed = [o for o in outputs if not o["ok"]]
    for o in failed[:5]:
        sys.stderr.write(f"failed op: {o.get('error') or o.get('rc')}\n")
    verdict = checks.check_run(args.workload, ops, outputs)
    for msg in verdict["errors"][:20]:
        sys.stderr.write(f"check failed: {msg}\n")

    times = [o["seconds"] for o in outputs if o["ok"]]
    wall = sum(o["seconds"] for o in outputs)
    if args.trace:
        metrics = _per_layer(payload["trace"], wall)
    else:
        metrics = {
            "setup_s": _metric(statistics.median(setups), "s"),
            "wall_s": _metric(wall, "s"),
            "op_p50_ms": _metric(1000.0 * statistics.median(times), "ms"),
            "peak_rss_mb": _metric(payload["peak_rss_mb"], "MB"),
        }
    result = {"correct": not verdict["errors"], "attempted": len(outputs),
              "failed": len(failed), "metrics": metrics}
    record = dict(result, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace,
                  setup_samples_s=setups, check_stats=verdict["stats"],
                  round_s=_round_times(ops, outputs),
                  op_s=[o["seconds"] for o in outputs])
    if args.trace:
        record["spans"] = payload["trace"]
    (results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(HERE))
    raise SystemExit(main())
