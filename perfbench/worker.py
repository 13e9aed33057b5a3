"""One workload process: set up, say READY, run the operations, report.

Started by run.py with one BLAS thread and ``src`` on PYTHONPATH.  It prints
``READY`` once capsieve is imported, the inputs are made and one tiny
warm-up call has run; run.py times set-up up to that line.  Unless
``--setup-only`` is given it then runs every operation, timing each call
alone, and prints one JSON line with the outputs, the times and the peak
resident memory.  Outputs are checked by run.py, not here, so the checkers'
imports never enter this process's time or memory.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent

import capsieve  # noqa: E402  (from PYTHONPATH, set by run.py)
from capsieve import cli  # noqa: E402

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402


def _run_cli(argv: list[str]) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        t0 = time.perf_counter()
        rc = cli.main(argv)
        dt = time.perf_counter() - t0
    return {"seconds": dt, "ok": rc == 0, "rc": rc, "stdout": buf.getvalue()}


def _run_spectral(op: dict, region: capsieve.RegionSpec) -> dict:
    t0 = time.perf_counter()
    res = capsieve.concentration_eigenvalue(region, op["K"], op["n_theta"])
    dt = time.perf_counter() - t0
    return {"seconds": dt, "ok": True,
            "result": {"lambda_max": res.lambda_max, "n_nodes": res.n_nodes,
                       "n_active": res.region["n_active"]}}


# the hemisphere around the north pole: no operation uses it
WARM_UP_REGION = {"space": "s2", "caps": [{"center": [0, 0, 1], "delta": 0.5}]}


def _warm_up(workload: str) -> None:
    """One tiny call of the workload's entry point, on an input no op uses."""
    if workload == "table":
        _run_cli(["table", "s2", "--K-max", "2"])
    elif workload == "bound_large_k":
        _run_cli(["bound", "s2", "--K", "2"])
    elif workload == "density":
        # through the library: the CLI always searches 4096 grid centres
        capsieve.max_nyquist_density(
            capsieve.RegionSpec.from_dict(WARM_UP_REGION),
            1, 1, 0, grid_size=8)
    else:
        capsieve.concentration_eigenvalue(
            capsieve.RegionSpec.from_dict(WARM_UP_REGION),
            1, 10)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.OPS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--workdir", required=True, help="directory for region files")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    ops = workloads.OPS[args.workload](args.seed, args.seconds, args.workdir)
    regions = [capsieve.RegionSpec.from_dict(op["region"])
               if op["kind"] == "spectral" else None for op in ops]
    _warm_up(args.workload)
    sys.stdout.write("READY\n")
    sys.stdout.flush()
    if args.setup_only:
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    outputs = []
    try:
        for op, region in zip(ops, regions):
            try:
                if op["kind"] == "cli":
                    outputs.append(_run_cli(op["argv"]))
                else:
                    outputs.append(_run_spectral(op, region))
            except Exception:  # an op that raises is counted as failed
                outputs.append({"seconds": 0.0, "ok": False,
                                "error": traceback.format_exc()})
    finally:
        if tracer is not None:
            tracer.uninstall()
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    payload = {"ops": ops, "outputs": outputs, "peak_rss_mb": peak_kb / 1024.0}
    if tracer is not None:
        payload["trace"] = tracer.summary()
    sys.stdout.write(json.dumps(payload) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
