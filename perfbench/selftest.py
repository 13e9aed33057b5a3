#!/usr/bin/env python3
"""Shows that every checker in checks.py can fail.

    python3 perfbench/selftest.py

Runs capsieve (from ``src``) on one small input per workload, requires the
checkers to accept the true output, then perturbs one checked value at a
time and requires each perturbed output to be rejected by the check named
for it.  Exits 1 if any true output is rejected or any perturbation passes.
"""

from __future__ import annotations

import contextlib
import copy
import csv
import io
import json
import os
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import capsieve  # noqa: E402
from capsieve import cli  # noqa: E402

import checks  # noqa: E402

FAILURES: list[str] = []


def _cli(argv: list[str]) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    if rc != 0:
        raise RuntimeError(f"capsieve {' '.join(argv)} exited with {rc}")
    return buf.getvalue()


def _expect(name: str, errs: list[str], want: str | None) -> None:
    """want None: the output must pass; else some message must contain want."""
    if want is None:
        ok = not errs
        verdict = "accepted" if ok else f"rejected: {errs[:2]}"
    else:
        ok = any(want in e for e in errs)
        verdict = f"rejected ({want!r})" if ok else f"NOT rejected by {want!r}: {errs[:2]}"
    print(f"{'ok ' if ok else 'BAD'} {name}: {verdict}")
    if not ok:
        FAILURES.append(name)


# -- table --------------------------------------------------------------------


def _table_text(rows: list[dict]) -> str:
    out = io.StringIO()
    w = csv.DictWriter(out, fieldnames=list(rows[0]), lineterminator="\n")
    w.writeheader()
    w.writerows(rows)
    return out.getvalue()


def selftest_table(ref: checks.Reference) -> None:
    op = {"space": "cp4", "K_max": 12}
    text = _cli(["table", "cp4", "--K-max", "12"])
    _expect("table true output", checks.check_table(ref, op, text), None)
    rows = list(csv.DictReader(io.StringIO(text)))

    def perturbed(field: str, fn) -> str:
        bad = copy.deepcopy(rows)
        bad[5][field] = repr(fn(float(bad[5][field])))
        return _table_text(bad)

    _expect("table t_KK moved by 1e-6 (1 - t)", checks.check_table(
        ref, op, perturbed("t_KK", lambda t: t + 1e-6 * (1.0 - t))), "change sign")
    _expect("table t_KK above the Euler-Rayleigh bound", checks.check_table(
        ref, op, perturbed("t_KK", lambda t: 1.0 - 1e-3 * (1.0 - t))), "Euler-Rayleigh")
    _expect("table T2 * (1 + 1e-6)", checks.check_table(
        ref, op, perturbed("T2", lambda v: v * (1.0 + 1e-6))), "T2")
    _expect("table A_K * (1 + 1e-6)", checks.check_table(
        ref, op, perturbed("A_K", lambda v: v * (1.0 + 1e-6))), "A_K")
    _expect("table row missing", checks.check_table(
        ref, op, _table_text(rows[:-1])), "rows K=")


# -- bound --------------------------------------------------------------------


def selftest_bound(ref: checks.Reference) -> None:
    op = {"space": "hp8", "K": 600}
    rep = json.loads(_cli(["bound", "hp8", "--K", "600"]))
    _expect("bound true output", checks.check_bound(ref, op, json.dumps(rep)), None)

    def perturbed(**changes) -> str:
        return json.dumps(dict(rep, **changes))

    _expect("bound T2 * (1 + 1e-6)", checks.check_bound(
        ref, op, perturbed(T2=rep["T2"] * (1 + 1e-6))), "T2")
    _expect("bound cap measure * (1 + 1e-6)", checks.check_bound(
        ref, op, perturbed(cap_measure_at_tKK=rep["cap_measure_at_tKK"] * (1 + 1e-6))),
        "cap_measure_at_tKK")
    _expect("bound A_infinity * (1 + 1e-8)", checks.check_bound(
        ref, op, perturbed(A_infinity=rep["A_infinity"] * (1 + 1e-8))), "A_infinity")
    far = rep["A_K"] * (1 + 2 * checks.LIMIT_C / 600 ** 2)
    _expect("bound A_K and T2 moved together, away from A_infinity", checks.check_bound(
        ref, op, perturbed(A_K=far, T2=far / rep["cap_measure_at_tKK"])),
        "near A_infinity")
    t = rep["t_KK"]
    _expect("bound t_KK moved by 1e-6 (1 - t)", checks.check_bound(
        ref, op, perturbed(t_KK=t - 1e-6 * (1 - t), delta=t - 1e-6 * (1 - t))),
        "change sign")


# -- density ------------------------------------------------------------------


def _density(region: dict, k: int, n: int, margin: bool, shape: str) -> tuple[dict, dict]:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "region.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(region, fh)
        argv = ["density", "--region", path, "--K", str(k), "--samples", str(n),
                "--seed", "7"] + (["--margin"] if margin else [])
        out = json.loads(_cli(argv))
    return {"shape": shape, "K": k, "region": region, "samples": n,
            "margin": margin}, out


def selftest_density(ref: checks.Reference) -> None:
    t_n = ref.t_kk("s2", 10)
    single = {"space": "s2", "caps": [{"center": [0.3, -0.2, 0.9],
                                       "delta": 1 - 0.5 * (1 - t_n)}]}
    op, out = _density(single, 10, 128, False, "single")
    _expect("density single-cap true output",
            checks.check_density(ref, op, json.dumps(out)), None)
    p = ref.rho_single("s2", single["caps"][0]["delta"], t_n)
    se = (p * (1 - p) / 128) ** 0.5
    for rho, name in ((p + 9 * se, "rho = p + 9 se"), (p - 7 * se, "rho = p - 7 se")):
        bad = dict(out, rho=rho, std_error=(rho * (1 - rho) / 128) ** 0.5,
                   rho_used=rho, lambda2_bound=min(1.0, out["a_constant"] * rho))
        _expect(f"density {name}", checks.check_density(ref, op, json.dumps(bad)),
                "outside [")
    _expect("density rho = 1.2", checks.check_density(
        ref, op, json.dumps(dict(out, rho=1.2))), "outside [0, 1]")
    _expect("density a_constant * (1 + 1e-6)", checks.check_density(
        ref, op, json.dumps(dict(out, a_constant=out["a_constant"] * (1 + 1e-6)))),
        "a_constant")
    _expect("density lambda2_bound + 1e-6", checks.check_density(
        ref, op, json.dumps(dict(out, lambda2_bound=out["lambda2_bound"] + 1e-6))),
        "lambda2_bound")
    _expect("density std_error * 1.01", checks.check_density(
        ref, op, json.dumps(dict(out, std_error=out["std_error"] * 1.01))), "std_error")
    d = out["delta"]
    _expect("density delta moved by 1e-6 (1 - t)", checks.check_density(
        ref, op, json.dumps(dict(out, delta=d + 1e-6 * (1 - d)))), "change sign")

    comp = {"space": "s2", "complement": True,
            "caps": [{"center": [0.0, 0.0, 1.0], "delta": 0.7}]}
    op, out = _density(comp, 10, 32, True, "complement")
    _expect("density complement true output",
            checks.check_density(ref, op, json.dumps(out)), None)
    _expect("density complement rho = 0.99", checks.check_density(
        ref, op, json.dumps(dict(out, rho=0.99))), "want 1")


# -- spectral -----------------------------------------------------------------


def _spectral(region: dict, k: int, n_theta: int, shape: str) -> tuple[dict, dict]:
    res = capsieve.concentration_eigenvalue(
        capsieve.RegionSpec.from_dict(region), k, n_theta)
    return ({"shape": shape, "K": k, "n_theta": n_theta, "region": region},
            {"lambda_max": res.lambda_max, "n_nodes": res.n_nodes,
             "n_active": res.region["n_active"]})


def selftest_spectral(ref: checks.Reference) -> None:
    union = {"space": "s2", "caps": [{"center": [0.0, 0.6, 0.8], "delta": 0.9},
                                     {"center": [0.7, 0.0, -0.7], "delta": 0.95}]}
    op, out = _spectral(union, 4, 16, "small_caps")
    _expect("spectral union true output", checks.check_spectral(ref, op, out)[0], None)
    lam = out["lambda_max"]
    _expect("spectral lambda * (1 + 1e-6)", checks.check_spectral(
        ref, op, dict(out, lambda_max=lam * (1 + 1e-6)))[0], "above the dense")
    _expect("spectral lambda - 1e-3", checks.check_spectral(
        ref, op, dict(out, lambda_max=lam - 1e-3))[0], "below the dense")
    _expect("spectral n_active + 1", checks.check_spectral(
        ref, op, dict(out, n_active=out["n_active"] + 1))[0], "nodes")
    _expect("spectral lambda = 1.5", checks.check_spectral(
        ref, op, dict(out, lambda_max=1.5))[0], "outside [0, 1]")

    t_n = ref.t_kk("s2", 6)
    single = {"space": "s2", "caps": [{"center": [0.0, 0.0, 1.0],
                                       "delta": 1 - 0.15 * (1 - t_n)}]}
    op, out = _spectral(single, 6, 48, "single")
    _expect("spectral sparse cap true output",
            checks.check_spectral(ref, op, out)[0], None)
    bound = ref.a_k("s2", 6) * 0.15
    _expect("spectral sparse cap lambda above A_K * rho", checks.check_spectral(
        ref, op, dict(out, lambda_max=bound * 1.01))[0], "A_K * rho")


def main() -> int:
    ref = checks.Reference()
    selftest_table(ref)
    selftest_bound(ref)
    selftest_density(ref)
    selftest_spectral(ref)
    if FAILURES:
        print(f"{len(FAILURES)} self-test case(s) failed")
        return 1
    print("every true output accepted, every perturbation rejected")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
