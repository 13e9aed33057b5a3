"""Command-line front end.

Subcommands:
  bound    constants report for one (space, K [, delta])
  zeros    largest Jacobi zero with bound and asymptotic estimate
  limit    large-K limit constant of A_K
  density  maximum Nyquist density of a region file
  table    CSV sweep of (K, t_KK, T2, A_K)
  verify   run verification suites, exit 2 on failure

All reports are deterministic given the flags (including --seed) and embed
the tool version and discretization parameters.
"""

from __future__ import annotations

import argparse
import io
import json
import sys

import numpy as np

from ._version import __version__
from .manifold import space_from_id
from .oracle import (
    concentration_eigenvalue,
    convolution_check,
    extremal_bruteforce,
    limit_check,
    ordering_check,
)
from .region import GRID_SIZE, REFINE_ITERS, RegionSpec, max_nyquist_density
from .sieve import (
    a_constant,
    a_infinity,
    bound_report,
    constants_table,
    nyquist_delta,
    t2_constant,
)
from .specfun import JacobiIndex, bessel_first_zero, euler_rayleigh_bound, largest_zero

_EXIT_OK = 0
_EXIT_USAGE = 1
_EXIT_VERIFY_FAILED = 2


def _emit_json(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _emit_csv(rows: list[dict]) -> None:
    if not rows:
        return
    cols = list(rows[0].keys())
    out = io.StringIO()
    out.write(",".join(cols) + "\n")
    for row in rows:
        out.write(",".join(_csv_cell(row[c]) for c in cols) + "\n")
    sys.stdout.write(out.getvalue())


def _csv_cell(v) -> str:
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _meta(**extra) -> dict:
    meta = {"tool": "capsieve", "version": __version__}
    meta.update(extra)
    return meta


def _cmd_bound(args) -> int:
    space = space_from_id(args.space)
    rep = bound_report(space, args.K, delta=args.delta)
    payload = rep.to_dict()
    payload["meta"] = _meta()
    if args.format == "csv":
        flat = {k: v for k, v in payload.items() if k != "meta"}
        _emit_csv([flat])
    else:
        _emit_json(payload)
    return _EXIT_OK


def _cmd_zeros(args) -> int:
    space = space_from_id(args.space)
    if args.K < 1 or not space.in_index_set(args.K):
        raise ValueError(f"K must be >= 1 and in the index set of {space.space_id}")
    idx = JacobiIndex(space.alpha, space.beta, args.K)
    zero = largest_zero(idx)
    j1 = bessel_first_zero(space.alpha)
    payload = {
        "space": space.space_id,
        "K": args.K,
        "t_KK": zero.t_nn,
        "theta_K1": zero.theta_n1,
        "euler_rayleigh_bound": euler_rayleigh_bound(idx),
        "asymptotic_estimate": 1.0 - j1 * j1 / (2.0 * args.K * args.K),
        "bracket_width": zero.bracket_width,
        "meta": _meta(),
    }
    if args.format == "csv":
        _emit_csv([{k: v for k, v in payload.items() if k != "meta"}])
    else:
        _emit_json(payload)
    return _EXIT_OK


def _cmd_limit(args) -> int:
    space = space_from_id(args.space)
    payload = {
        "space": space.space_id,
        "alpha": space.alpha,
        "A_infinity": a_infinity(space),
        "meta": _meta(),
    }
    _emit_json(payload)
    return _EXIT_OK


def _cmd_density(args) -> int:
    region = RegionSpec.from_json(args.region)
    est = max_nyquist_density(region, args.K, args.samples, args.seed)
    rho_used = est.rho + (3.0 * est.std_error if args.margin else 0.0)
    rho_used = min(rho_used, 1.0)
    a_k = a_constant(region.space, args.K)
    payload = est.to_dict()
    payload.update({
        "space": region.space.space_id,
        "K": args.K,
        "delta": nyquist_delta(region.space, args.K),
        "margin_applied": bool(args.margin),
        "rho_used": rho_used,
        "a_constant": a_k,
        "lambda2_bound": min(1.0, a_k * rho_used),
        "meta": _meta(samples_per_center=args.samples, grid_size=GRID_SIZE,
                      refine_iters=REFINE_ITERS),
    })
    if args.format == "csv":
        flat = {k: v for k, v in payload.items() if k not in ("meta", "argmax_center")}
        _emit_csv([flat])
    else:
        _emit_json(payload)
    return _EXIT_OK


def _cmd_table(args) -> int:
    space = space_from_id(args.space)
    rows = constants_table(space, args.K_max)
    if args.format == "json":
        _emit_json({"space": space.space_id, "rows": rows, "meta": _meta()})
    else:
        _emit_csv(rows)
    return _EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _check(name: str, value: float, threshold: float, ok: bool) -> dict:
    return {"check": name, "value": value, "threshold": threshold,
            "pass": bool(ok)}


def _suite_ordering(space_id: str, K: int, seed: int) -> list[dict]:
    space = space_from_id(space_id)
    k_eff = K if space.in_index_set(K) else K - (K % space.index_stride)
    worst = ordering_check(space, k_eff, 500, seed)
    return [_check(f"ordering[{space.space_id},K={k_eff}]", worst, -1e-12,
                   worst >= -1e-12)]


def _suite_extremal(space_id: str, K: int) -> list[dict]:
    """T2 against the brute-force oracle at K in {2, 4} up to K, and at min(K, 4)."""
    space = space_from_id(space_id)
    if K < 1:
        raise ValueError(f"the extremal suite needs K >= 1, got {K}")
    checks = []
    for k in sorted({k for k in (2, 4, min(K, 4)) if k <= K and space.in_index_set(k)}):
        t_kk = nyquist_delta(space, k)
        for delta in (t_kk, 0.5 * (1.0 + t_kk)):
            got = extremal_bruteforce(space, k, delta).T2_oracle
            want = t2_constant(space, k, delta)
            rel = abs(got - want) / want
            checks.append(_check(
                f"extremal[{space.space_id},K={k},delta={delta:.6f}]", rel, 0.01,
                rel <= 0.01))
    return checks


def _suite_convolution(seed: int) -> list[dict]:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(3):
        g = rng.standard_normal(6)
        h = rng.standard_normal(6)
        worst = max(worst, convolution_check(5, g, h, 64))
    return [_check("convolution[s2,deg<=5]", worst, 1e-7, worst <= 1e-7)]


def _suite_spectral(K: int) -> list[dict]:
    space = space_from_id("s2")
    full = RegionSpec(space=space, caps=(), complement=True)
    res = concentration_eigenvalue(full, K, 2 * K + 8)
    err = abs(res.lambda_max - 1.0)
    trace = res.shannon_number
    return [
        _check(f"spectral_top[s2,K={K}]", err, 1e-6, err <= 1e-6),
        _check(f"spectral_trace[s2,K={K}]", trace, (K + 1) ** 2,
               abs(trace - (K + 1) ** 2) <= 1e-9 * (K + 1) ** 2),
    ]


def _suite_limit(space_id: str) -> list[dict]:
    space = space_from_id(space_id)
    stride = space.index_stride
    rows = limit_check(space, [64 * stride, 128 * stride, 256 * stride])
    gaps = [r[2] for r in rows]
    dec = all(g2 < g1 for g1, g2 in zip(gaps, gaps[1:]))
    rel = gaps[-1] / a_infinity(space)
    return [
        _check(f"limit_gaps_decreasing[{space.space_id}]", float(dec), 1.0, dec),
        _check(f"limit_gap_final[{space.space_id}]", rel, 0.05, rel <= 0.05),
    ]


def _suite_structural(space_id: str, K: int) -> list[dict]:
    from .manifold import cap_measure, eigenspace_info

    space = space_from_id(space_id)
    flags = 0
    for k in space.index_set(min(K, 100)):
        if eigenspace_info(space, k).integrality_flag:
            flags += 1
    k0 = space.index_stride
    t_kk = nyquist_delta(space, k0)
    a_k = a_constant(space, k0)
    ident = abs(a_k - cap_measure(space, t_kk) * t2_constant(space, k0, t_kk))
    return [
        _check(f"dk_integrality[{space.space_id},k<=100]", float(flags), 0.0,
               flags == 0),
        _check(f"aK_identity[{space.space_id},K={k0}]", ident, 1e-12 * a_k,
               ident <= 1e-12 * a_k),
    ]


_SUITES = ("ordering", "extremal", "convolution", "spectral", "limit", "structural")


def _cmd_verify(args) -> int:
    suites = _SUITES if args.suite == "all" else (args.suite,)
    checks: list[dict] = []
    for suite in suites:
        if suite == "ordering":
            checks += _suite_ordering(args.space, args.K, args.seed)
        elif suite == "extremal":
            checks += _suite_extremal(args.space, args.K)
        elif suite == "convolution":
            checks += _suite_convolution(args.seed)
        elif suite == "spectral":
            checks += _suite_spectral(min(args.K, 10))
        elif suite == "limit":
            checks += _suite_limit(args.space)
        elif suite == "structural":
            checks += _suite_structural(args.space, args.K)
    all_pass = all(c["pass"] for c in checks)
    _emit_json({"checks": checks, "all_pass": all_pass, "meta": _meta(seed=args.seed)})
    return _EXIT_OK if all_pass else _EXIT_VERIFY_FAILED


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="capsieve",
        description="Concentration bounds and Nyquist densities on two-point "
                    "homogeneous spaces (s<d>, rp<d>, cp<d>, hp<d>, cay16).")
    parser.add_argument("--version", action="version", version=f"capsieve {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("bound", help="constants report for one (space, K[, delta])")
    p.add_argument("space")
    p.add_argument("--K", type=int, required=True)
    p.add_argument("--delta", type=float, default=None,
                   help="cap parameter, defaults to t_KK (must be >= t_KK)")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("zeros", help="largest Jacobi zero and its estimates")
    p.add_argument("space")
    p.add_argument("--K", type=int, required=True)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=_cmd_zeros)

    p = sub.add_parser("limit", help="large-K limit of A_K")
    p.add_argument("space")
    p.set_defaults(func=_cmd_limit)

    p = sub.add_parser("density", help="maximum Nyquist density of a region file")
    p.add_argument("--region", required=True, help="region JSON file")
    p.add_argument("--K", type=int, required=True)
    p.add_argument("--samples", type=int, default=100_000,
                   help="Monte Carlo samples per candidate center (default 1e5)")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--margin", action="store_true",
                   help="add 3 std errors to rho before forming the bound")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=_cmd_density)

    p = sub.add_parser(
        "table", help="sweep of bound constants over K",
        description="CSV columns: K (band limit, restricted to the space's "
                    "index set), t_KK (largest Jacobi zero), T2 (cap "
                    "concentration constant at delta = t_KK), A_K (Nyquist "
                    "density bound constant).")
    p.add_argument("space")
    p.add_argument("--K-max", dest="K_max", type=int, required=True)
    p.add_argument("--format", choices=("json", "csv"), default="csv")
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("verify", help="run verification suites (exit 2 on failure)")
    p.add_argument("--suite", choices=_SUITES + ("all",), default="all")
    p.add_argument("--space", default="s2")
    p.add_argument("--K", type=int, default=30)
    p.add_argument("--seed", type=int, default=42)
    p.set_defaults(func=_cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, FileNotFoundError, KeyError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return _EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
