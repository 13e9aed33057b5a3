"""Command-line front end.

Subcommands:
  bound    constants report for one (space, K [, delta])
  zeros    certified largest Jacobi zero, its bound and its Newton start
  limit    large-K limit constant of A_K
  density  maximum Nyquist density of a region file
  table    CSV sweep of (K, t_KK, T2, A_K)
  verify   run verification suites, exit 2 on failure

All reports are deterministic given the flags (including --seed) and embed
the tool version and discretization parameters.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from functools import cache

import numpy as np

from ._version import __version__
from .manifold import cap_measure, eigenspace_info, space_from_id
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
from .specfun import JacobiIndex, euler_rayleigh_bound, largest_zero, largest_zero_estimate

_EXIT_OK = 0
_EXIT_USAGE = 1
_EXIT_VERIFY_FAILED = 2


def _emit_json(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _emit_csv(rows: list[dict]) -> None:
    cols = list(rows[0])
    lines = [cols] + [[repr(v) if isinstance(v, float) else str(v) for v in map(row.get, cols)]
                      for row in rows]
    sys.stdout.write("".join(",".join(line) + "\n" for line in lines))


def _emit(payload: dict, fmt: str) -> int:
    """The report as JSON, or as one CSV row without its meta and vector fields."""
    if fmt == "csv":
        _emit_csv([{k: v for k, v in payload.items() if k not in ("meta", "argmax_center")}])
    else:
        _emit_json(payload)
    return _EXIT_OK


def _meta(**extra) -> dict:
    return {"tool": "capsieve", "version": __version__, **extra}


def _cmd_bound(args) -> int:
    rep = bound_report(space_from_id(args.space), args.K, delta=args.delta)
    return _emit({**rep.to_dict(), "meta": _meta()}, args.format)


def _cmd_zeros(args) -> int:
    space = space_from_id(args.space)
    if args.K < 1 or not space.in_index_set(args.K):
        raise ValueError(f"K must be >= 1 and in the index set of {space.space_id}")
    idx = JacobiIndex(space.alpha, space.beta, space.degree(args.K))
    zero = largest_zero(idx)
    t_kk = space.to_t(zero.t_nn)
    return _emit({
        "space": space.space_id,
        "K": args.K,
        "t_KK": t_kk,
        "theta_K1": math.acos(t_kk),
        "euler_rayleigh_bound": space.to_t(euler_rayleigh_bound(idx)),
        "asymptotic_estimate": space.to_t(largest_zero_estimate(idx)),
        # the bracket [t_KK - width, t_KK), rounded outward from the one in x
        "bracket_width": t_kk - space.to_t(zero.t_nn - zero.bracket_width, up=False),
        "meta": _meta(),
    }, args.format)


def _cmd_limit(args) -> int:
    space = space_from_id(args.space)
    return _emit({"space": space.space_id, "alpha": space.alpha,
                  "A_infinity": a_infinity(space), "meta": _meta()}, "json")


def _cmd_density(args) -> int:
    if args.samples < 1:
        raise ValueError(f"--samples must be >= 1, got {args.samples}")
    region = RegionSpec.from_json(args.region)
    est = max_nyquist_density(region, args.K, args.samples, args.seed)
    rho_used = min(est.rho + (3.0 * est.std_error if args.margin else 0.0), 1.0)
    a_k = a_constant(region.space, args.K)
    return _emit({
        **est.to_dict(),
        "space": region.space.space_id,
        "K": args.K,
        "delta": nyquist_delta(region.space, args.K),
        "margin_applied": bool(args.margin),
        "rho_used": rho_used,
        "a_constant": a_k,
        "lambda2_bound": min(1.0, a_k * rho_used),
        "meta": _meta(samples_per_center=args.samples, grid_size=GRID_SIZE,
                      refine_iters=REFINE_ITERS),
    }, args.format)


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


def _top_index_k(space, K: int, suite: str) -> int:
    """The largest k <= --K in the index set of the space; it must be >= 1."""
    if space.degree(K) < 1:
        raise ValueError(f"--K={K} leaves no K >= 1 in the index set of {space.space_id} for "
                         f"the {suite} suite; the smallest admissible --K is {space.band(1)}")
    return space.band(space.degree(K))


def _suite_ordering(space_id: str, K: int) -> list[dict]:
    """The two Sturm zero counts of ordering_check at the top index-set K; each passes at 0."""
    space = space_from_id(space_id)
    k = _top_index_k(space, K, "ordering")
    counts = ordering_check(space, k)
    names = ("P_K^(a,b) in (t_KK,1]", "P_K-1^(a+1,b) in [t_KK,1]")
    return [_check(f"ordering[{space.space_id},K={k},zeros of {name}]", count, 0, count == 0)
            for name, count in zip(names, counts)]


def _suite_extremal(space_id: str, K: int) -> list[dict]:
    """T2 against the oracle's certified interval at K in {2, 4} up to K, and at min(K, 4).

    A check's value is the larger of the oracle's relative gap and T2's
    relative distance outside [T2_lower, T2_upper]; it passes at 1e-12.
    """
    space = space_from_id(space_id)
    _top_index_k(space, K, "extremal")
    checks = []
    for k in sorted({k for k in (2, 4, min(K, 4)) if k <= K and space.in_index_set(k)}):
        t_kk = nyquist_delta(space, k)
        for delta in (t_kk, 0.5 * (1.0 + t_kk)):
            want = t2_constant(space, k, delta)  # first: it names a too large alpha
            res = extremal_bruteforce(space, k, delta)
            lo, hi = res.T2_lower, res.T2_upper
            err = max((hi - lo) / lo, (lo - want) / lo, (want - hi) / hi)
            checks.append(_check(
                f"extremal[{space.space_id},K={k},delta={delta:.6f}]", err, 1e-12,
                err <= 1e-12))
    return checks


def _suite_convolution(seed: int) -> list[dict]:
    if seed < 0:
        raise ValueError(f"--seed must be >= 0 for the convolution suite, got {seed}")
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(3):
        g = rng.standard_normal(6)
        h = rng.standard_normal(6)
        worst = max(worst, convolution_check(5, g, h, 64))
    return [_check("convolution[s2,deg<=5]", worst, 1e-12, worst <= 1e-12)]


def _suite_spectral(K: int) -> list[dict]:
    if K < 0:
        raise ValueError(f"--K must be >= 0 for the spectral suite, got {K}")
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
    scale = 1  # A_K nears A_infinity at degrees that grow with alpha: double them per
    while 10 * scale < space.alpha:  # doubling of alpha past 10
        scale *= 2
    rows = limit_check(space, [space.band(n * scale) for n in (64, 128, 256)])
    gaps = [r[2] for r in rows]
    dec = all(g2 < g1 for g1, g2 in zip(gaps, gaps[1:]))
    rel = gaps[-1] / a_infinity(space)
    return [
        _check(f"limit_gaps_decreasing[{space.space_id}]", float(dec), 1.0, dec),
        _check(f"limit_gap_final[{space.space_id}]", rel, 0.05, rel <= 0.05),
    ]


def _suite_structural(space_id: str, K: int) -> list[dict]:
    space = space_from_id(space_id)
    _top_index_k(space, K, "structural")  # d_k up to min(K, 100), A_K at the least K
    flags = sum(eigenspace_info(space, k).integrality_flag
                for k in space.index_set(min(K, 100)))
    k0 = space.band(1)
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
    run = {"ordering": lambda: _suite_ordering(args.space, args.K),
           "extremal": lambda: _suite_extremal(args.space, args.K),
           "convolution": lambda: _suite_convolution(args.seed),
           "spectral": lambda: _suite_spectral(min(args.K, 10)),
           "limit": lambda: _suite_limit(args.space),
           "structural": lambda: _suite_structural(args.space, args.K)}
    checks = [c for suite in (_SUITES if args.suite == "all" else (args.suite,))
              for c in run[suite]()]
    all_pass = all(c["pass"] for c in checks)
    _emit_json({"checks": checks, "all_pass": all_pass, "meta": _meta(seed=args.seed)})
    return _EXIT_OK if all_pass else _EXIT_VERIFY_FAILED


# ---------------------------------------------------------------------------


@cache
def build_parser() -> argparse.ArgumentParser:
    """The capsieve argument parser, built once per process and shared by every ``main`` call."""
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
