"""Checks of capsieve's outputs made apart from the program.

Nothing here imports capsieve.  Special functions come from scipy and
mpmath, the spaces' Jacobi parameters from the paper's table, and the
spectral reference is a kernel matrix assembled and solved here.  Each
check returns a list of messages, empty when the output passes.  The
tolerances are stated once, below, with the reason for each.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re

import mpmath
import numpy as np
from scipy import integrate, linalg, special

# A zero t is accepted when P_K changes sign across t -/+ ZERO_EPS (1 - t):
# 1e-8 of the distance to 1 is far above scipy's evaluation error up to
# K = 1500 and far below the gap to the next zero.
ZERO_EPS = 1e-8
# Points above t at which P_K must stay positive (no larger zero); zeros of
# P_K are spaced ~10/K^2 apart there, the grid ~(1 - t)/64 ~ 0.05/K^2.
ZERO_GRID = 64
# T2 and A_K against quad and betainc: the program's quadrature is good to
# ~1e-12 and quad is asked for 1e-12.
RTOL = 1e-8
# A_infinity against the Bessel closed form.
A_INF_RTOL = 1e-10
# |A_K / A_infinity - 1| <= LIMIT_C / K^2 for K >= LIMIT_K_MIN; measured
# constants are 0.48 (s2), 2.4 (cp4), 22 (hp8) and 162 (cay16).
LIMIT_C = 200.0
LIMIT_K_MIN = 500
# Monte Carlo rho against its closed form p, in standard errors of one
# estimate at p.  rho is a maximum over many noisy estimates, so it sits
# above p (by +1.8 and +2.3 se measured on two S^2 caps at K = 10); it can
# fall below p only if every estimate near the optimum does.
RHO_SE_BELOW = 6.0
RHO_SE_ABOVE = 8.0
# lambda from power iteration may sit below the dense top eigenvalue by at
# most this much (absolute); it may never sit above it beyond rounding.
LAMBDA_UNDER = 1e-4
LAMBDA_OVER = 1e-10

_SPACE = re.compile(r"^(s|rp|cp|hp|cay)(\d+)$")


def space_params(space_id: str) -> tuple[float, float, bool]:
    """(alpha, beta, projective) of a space: alpha = (d-2)/2, beta by family."""
    m = _SPACE.match(space_id)
    if m is None:
        raise ValueError(f"unknown space {space_id!r}")
    fam, d = m.group(1), int(m.group(2))
    alpha = (d - 2) / 2.0
    beta = {"s": alpha, "rp": alpha, "cp": 0.0, "hp": 1.0, "cay": 3.0}[fam]
    return alpha, beta, fam == "rp"


def _rel(got: float, want: float) -> float:
    return abs(got - want) / max(abs(want), 1e-300)


class Reference:
    """Independent values, cached per input so repeated rows cost nothing."""

    def __init__(self) -> None:
        self._zero_errs: dict = {}
        self._tail: dict = {}
        self._t_kk: dict = {}
        self._a_inf: dict = {}

    # -- Jacobi polynomials and their largest zero ---------------------------

    @staticmethod
    def jacobi(space: str, k: int, t):
        a, b, _ = space_params(space)
        return special.eval_jacobi(k, a, b, t)

    def zero_errors(self, space: str, k: int, t: float) -> list[str]:
        key = (space, k, t)
        if key not in self._zero_errs:
            self._zero_errs[key] = self._zero_check(space, k, t)
        return self._zero_errs[key]

    def _zero_check(self, space: str, k: int, t: float) -> list[str]:
        a, b, _ = space_params(space)
        where = f"{space} K={k} t_KK={t!r}"
        if not -1.0 < t < 1.0:
            return [f"{where}: outside (-1, 1)"]
        euler_rayleigh = 1.0 - 2.0 * (a + 1.0) / (k * (k + a + b + 1.0))
        errs = []
        if t > euler_rayleigh:
            errs.append(f"{where}: above the Euler-Rayleigh bound {euler_rayleigh!r}")
        eps = ZERO_EPS * (1.0 - t)
        if not self.jacobi(space, k, t - eps) < 0.0 < self.jacobi(space, k, t + eps):
            errs.append(f"{where}: P_K does not change sign from - to + across t")
        grid = t + eps + (1.0 - t - eps) * np.linspace(0.0, 1.0, ZERO_GRID)
        if not np.all(self.jacobi(space, k, grid) > 0.0):
            errs.append(f"{where}: P_K has a zero above t")
        return errs

    def t_kk(self, space: str, k: int) -> float:
        if (space, k) not in self._t_kk:
            a, b, _ = space_params(space)
            self._t_kk[space, k] = float(special.roots_jacobi(k, a, b)[0].max())
        return self._t_kk[space, k]

    # -- T2, cap measure, A_K, A_infinity ------------------------------------

    @staticmethod
    def _full_mass(space: str) -> float:
        """Integral of (1-t)^a (1+t)^b over the space's interval."""
        a, b, proj = space_params(space)
        full = 2.0 ** (a + b + 1.0) * special.beta(a + 1.0, b + 1.0)
        return 0.5 * full if proj else full

    def tail_integral(self, space: str, k: int, delta: float) -> float:
        """Integral over [delta, 1] of (P_K(t)/P_K(1))^2 (1-t)^a (1+t)^b by quad.

        delta >= t_KK, so the integrand has no zero inside the interval; the
        (1-t)^a factor is handed to quad as an algebraic end-point weight.
        """
        key = (space, k, delta)
        if key not in self._tail:
            a, b, _ = space_params(space)
            p1 = self.jacobi(space, k, 1.0)

            def f(t):
                return (self.jacobi(space, k, t) / p1) ** 2 * (1.0 + t) ** b

            val, _err = integrate.quad(f, delta, 1.0, weight="alg", wvar=(0.0, a),
                                       epsabs=0.0, epsrel=1e-12, limit=200)
            self._tail[key] = val
        return self._tail[key]

    def t2(self, space: str, k: int, delta: float) -> float:
        return self._full_mass(space) / self.tail_integral(space, k, delta)

    def cap(self, space: str, delta: float) -> float:
        """Normalised measure of a cap {t >= delta}, by the regularised betainc."""
        a, b, _ = space_params(space)
        full = 2.0 ** (a + b + 1.0) * special.beta(a + 1.0, b + 1.0)
        tail = full * special.betainc(a + 1.0, b + 1.0, (1.0 - delta) / 2.0)
        return tail / self._full_mass(space)

    def a_k(self, space: str, k: int) -> float:
        """A_K from scipy's own t_KK, quad and betainc."""
        t = self.t_kk(space, k)
        return self.cap(space, t) * self.t2(space, k, t)

    def a_infinity(self, space: str) -> float:
        """(j/2)^(2a) / ((a+1) Gamma(a+1)^2 J_{a+1}(j)^2), j = j_{a,1}."""
        if space not in self._a_inf:
            a, _, _ = space_params(space)
            j = float(mpmath.besseljzero(a, 1))
            self._a_inf[space] = ((j / 2.0) ** (2.0 * a)
                                  / ((a + 1.0) * special.gamma(a + 1.0) ** 2
                                     * special.jv(a + 1.0, j) ** 2))
        return self._a_inf[space]

    def rho_single(self, space: str, delta_cap: float, delta_nyq: float) -> float:
        """Maximum Nyquist density of one cap: min(1, |cap| / |Nyquist cap|)."""
        return min(1.0, self.cap(space, delta_cap) / self.cap(space, delta_nyq))


# ---------------------------------------------------------------------------
# Per-output checks
# ---------------------------------------------------------------------------


def _within(errs: list[str], what: str, got: float, want: float, rtol: float) -> None:
    if not math.isfinite(got) or _rel(got, want) > rtol:
        errs.append(f"{what}: got {got!r}, want {want!r} (rtol {rtol})")


def check_constants(ref: Reference, space: str, k: int, t_kk: float, t2: float,
                    a_k: float, where: str) -> list[str]:
    """t_KK is the largest zero; T2 matches quad; A_K = cap(t_KK) * T2."""
    errs = [f"{where}: {e}" for e in ref.zero_errors(space, k, t_kk)]
    _within(errs, f"{where} T2", t2, ref.t2(space, k, t_kk), RTOL)
    _within(errs, f"{where} A_K", a_k, ref.cap(space, t_kk) * t2, RTOL)
    return errs


def check_table(ref: Reference, op: dict, stdout: str) -> list[str]:
    space, k_max = op["space"], op["K_max"]
    where = f"table {space} --K-max {k_max}"
    rows = list(csv.DictReader(io.StringIO(stdout)))
    stride = 2 if space_params(space)[2] else 1
    want_ks = list(range(stride, k_max + 1, stride))
    got_ks = [int(r["K"]) for r in rows]
    if got_ks != want_ks:
        return [f"{where}: rows K={got_ks[:3]}..., want {want_ks[:3]}..."]
    errs = []
    for r in rows:
        errs += check_constants(ref, space, int(r["K"]), float(r["t_KK"]),
                                float(r["T2"]), float(r["A_K"]),
                                f"{where} row K={r['K']}")
    return errs


def check_bound(ref: Reference, op: dict, stdout: str) -> list[str]:
    space, k = op["space"], op["K"]
    where = f"bound {space} --K {k}"
    rep = json.loads(stdout)
    errs = []
    if rep["space"] != space or rep["K"] != k or rep["delta"] != rep["t_KK"]:
        errs.append(f"{where}: echoed space/K/delta do not match the input")
    errs += check_constants(ref, space, k, rep["t_KK"], rep["T2"], rep["A_K"], where)
    _within(errs, f"{where} cap_measure_at_tKK", rep["cap_measure_at_tKK"],
            ref.cap(space, rep["t_KK"]), RTOL)
    a_inf = ref.a_infinity(space)
    _within(errs, f"{where} A_infinity", rep["A_infinity"], a_inf, A_INF_RTOL)
    if k >= LIMIT_K_MIN:
        _within(errs, f"{where} A_K near A_infinity", rep["A_K"], a_inf,
                LIMIT_C / (k * k))
    return errs


def check_density(ref: Reference, op: dict, stdout: str) -> list[str]:
    region, k, n = op["region"], op["K"], op["samples"]
    space = region["space"]
    where = f"density {op['shape']} {space} K={k}"
    out = json.loads(stdout)
    errs = [f"{where}: {e}" for e in ref.zero_errors(space, k, out["delta"])]
    rho, se = out["rho"], out["std_error"]
    if not 0.0 <= rho <= 1.0:
        return errs + [f"{where}: rho={rho!r} outside [0, 1]"]
    if out["n_samples"] != n or out["space"] != space or out["K"] != k:
        errs.append(f"{where}: echoed samples/space/K do not match the input")
    if rho in (0.0, 1.0):
        if se != 0.0:
            errs.append(f"{where}: std_error={se!r} at rho={rho!r}, want 0")
    else:
        _within(errs, f"{where} std_error", se, math.sqrt(rho * (1.0 - rho) / n), 1e-12)
    delta_n = out["delta"]
    _within(errs, f"{where} a_constant", out["a_constant"],
            ref.cap(space, delta_n) * ref.t2(space, k, delta_n), RTOL)
    rho_used = min(1.0, rho + 3.0 * se) if op["margin"] else rho
    _within(errs, f"{where} rho_used", out["rho_used"], rho_used, 1e-15)
    _within(errs, f"{where} lambda2_bound", out["lambda2_bound"],
            min(1.0, out["a_constant"] * rho_used), 1e-15)

    caps = region["caps"]
    if region.get("complement"):
        # the removed caps leave room for a whole Nyquist cap at a grid centre
        if rho != 1.0:
            errs.append(f"{where}: rho={rho!r}, want 1 (a Nyquist cap fits outside)")
        return errs
    ps = [ref.rho_single(space, c["delta"], delta_n) for c in caps]
    lo, hi = max(ps), min(1.0, sum(ps))
    if hi == 1.0 and lo == 1.0:
        if rho != 1.0:
            errs.append(f"{where}: rho={rho!r}, want exactly 1")
        return errs
    se_lo = math.sqrt(lo * (1.0 - lo) / n)
    se_hi = math.sqrt(max(hi * (1.0 - hi), lo * (1.0 - lo)) / n)
    if not lo - RHO_SE_BELOW * se_lo <= rho <= hi + RHO_SE_ABOVE * se_hi:
        errs.append(f"{where}: rho={rho!r} outside [{lo!r} - {RHO_SE_BELOW} se, "
                    f"{hi!r} + {RHO_SE_ABOVE} se], se={se_lo!r}")
    return errs


def sphere_matrix(region: dict, k: int, n_theta: int):
    """sqrt(w_i w_j) sum_{l<=K} (2l+1) P_l(<x_i, x_j>) over the region's nodes.

    Nodes are the Gauss-Legendre x midpoint-azimuth product grid with
    2 n_theta azimuths and weights of total mass one.
    """
    n_phi = 2 * n_theta
    z, wz = special.roots_legendre(n_theta)
    phi = 2.0 * math.pi * (np.arange(n_phi) + 0.5) / n_phi
    r = np.sqrt(1.0 - z * z)
    pts = np.column_stack([np.outer(r, np.cos(phi)).ravel(),
                           np.outer(r, np.sin(phi)).ravel(), np.repeat(z, n_phi)])
    wts = np.repeat(wz / 2.0 / n_phi, n_phi)
    centers = np.array([c["center"] for c in region["caps"]], dtype=float)
    centers /= np.linalg.norm(centers, axis=1, keepdims=True)
    deltas = np.array([c["delta"] for c in region["caps"]])
    inside = (pts @ centers.T >= deltas).any(axis=1)
    if region.get("complement"):
        inside = ~inside
    p, sw = pts[inside], np.sqrt(wts[inside])
    t = np.clip(p @ p.T, -1.0, 1.0)
    kern = sum((2 * l + 1) * special.eval_legendre(l, t) for l in range(k + 1))
    return kern * np.outer(sw, sw), pts.shape[0]


def check_spectral(ref: Reference, op: dict, result: dict) -> tuple[list[str], float]:
    """Returns the messages and the under-report lambda_top - lambda."""
    k, region = op["K"], op["region"]
    where = f"spectral {op['shape']} K={k}"
    mat, n_nodes = sphere_matrix(region, k, op["n_theta"])
    n = mat.shape[0]
    lam = result["lambda_max"]
    errs = []
    if result["n_nodes"] != n_nodes or result["n_active"] != n:
        errs.append(f"{where}: {result['n_active']}/{result['n_nodes']} nodes, "
                    f"want {n}/{n_nodes}")
        return errs, 0.0
    top = float(linalg.eigvalsh(mat, subset_by_index=[n - 1, n - 1])[0]) if n else 0.0
    if not -LAMBDA_OVER <= lam <= 1.0 + LAMBDA_OVER:
        errs.append(f"{where}: lambda={lam!r} outside [0, 1]")
    if lam > top * (1.0 + LAMBDA_OVER) + LAMBDA_OVER:
        errs.append(f"{where}: lambda={lam!r} above the dense top eigenvalue {top!r}")
    if top - lam > LAMBDA_UNDER:
        errs.append(f"{where}: lambda={lam!r} below the dense top eigenvalue "
                    f"{top!r} by more than {LAMBDA_UNDER}")
    if op["shape"] == "single":
        (cap,) = region["caps"]
        bound = ref.a_k("s2", k) * ref.rho_single("s2", cap["delta"], ref.t_kk("s2", k))
        if not lam <= bound < 1.0:
            errs.append(f"{where}: lambda={lam!r}, A_K * rho={bound!r}; want "
                        "lambda <= A_K * rho < 1")
    return errs, top - lam


def check_run(workload: str, ops: list[dict], outputs: list[dict]) -> dict:
    """Check every output that did not fail; returns messages and statistics."""
    ref = Reference()
    errs: list[str] = []
    under = []
    for op, out in zip(ops, outputs):
        if not out["ok"]:
            continue
        if workload == "spectral":
            e, gap = check_spectral(ref, op, out["result"])
            under.append(gap)
        else:
            fn = {"table": check_table, "bound_large_k": check_bound,
                  "density": check_density}[workload]
            e = fn(ref, op, out["stdout"])
        errs += e
    stats = {}
    if under:
        stats["lambda_under_max"] = max(under)
    return {"errors": errs, "stats": stats}
