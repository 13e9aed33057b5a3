"""Catalog of compact two-point homogeneous spaces.

Five families: spheres S^d and the projective spaces over R, C, H and the
octonions.  Each space is one Jacobi family: its zonal functions are the
polynomials P_n^(alpha,beta)(x) of the weight (1-x)^alpha (1+x)^beta on
[-1, 1], n = 0, 1, 2, ...  On every family but P^d(R), x is the cosine
distance t = cos(gamma * d(p, q)) and the band index K is the degree n.
P^d(R) is the family (alpha, -1/2) in x = 2t^2 - 1, at n = K/2 (Szego,
Thm 4.1; Koornwinder 1973), while users keep even K and t in [0, 1]; the
one map between the two lives here.  The catalog carries the derived
constants: (alpha, beta), the mass nu_perp of the angular factor of the
invariant measure, eigenspace dimensions and addition-formula
coefficients, and geodesic-cap measures.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .specfun import (
    JacobiIndex,
    beta_function,
    gauss_jacobi_rule,
    incomplete_beta,
    jacobi_at_one,
    jacobi_ratio_rows,
    log_gamma,
    tail_quadrature,
)

__all__ = [
    "Family",
    "SpaceParams",
    "EigenspaceInfo",
    "make_space",
    "space_from_id",
    "eigenspace_info",
    "cap_measure",
    "zonal_coefficient",
]


class Family(enum.Enum):
    SPHERE = "sphere"
    REAL_PROJECTIVE = "real_projective"
    COMPLEX_PROJECTIVE = "complex_projective"
    QUATERNION_PROJECTIVE = "quaternion_projective"
    CAYLEY_PROJECTIVE = "cayley_projective"


_ID_PREFIX = {
    "s": Family.SPHERE,
    "rp": Family.REAL_PROJECTIVE,
    "cp": Family.COMPLEX_PROJECTIVE,
    "hp": Family.QUATERNION_PROJECTIVE,
    "cay": Family.CAYLEY_PROJECTIVE,
}
_PREFIX_OF = {fam: pre for pre, fam in _ID_PREFIX.items()}


def _gap(t: float, x: float) -> int:
    """The sign of 2 t^2 - 1 - x, exactly, for doubles t and x."""
    p, q = t.as_integer_ratio()
    a, b = x.as_integer_ratio()
    return (2 * p * p - q * q) * b - a * q * q


def _extreme(v: float, ok, toward: float) -> float:
    """The double furthest towards ``toward`` at which the monotone ok holds, stepped to from v."""
    while not ok(v):
        v = math.nextafter(v, -toward)
    while ok(w := math.nextafter(v, toward)):
        v = w
    return v


@dataclass(frozen=True)
class SpaceParams:
    """One two-point homogeneous space with all derived constants.

    The methods are the one map between the user's band index K and cosine
    distance t and the Jacobi degree n and variable x; it is the identity
    except on P^d(R), where n = K/2 and x = 2t^2 - 1.
    """

    family: Family
    d: int
    sigma: int
    rho: int
    gamma_tag: str          # "pi/L" or "pi/2L"
    alpha: float
    beta: float
    nu_perp: float

    @property
    def space_id(self) -> str:
        return f"{_PREFIX_OF[self.family]}{self.d}"

    @property
    def _real_projective(self) -> bool:
        return self.family is Family.REAL_PROJECTIVE

    def band(self, n: int) -> int:
        """Band index K of Jacobi degree n."""
        return 2 * n if self._real_projective else n

    def degree(self, K: int) -> int:
        """Jacobi degree n of the largest index-set K' <= K."""
        return K // self.band(1)

    def index_set(self, k_max: int):
        """Eigenvalue indices k <= k_max belonging to this space."""
        return list(range(0, k_max + 1, self.band(1)))

    def in_index_set(self, k: int) -> bool:
        return k >= 0 and self.band(self.degree(k)) == k

    def to_x(self, t: float) -> float:
        """Jacobi variable of cosine distance t: on P^d(R) the largest double <= 2t^2 - 1."""
        if not self._real_projective:
            return t
        return _extreme(2.0 * t * t - 1.0, lambda x: _gap(t, x) >= 0, math.inf)

    def to_t(self, x, up: bool | None = True):
        """Cosine distance of Jacobi variable x.

        On P^d(R) it is sqrt((1 + x)/2), elementwise when ``up`` is None.
        Otherwise x is one double, and t is the smallest double >= 0 with
        2t^2 - 1 >= x exactly, or with ``up`` false the largest with <= x.
        """
        if not self._real_projective:
            return x
        if up is None:
            return np.sqrt(0.5 * (1.0 + x))
        side = 1 if up else -1
        return _extreme(math.sqrt(0.5 * (1.0 + x)),
                        lambda t: t >= 0.0 and side * _gap(t, x) >= 0, -side * math.inf)

    def gap(self, t):
        """(1 - x)/2 at cosine distance t, the incomplete-beta variable of the cap [t, 1].

        On P^d(R) it is 1 - t^2, taken as (1 - t)(1 + t) so nothing cancels.
        """
        return (1.0 - t) * (1.0 + t) if self._real_projective else (1.0 - t) / 2.0

    @property
    def t_min(self) -> float:
        return self.to_t(-1.0)


@dataclass(frozen=True)
class EigenspaceInfo:
    k: int
    lambda_k: float
    d_k: int
    d_k_raw: float
    D_k: float
    integrality_flag: bool


def _admissible(family: Family, d: int) -> str | None:
    if d != int(d):
        return "dimension must be an integer"
    if family is Family.SPHERE and d < 1:
        return "spheres require d >= 1"
    if family is Family.REAL_PROJECTIVE and d < 2:
        return "real projective spaces require d >= 2"
    if family is Family.COMPLEX_PROJECTIVE and (d < 4 or d % 2 != 0):
        return "complex projective spaces require even d >= 4"
    if family is Family.QUATERNION_PROJECTIVE and (d < 8 or d % 4 != 0):
        return "quaternion projective spaces require d in {8, 12, 16, ...}"
    if family is Family.CAYLEY_PROJECTIVE and d != 16:
        return "the Cayley projective plane has d = 16"
    return None


def make_space(family: Family, d: int) -> SpaceParams:
    """Build the parameter record for a space, rejecting inadmissible (family, d)."""
    problem = _admissible(family, d)
    if problem is not None:
        raise ValueError(f"inadmissible ({family.value}, d={d}): {problem}")
    d = int(d)
    sigma, rho, gamma_tag = {
        Family.SPHERE: (0, d - 1, "pi/L"),
        Family.REAL_PROJECTIVE: (0, d - 1, "pi/2L"),
        Family.COMPLEX_PROJECTIVE: (d - 2, 1, "pi/L"),
        Family.QUATERNION_PROJECTIVE: (d - 4, 3, "pi/L"),
        Family.CAYLEY_PROJECTIVE: (8, 7, "pi/L"),
    }[family]
    alpha = (d - 2) / 2.0
    # P^d(R) is the family (alpha, -1/2) in x = 2t^2 - 1
    beta = -0.5 if family is Family.REAL_PROJECTIVE else (rho - 1) / 2.0
    b = beta_function(alpha + 1.0, beta + 1.0)
    if b < sys.float_info.min:  # subnormal from s1020 on, 0 from about s1100
        raise ValueError(f"{_PREFIX_OF[family]}{d} (alpha={alpha:g}): B(alpha+1, beta+1) = {b:g} "
                         "is below the normal double range, so nu_perp cannot be formed")
    return SpaceParams(family=family, d=d, sigma=sigma, rho=rho,
                       gamma_tag=gamma_tag, alpha=alpha, beta=beta,
                       nu_perp=2.0 ** -(alpha + beta + 1.0) / b)


def space_from_id(space_id: str) -> SpaceParams:
    """Parse identifiers of the form s<d>, rp<d>, cp<d>, hp<d>, cay16."""
    sid = space_id.strip().lower()
    for prefix in ("cay", "rp", "cp", "hp", "s"):
        if sid.startswith(prefix):
            tail = sid[len(prefix):]
            if tail.isdigit():
                return make_space(_ID_PREFIX[prefix], int(tail))
    raise ValueError(f"unrecognized space id {space_id!r} "
                     "(expected s<d>, rp<d>, cp<d>, hp<d> or cay16)")


def eigenspace_info(space: SpaceParams, k: int) -> EigenspaceInfo:
    """Eigenvalue, eigenspace dimension and addition-formula coefficient at index k."""
    if not space.in_index_set(k):
        raise ValueError(f"k={k} is not in the index set of {space.space_id}")
    alpha, beta, n = space.alpha, space.beta, space.degree(k)
    ab1 = alpha + beta + 1.0
    lambda_k = -k * (k + space.band(1) * ab1)  # the Jacobi eigenvalue times band(1)^2
    if k == 0:
        return EigenspaceInfo(k=0, lambda_k=0.0, d_k=1, d_k_raw=1.0, D_k=1.0,
                              integrality_flag=False)
    big_d = (2 * n + ab1) * math.exp(
        log_gamma(n + ab1) + log_gamma(beta + 1.0)
        - log_gamma(n + beta + 1.0) - log_gamma(ab1 + 1.0))
    d_raw = big_d * jacobi_at_one(JacobiIndex(alpha, beta, n))
    d_int = int(round(d_raw))
    flag = abs(d_raw - d_int) > 1e-6 * max(1.0, abs(d_raw))
    return EigenspaceInfo(k=k, lambda_k=lambda_k, d_k=d_int, d_k_raw=d_raw,
                          D_k=big_d, integrality_flag=flag)


def cap_measure(space: SpaceParams, delta: float) -> float:
    """Normalized measure of a geodesic cap with cosine-distance parameter delta."""
    lo = space.t_min
    if not (lo <= delta < 1.0):
        raise ValueError(f"delta must lie in [{lo}, 1) for {space.space_id}, got {delta}")
    alpha, beta = space.alpha, space.beta
    return (2.0 ** (alpha + beta + 1.0) * space.nu_perp
            * incomplete_beta(space.gap(delta), alpha + 1.0, beta + 1.0))


def zonal_coefficient(space: SpaceParams, k_max: int, g: Callable[[np.ndarray], np.ndarray],
                      k: int, support: float | None = None) -> float:
    """Coefficient of a zonal function on the unit zonal basis element at index k.

    ``g`` is the profile on the cosine-distance interval; ``support`` marks a
    cap profile supported on [support, 1], in which case the quadrature is a
    tail rule mapped onto that interval.  Node count is 2 k_max + 64.
    """
    if not space.in_index_set(k):
        raise ValueError(f"k={k} not in index set of {space.space_id}")
    alpha, beta, m = space.alpha, space.beta, 2 * k_max + 64
    rule = (gauss_jacobi_rule(alpha, beta, m) if support is None
            else tail_quadrature(alpha, beta, space.to_x(support), m))
    ratio = jacobi_ratio_rows(alpha, beta, [space.degree(k)], rule.nodes[None])[0]
    vals = g(space.to_t(rule.nodes, up=None)) * ratio
    info = eigenspace_info(space, k)
    return math.sqrt(info.d_k_raw) * space.nu_perp * float(np.dot(rule.weights, vals))
