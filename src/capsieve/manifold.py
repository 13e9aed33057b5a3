"""Catalog of compact two-point homogeneous spaces.

Five families: spheres S^d and the projective spaces over R, C, H and the
octonions.  Each space is reduced to its cosine-distance coordinate
t = cos(gamma * d(x, y)), where all geometry collapses to the Jacobi weight
(1-t)^alpha (1+t)^beta on an interval I (either (-1,1) or, for the real
projective family, (0,1)).  The catalog carries the derived constants:
(alpha, beta), the eigenvalue index set, the mass nu_perp of the angular
factor of the invariant measure, eigenspace dimensions and addition-formula
coefficients, and geodesic-cap measures.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .specfun import (
    JacobiIndex,
    beta_function,
    gauss_jacobi_rule,
    incomplete_beta,
    jacobi_at_one,
    jacobi_eval,
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


@dataclass(frozen=True)
class SpaceParams:
    """One two-point homogeneous space with all derived constants."""

    family: Family
    d: int
    sigma: int
    rho: int
    gamma_tag: str          # "pi/L" or "pi/2L"
    alpha: float
    beta: float
    index_stride: int       # 2 for real projective spaces, else 1
    nu_perp: float
    interval: tuple[float, float]

    @property
    def space_id(self) -> str:
        return f"{_PREFIX_OF[self.family]}{self.d}"

    def index_set(self, k_max: int):
        """Eigenvalue indices k <= k_max belonging to this space."""
        return range(0, k_max + 1, self.index_stride)

    def in_index_set(self, k: int) -> bool:
        return k >= 0 and k % self.index_stride == 0

    @property
    def t_min(self) -> float:
        return self.interval[0]


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
    if family is Family.SPHERE:
        sigma, rho, gamma_tag = 0, d - 1, "pi/L"
    elif family is Family.REAL_PROJECTIVE:
        sigma, rho, gamma_tag = 0, d - 1, "pi/2L"
    elif family is Family.COMPLEX_PROJECTIVE:
        sigma, rho, gamma_tag = d - 2, 1, "pi/L"
    elif family is Family.QUATERNION_PROJECTIVE:
        sigma, rho, gamma_tag = d - 4, 3, "pi/L"
    else:
        sigma, rho, gamma_tag = 8, 7, "pi/L"

    alpha = (d - 2) / 2.0
    beta = (rho - 1) / 2.0
    if family is Family.REAL_PROJECTIVE:
        nu_perp = 4.0 ** -alpha / beta_function(alpha + 1.0, alpha + 1.0)
        stride, interval = 2, (0.0, 1.0)
    else:
        nu_perp = 2.0 ** -(alpha + beta + 1.0) / beta_function(alpha + 1.0, beta + 1.0)
        stride, interval = 1, (-1.0, 1.0)
    return SpaceParams(family=family, d=d, sigma=sigma, rho=rho,
                       gamma_tag=gamma_tag, alpha=alpha, beta=beta,
                       index_stride=stride, nu_perp=nu_perp, interval=interval)


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
        raise ValueError(f"k={k} is not in the index set of {space.space_id} "
                         f"(stride {space.index_stride})")
    alpha, beta = space.alpha, space.beta
    ab1 = alpha + beta + 1.0
    lambda_k = -k * (k + ab1)
    if k == 0:
        return EigenspaceInfo(k=0, lambda_k=0.0, d_k=1, d_k_raw=1.0, D_k=1.0,
                              integrality_flag=False)
    big_d = (2 * k + ab1) * math.exp(
        log_gamma(k + ab1) + log_gamma(beta + 1.0)
        - log_gamma(k + beta + 1.0) - log_gamma(ab1 + 1.0))
    d_raw = big_d * jacobi_at_one(JacobiIndex(alpha, beta, k))
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
            * incomplete_beta((1.0 - delta) / 2.0, alpha + 1.0, beta + 1.0))


def zonal_coefficient(space: SpaceParams, k_max: int, g: Callable[[np.ndarray], np.ndarray],
                      k: int, support: float | None = None) -> float:
    """Coefficient of a zonal function on the unit zonal basis element at index k.

    ``g`` is the profile on the cosine-distance interval; ``support`` marks a
    cap profile supported on [support, 1], in which case the quadrature is a
    tail rule mapped onto that interval.  Node count is 2 k_max + 64.
    """
    if not space.in_index_set(k):
        raise ValueError(f"k={k} not in index set of {space.space_id}")
    alpha, beta = space.alpha, space.beta
    m = 2 * k_max + 64
    pk1 = jacobi_at_one(JacobiIndex(alpha, beta, k))
    if support is not None:
        rule = tail_quadrature(alpha, beta, support, m)
        vals = g(rule.nodes) * jacobi_eval(JacobiIndex(alpha, beta, k), rule.nodes) / pk1
        integral = float(np.dot(rule.weights, vals))
    else:
        base = gauss_jacobi_rule(alpha, beta, m)
        if space.family is Family.REAL_PROJECTIVE:
            # profile lives on (0,1); extend evenly and halve (even k only)
            vals = g(np.abs(base.nodes)) \
                * jacobi_eval(JacobiIndex(alpha, beta, k), base.nodes) / pk1
            integral = 0.5 * float(np.dot(base.weights, vals))
        else:
            vals = g(base.nodes) * jacobi_eval(JacobiIndex(alpha, beta, k), base.nodes) / pk1
            integral = float(np.dot(base.weights, vals))
    info = eigenspace_info(space, k)
    return math.sqrt(info.d_k_raw) * space.nu_perp * integral
