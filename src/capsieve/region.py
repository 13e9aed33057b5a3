"""Region geometry on the model spaces S^d and P^d(R).

Regions are boolean combinations (union, optional complement) of geodesic
caps.  Membership, cap-restricted sampling, Monte Carlo intersection
fractions, and the maximum Nyquist density estimator live here.

Points are unit vectors in R^(d+1).  On the real projective spaces a point
and its antipode represent the same element and the cosine distance is
|<x, y>|, making every membership test antipodally symmetric.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import _backend
from .manifold import Family, SpaceParams, space_from_id
from .sieve import _mix64, _tangent_basis, candidate_centers, nyquist_delta

__all__ = [
    "RegionSpec",
    "DensityEstimate",
    "cap_contains",
    "cos_distance",
    "sample_cap",
    "sample_space",
    "cap_fraction",
    "max_nyquist_density",
]

GRID_SIZE = 4096
REFINE_ITERS = 20


def _as_unit(vec) -> np.ndarray:
    v = np.asarray(vec, dtype=np.float64).ravel()
    nrm = np.linalg.norm(v)
    if nrm == 0.0:
        raise ValueError("zero vector cannot be normalized")
    return v / nrm


def cos_distance(space: SpaceParams, x: np.ndarray, center: np.ndarray) -> np.ndarray:
    """Cosine-distance coordinate of points x relative to a center."""
    dots = np.clip(np.atleast_2d(x) @ np.asarray(center), -1.0, 1.0)
    if space.family is Family.REAL_PROJECTIVE:
        dots = np.abs(dots)
    return dots


def cap_contains(space: SpaceParams, center, delta: float, x) -> np.ndarray | bool:
    """Whether x lies in the cap of parameter delta around center (boundary included)."""
    c = _as_unit(center)
    pts = np.atleast_2d(np.asarray(x, dtype=np.float64))
    inside = cos_distance(space, pts, c) >= delta
    if np.ndim(x) == 1:
        return bool(inside[0])
    return inside


@dataclass(frozen=True)
class RegionSpec:
    """Union of caps, optionally complemented, on S^d or P^d(R)."""

    space: SpaceParams
    caps: tuple[tuple[np.ndarray, float], ...]
    complement: bool = False

    def __post_init__(self):
        if self.space.family not in (Family.SPHERE, Family.REAL_PROJECTIVE):
            raise ValueError("regions are supported on S^d and P^d(R) only")
        fixed = []
        for center, delta in self.caps:
            c = _as_unit(center)
            if c.shape[0] != self.space.d + 1:
                raise ValueError(f"cap centers must sit in R^{self.space.d + 1}")
            if not (self.space.t_min <= delta < 1.0):
                raise ValueError(f"cap delta {delta} outside "
                                 f"[{self.space.t_min}, 1) for {self.space.space_id}")
            fixed.append((c, float(delta)))
        object.__setattr__(self, "caps", tuple(fixed))

    def contains(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
        if not self.caps:
            inside = np.zeros(pts.shape[0], dtype=bool)
        else:
            centers = np.array([c for c, _ in self.caps])
            deltas = np.array([d for _, d in self.caps])
            dots = np.clip(pts @ centers.T, -1.0, 1.0)
            if self.space.family is Family.REAL_PROJECTIVE:
                dots = np.abs(dots)
            inside = (dots >= deltas).any(axis=1)
        return ~inside if self.complement else inside

    def cap_centers(self) -> np.ndarray:
        if not self.caps:
            return np.empty((0, self.space.d + 1))
        return np.array([c for c, _ in self.caps])

    # -- JSON region file format -------------------------------------------

    @classmethod
    def from_dict(cls, payload: dict) -> "RegionSpec":
        space = space_from_id(payload["space"])
        caps = []
        for i, cap in enumerate(payload.get("caps", [])):
            for key in ("center", "delta"):
                if not isinstance(cap, dict) or key not in cap:
                    raise ValueError(f"cap {i} has no '{key}' key")
            caps.append((np.asarray(cap["center"], dtype=np.float64),
                         float(cap["delta"])))
        return cls(space=space, caps=tuple(caps),
                   complement=bool(payload.get("complement", False)))

    @classmethod
    def from_json(cls, path: str) -> "RegionSpec":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))

    def to_dict(self) -> dict:
        return {
            "space": self.space.space_id,
            "complement": self.complement,
            "caps": [{"center": list(map(float, c)), "delta": d} for c, d in self.caps],
        }


@dataclass(frozen=True)
class DensityEstimate:
    rho: float
    argmax_center: np.ndarray
    std_error: float
    n_samples: int
    n_centers: int
    seed: int

    def to_dict(self) -> dict:
        return {
            "rho": self.rho,
            "argmax_center": list(map(float, self.argmax_center)),
            "std_error": self.std_error,
            "n_samples": self.n_samples,
            "n_centers": self.n_centers,
            "seed": self.seed,
        }


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------


def _complete_directions(center: np.ndarray, g: np.ndarray) -> np.ndarray:
    g = g - np.outer(g @ center, center)
    nrm = np.linalg.norm(g, axis=1)
    nrm = np.maximum(nrm, 1e-300)
    return g / nrm[:, None]


def _points_from_t(space: SpaceParams, center: np.ndarray, t: np.ndarray,
                   dirs: np.ndarray, signs: np.ndarray | None) -> np.ndarray:
    if space.family is Family.REAL_PROJECTIVE:
        s = t * signs
    else:
        s = t
    r = np.sqrt(np.maximum(0.0, 1.0 - s * s))
    return s[:, None] * center + r[:, None] * dirs


def sample_cap(space: SpaceParams, center, delta: float, n: int, seed: int) -> np.ndarray:
    """n points distributed as the invariant measure restricted to a cap.

    The cosine-distance coordinate is drawn by inverting the incomplete-beta
    CDF of the Jacobi weight on [delta, 1] (bisection, bracket 1e-12); the
    angular part is uniform on the orthogonal directions.  Fully
    deterministic given the seed.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not (space.t_min <= delta < 1.0):
        raise ValueError(f"delta outside [{space.t_min}, 1)")
    c = _as_unit(center)
    rng = np.random.default_rng(seed & 0xFFFFFFFFFFFFFFFF)
    u = rng.random(n)
    g = rng.standard_normal((n, space.d + 1))
    signs = None
    if space.family is Family.REAL_PROJECTIVE:
        signs = np.where(rng.random(n) < 0.5, -1.0, 1.0)
    x = _backend.invert_beta_tail_cdf(space.alpha + 1.0, space.beta + 1.0,
                                      (1.0 - delta) / 2.0, u)
    t = 1.0 - 2.0 * x
    dirs = _complete_directions(c, g)
    return _points_from_t(space, c, t, dirs, signs)


def sample_space(space: SpaceParams, n: int, seed: int) -> np.ndarray:
    """n points from the invariant measure of the whole space."""
    rng = np.random.default_rng(seed & 0xFFFFFFFFFFFFFFFF)
    g = rng.standard_normal((n, space.d + 1))
    return g / np.linalg.norm(g, axis=1, keepdims=True)


def cap_fraction(region: RegionSpec, center, delta: float, n: int,
                 seed: int) -> tuple[float, float]:
    """Monte Carlo estimate of |Omega intersect cap| / |cap| with its std error."""
    pts = sample_cap(region.space, center, delta, n, seed)
    f = float(np.count_nonzero(region.contains(pts))) / n
    return f, math.sqrt(f * (1.0 - f) / n)


# ---------------------------------------------------------------------------
# Maximum Nyquist density
# ---------------------------------------------------------------------------


def _fractions_for_centers(region: RegionSpec, centers: np.ndarray, delta: float,
                           n: int, seed: int, stream_base: int) -> np.ndarray:
    """Fractions for many centers; per-center RNG streams, chunked evaluation."""
    space = region.space
    dim = space.d + 1
    chunk = max(1, min(128, 4_000_000 // max(n, 1)))
    a, b = space.alpha + 1.0, space.beta + 1.0
    x_max = (1.0 - delta) / 2.0
    out = np.empty(centers.shape[0])
    for start in range(0, centers.shape[0], chunk):
        stop = min(start + chunk, centers.shape[0])
        m = stop - start
        u = np.empty((m, n))
        g = np.empty((m, n, dim))
        signs = np.empty((m, n)) if space.family is Family.REAL_PROJECTIVE else None
        for i in range(m):
            rng = np.random.default_rng(_mix64(seed, stream_base + start + i))
            u[i] = rng.random(n)
            g[i] = rng.standard_normal((n, dim))
            if signs is not None:
                signs[i] = np.where(rng.random(n) < 0.5, -1.0, 1.0)
        x = _backend.invert_beta_tail_cdf(a, b, x_max, u.ravel()).reshape(m, n)
        t = 1.0 - 2.0 * x
        for i in range(m):
            c = centers[start + i]
            dirs = _complete_directions(c, g[i])
            pts = _points_from_t(space, c, t[i],
                                 dirs, None if signs is None else signs[i])
            out[start + i] = np.count_nonzero(region.contains(pts)) / n
    return out


def max_nyquist_density(region: RegionSpec, K: int, n_per_center: int,
                        seed: int, grid_size: int = GRID_SIZE) -> DensityEstimate:
    """Estimate of the maximum Nyquist density rho(Omega, K).

    The cap parameter is the largest zero of the space's degree-K Jacobi
    polynomial.  Candidate centers are the region's cap centers, their
    pairwise midpoints, and a global grid; the best candidate is refined by
    spherical coordinate descent with a shrinking step.  RNG streams are
    derived per candidate, so evaluation order cannot change the result.
    No confidence margin is added to the returned rho.
    """
    space = region.space
    if K < 1 or not space.in_index_set(K):
        raise ValueError(f"K must be >= 1 and in the index set of {space.space_id}")
    if n_per_center < 1:
        raise ValueError(f"n_per_center must be >= 1, got {n_per_center}")
    delta = nyquist_delta(space, K)
    centers = candidate_centers(space, region.cap_centers(), space.d + 1,
                                grid_size=grid_size, seed=seed)
    fracs = _fractions_for_centers(region, centers, delta, n_per_center, seed,
                                   stream_base=0)
    best_idx = int(np.argmax(fracs))
    best_c = centers[best_idx]
    best_f = float(fracs[best_idx])

    stream = centers.shape[0]
    step0 = 0.5 * math.acos(max(-1.0, min(1.0, delta)))
    for it in range(REFINE_ITERS):
        step = step0 * (0.75 ** it)
        cs, sn = math.cos(step), math.sin(step)
        basis = _tangent_basis(best_c)
        trials = np.vstack([cs * best_c + sn * v for v in basis]
                           + [cs * best_c - sn * v for v in basis])
        vals = _fractions_for_centers(region, trials, delta, n_per_center, seed,
                                      stream_base=stream)
        stream += trials.shape[0]
        arg = int(np.argmax(vals))
        if vals[arg] > best_f:
            best_f = float(vals[arg])
            best_c = trials[arg]
    se = math.sqrt(best_f * (1.0 - best_f) / n_per_center)
    return DensityEstimate(rho=best_f, argmax_center=best_c, std_error=se,
                           n_samples=n_per_center, n_centers=int(centers.shape[0]),
                           seed=int(seed))
