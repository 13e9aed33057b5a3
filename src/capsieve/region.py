"""Cap geometry on the model spaces S^d and P^d(R).

Regions are boolean combinations (union, optional complement) of geodesic
caps.  Membership, the cap sample around e_0, Monte Carlo intersection
fractions, and the two suprema over cap centres live here.  The maximum
Nyquist density rho of a region is searched (candidate centres, then
spherical coordinate descent) and every centre is scored on one cap
sample drawn around e_0.  A centre whose cap lies inside a region cap
or misses every one is settled by the triangle inequality; the rest are
counted: the reflection that takes e_0 to the centre moves the region's
few cap centres into the centre's frame, and the sample stays where it
is.  The largest cap mass of a finitely supported measure on S^2
or P^2(R) is exact: a sweep over the circle of centres that puts each atom
on the cap boundary.

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
from .sieve import nyquist_delta, t2_constant

__all__ = [
    "RegionSpec",
    "DensityEstimate",
    "MeasureSpec",
    "cos_distance",
    "candidate_centers",
    "max_nyquist_density",
    "measure_bound",
]

GRID_SIZE = 4096
REFINE_ITERS = 20
_SEED_MASK = 0xFFFFFFFFFFFFFFFF
_MAX_SAMPLE_ENTRIES = 1 << 24  # n (d+1) of one cap sample; about 100 B per point on S^2
_CHUNK_POINTS = 1 << 13  # sample points times centres per cap product (one centre at least)
_SETTLE_SLACK = 1e-6  # rad; the rounding of acos near 1 is about 1.5e-8


def _as_unit(vec) -> np.ndarray:
    v = np.asarray(vec, dtype=np.float64).ravel()
    nrm = np.linalg.norm(v)
    if not 0.0 < nrm < math.inf:
        raise ValueError("cap centers must be finite and nonzero")
    return v / nrm


def cos_distance(space: SpaceParams, x: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Cosine-distance coordinates of points x relative to one center or to many.

    A single center (shape (d+1,)) gives shape (n,); centers of shape
    (m, d+1) give shape (n, m).
    """
    dots = np.clip(np.atleast_2d(x) @ np.asarray(centers).T, -1.0, 1.0)
    if space.family is Family.REAL_PROJECTIVE:
        dots = np.abs(dots)
    return dots


def _fibonacci_sphere(n: int) -> np.ndarray:
    i = np.arange(n, dtype=np.float64)
    z = 1.0 - (2.0 * i + 1.0) / n
    phi = i * math.pi * (3.0 - math.sqrt(5.0))
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    return np.column_stack([r * np.cos(phi), r * np.sin(phi), z])


_MAX_MIDPOINT_ANCHORS = 64


def candidate_centers(space: SpaceParams, anchors: np.ndarray,
                      grid_size: int = GRID_SIZE, seed: int = 0) -> np.ndarray:
    """Anchor points, their pairwise spherical midpoints, and a global grid.

    On S^2 the grid is a Fibonacci spiral; in other dimensions it is a
    seeded uniform point set (deterministic given the seed).  Midpoints are
    enumerated for the first 64 anchors only, so a region file with many
    caps keeps the candidate set small.
    """
    cands = [np.atleast_2d(anchors)] if anchors.size else []
    n_anchor = 0 if not cands else cands[0].shape[0]
    mids = []
    for i in range(min(n_anchor, _MAX_MIDPOINT_ANCHORS)):
        for j in range(i + 1, min(n_anchor, _MAX_MIDPOINT_ANCHORS)):
            a, b = cands[0][i], cands[0][j]
            if space.family is Family.REAL_PROJECTIVE and np.dot(a, b) < 0.0:
                b = -b
            m = a + b
            nrm = np.linalg.norm(m)
            if nrm > 1e-9:
                mids.append(m / nrm)
    if mids:
        cands.append(np.array(mids))
    if space.d == 2:
        cands.append(_fibonacci_sphere(grid_size))
    else:
        rng = np.random.default_rng([seed & _SEED_MASK, 0x6D5A1])
        g = rng.standard_normal((grid_size, space.d + 1))
        cands.append(g / np.linalg.norm(g, axis=1, keepdims=True))
    return np.vstack(cands)


def _best_center(score, candidates: np.ndarray, delta: float) -> tuple[np.ndarray, float]:
    """Largest score over cap centers, searched from a candidate set.

    The best candidate (the first on ties) is refined by spherical coordinate
    descent: each of REFINE_ITERS iterations tries a step of
    acos(delta)/2 * 0.75^it both ways along every tangent axis (e_1 .. e_d
    reflected by ``_pole_to``) and keeps a strict improvement.  The descent
    stops at a score of 1, which nothing can beat.  Returns the best center
    and its score.
    """
    vals = score(candidates)
    i = int(np.argmax(vals))
    center, best = candidates[i], float(vals[i])
    step0 = 0.5 * math.acos(max(-1.0, min(1.0, delta)))
    for it in range(REFINE_ITERS):
        if best >= 1.0:
            break
        step = step0 * (0.75 ** it)
        cs, sn = math.cos(step), math.sin(step)
        axes = _pole_to(center[None], np.eye(center.shape[0]))[0, 1:]
        trials = np.vstack([cs * center + sn * axes, cs * center - sn * axes])
        tvals = score(trials)
        j = int(np.argmax(tvals))
        if tvals[j] > best:
            center, best = trials[j], float(tvals[j])
    return center, best


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
        cos = cos_distance(self.space, pts, self.cap_centers())  # (n, caps)
        return self._membership(cos.T, (pts.shape[0],))

    def _membership(self, cosines, shape: tuple[int, ...]) -> np.ndarray:
        """Membership from cosine distances: in some cap (cos_i >= delta_i), then complemented.

        ``cosines`` yields, cap by cap, an array of the given shape holding
        the cosine distances to that cap's centre; the complement is taken
        only if the region is a complement.
        """
        inside = np.zeros(shape, dtype=bool)
        for cos, (_, delta) in zip(cosines, self.caps):
            inside |= cos >= delta
        return ~inside if self.complement else inside

    def cap_centers(self) -> np.ndarray:
        if not self.caps:
            return np.empty((0, self.space.d + 1))
        return np.array([c for c, _ in self.caps])

    # -- JSON region file format -------------------------------------------

    @classmethod
    def from_dict(cls, payload: dict) -> "RegionSpec":
        if not isinstance(payload, dict) or not isinstance(payload.get("space"), str):
            raise ValueError("a region must be a JSON object with a 'space' key naming a space")
        if not isinstance(payload.get("caps", []), list):
            raise ValueError("the region's 'caps' must be a list")
        space = space_from_id(payload["space"])
        caps = []
        for i, cap in enumerate(payload.get("caps", [])):
            fields = []
            for key, convert in (("center", lambda v: np.asarray(v, dtype=np.float64)),
                                 ("delta", float)):
                if not isinstance(cap, dict) or key not in cap:
                    raise ValueError(f"cap {i} has no '{key}' key")
                try:
                    fields.append(convert(cap[key]))
                except (TypeError, ValueError):
                    raise ValueError(f"cap {i} has a non-numeric '{key}'") from None
            caps.append(tuple(fields))
        complement = payload.get("complement", False)
        if not isinstance(complement, bool):
            raise ValueError("the region's 'complement' must be true or false")
        return cls(space=space, caps=tuple(caps), complement=complement)

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


def _pole_sample(space: SpaceParams, delta: float, n: int, seed: int) -> np.ndarray:
    """n points of the invariant measure restricted to the cap around e_0.

    The Jacobi variable x is drawn on [space.to_x(delta), 1] by inverting the
    incomplete-beta CDF of (1 - x)/2 (bisection, bracket 1e-12), and t = space.to_t(x); the
    remaining coordinates are a uniform direction scaled to sqrt(1 - t^2).
    On P^d(R) the sign of t is a fair coin, so both sheets of the cap are
    covered.  n (d+1) may not exceed 2^24, which caps the memory of a call.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n * (space.d + 1) > _MAX_SAMPLE_ENTRIES:
        raise ValueError(f"{n} samples on {space.space_id} exceed the limit of 2^24 "
                         f"coordinates per cap sample; the largest accepted n is "
                         f"{_MAX_SAMPLE_ENTRIES // (space.d + 1)}")
    if not (space.t_min <= delta < 1.0):
        raise ValueError(f"delta outside [{space.t_min}, 1)")
    rng = np.random.default_rng(seed & _SEED_MASK)
    u = rng.random(n)
    g = rng.standard_normal((n, space.d))
    gap = _backend.invert_beta_tail_cdf(space.alpha + 1.0, space.beta + 1.0, space.gap(delta), u)
    t = space.to_t(1.0 - 2.0 * gap, up=None)
    if space.family is Family.REAL_PROJECTIVE:
        t *= np.where(rng.random(n) < 0.5, -1.0, 1.0)
    r = np.sqrt(np.maximum(0.0, 1.0 - t * t)) / np.linalg.norm(g, axis=1)
    return np.column_stack([t, r[:, None] * g])


def _pole_to(centers: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Points moved from around e_0 to around each center, shape (m, n, d+1).

    The isometry is Q_c = -s (I - 2 v v^T / |v|^2) with v = e_0 + s c and
    s = sign(c_0) (+1 at 0): a symmetric orthogonal map with Q_c e_0 = c.
    |v|^2 = 2 (1 + |c_0|) never cancels, and |<Q_c p, c>| = |<p, e_0>|.
    Q_c is its own inverse, so the same call moves points from around c
    into the frame where c sits at e_0: ``_counted_fractions`` moves the region's
    cap centres that way, since <Q_c p, c_i> = <p, Q_c c_i>.
    """
    s = np.where(centers[:, 0] < 0.0, -1.0, 1.0)
    v = s[:, None] * centers
    v[:, 0] += 1.0
    coef = (2.0 / (v * v).sum(axis=1))[:, None] * (v @ pts.T)  # (m, n)
    return -s[:, None, None] * (pts[None] - coef[:, :, None] * v[:, None, :])


def _fractions(region: RegionSpec, centers: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Share of the pole sample pts inside the region once moved to each center.

    Most centres are settled by cap geometry alone.  Q_c moves the sample
    onto c and keeps its radius r = acos(min cos distance to e_0), so by the
    triangle inequality a centre within theta_i - r of some cap's centre
    (theta_i = acos(delta_i), distances projective on P^d(R)) has every
    point inside that cap, and one farther than theta_i + r from every cap's
    centre has none inside.  Both tests carry a slack of _SETTLE_SLACK
    radians, far above the rounding of acos and of the counting path, so
    the settled share is 1 or 0 exactly as counting would give it (0 or 1
    on a complement).  Only the other centres are counted, by
    ``_counted_fractions``.
    """
    space = region.space
    r = math.acos(float(cos_distance(space, pts, np.eye(pts.shape[1])[0]).min()))
    theta = np.arccos(np.array([delta for _, delta in region.caps]))
    dist = np.arccos(cos_distance(space, centers, region.cap_centers()))  # (centres, caps)
    inside = (dist < theta - r - _SETTLE_SLACK).any(axis=1)
    undecided = ~inside & (dist <= theta + r + _SETTLE_SLACK).any(axis=1)
    out = np.where(inside != region.complement, 1.0, 0.0)
    out[undecided] = _counted_fractions(region, centers[undecided], pts)
    return out


def _counted_fractions(region: RegionSpec, centers: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Share of the pole sample pts inside the region once moved to each center, counted.

    The sample is not moved: the region's cap centres are moved into each
    centre's frame instead (Q_c is symmetric and orthogonal), and each cap
    costs one (n, centres) product of cosine distances per chunk.
    """
    n = pts.shape[0]
    step = max(1, _CHUNK_POINTS // n)
    caps = region.cap_centers()
    out = np.empty(centers.shape[0])
    for start in range(0, centers.shape[0], step):
        chunk = centers[start:start + step]
        moved = _pole_to(chunk, caps).transpose(1, 0, 2)  # (caps, centres, d+1)
        inside = region._membership((cos_distance(region.space, pts, m) for m in moved),
                                    (n, chunk.shape[0]))
        out[start:start + step] = np.count_nonzero(inside, axis=0) / n
    return out


# ---------------------------------------------------------------------------
# Maximum Nyquist density
# ---------------------------------------------------------------------------


def max_nyquist_density(region: RegionSpec, K: int, n_per_center: int,
                        seed: int, grid_size: int = GRID_SIZE) -> DensityEstimate:
    """Monte Carlo estimate of the maximum Nyquist density rho(Omega, K).

    The cap parameter is the largest zero of the space's degree-K Jacobi
    polynomial.  Candidate centers are the region's cap centers, their
    pairwise midpoints, and a global grid; the best candidate is refined by
    spherical coordinate descent with a shrinking step, which stops at a
    score of 1.  One cap sample of n_per_center points is drawn around e_0
    per call and every center is scored on the same points (common random
    numbers).  Centres that cap
    geometry decides score exactly 0 or 1 without counting; for the others
    the reflection that takes e_0 to the center moves the region's cap
    centres into its frame, which is the same as moving the sample onto the
    center (``_fractions``).  Either way a score depends on its centre
    only, so the result does not depend on evaluation order.  n_per_center
    (d+1) may not exceed 2^24.  The returned rho is an estimate, not a
    bound: no confidence margin is added.
    """
    space = region.space
    if K < 1 or not space.in_index_set(K):
        raise ValueError(f"K must be >= 1 and in the index set of {space.space_id}")
    if n_per_center < 1:
        raise ValueError(f"n_per_center must be >= 1, got {n_per_center}")
    delta = nyquist_delta(space, K)
    pts = _pole_sample(space, delta, n_per_center, seed)
    centers = candidate_centers(space, region.cap_centers(), grid_size=grid_size, seed=seed)
    best_c, best_f = _best_center(lambda cands: _fractions(region, cands, pts),
                                  centers, delta)
    se = math.sqrt(best_f * (1.0 - best_f) / n_per_center)
    return DensityEstimate(rho=best_f, argmax_center=best_c, std_error=se,
                           n_samples=n_per_center, n_centers=int(centers.shape[0]),
                           seed=int(seed))


# ---------------------------------------------------------------------------
# Bounds for finitely supported measures
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MeasureSpec:
    """Finitely supported positive measure on a model space (S^d or P^d(R))."""

    points: np.ndarray   # (n, d+1) unit vectors
    weights: np.ndarray  # (n,) positive

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=np.float64))
        w = np.asarray(self.weights, dtype=np.float64).ravel()
        if pts.shape[0] != w.shape[0]:
            raise ValueError("points and weights must have matching lengths")
        if not np.all((w > 0.0) & (w < math.inf)):
            raise ValueError("weights must be finite and strictly positive")
        norms = np.linalg.norm(pts, axis=1)
        if not np.all(np.abs(norms - 1.0) <= 1e-9):  # NaN fails here too
            raise ValueError("points must be finite unit vectors")
        object.__setattr__(self, "points", pts / norms[:, None])
        object.__setattr__(self, "weights", w)


def measure_bound(space: SpaceParams, K: int, delta: float, mu: MeasureSpec) -> float:
    """T2(K, delta) times the largest mu-mass of any cap of parameter delta.

    Exact on S^2 and P^2(R).  Some optimal cap has an atom on its boundary
    (Chazelle & Lee 1986), so for every atom x the centres
    c(phi) = delta x + s (cos phi e1 + sin phi e2), s = sqrt(1 - delta^2),
    are swept: atom y lies in the cap at c(phi) when amp cos(phi - psi) >= rhs,
    one closed arc of the circle, and the deepest point of those arcs is the
    best cap through x.  rhs carries a slack of 1e-12, so atoms on a boundary
    are counted and rounding errs upward.  On P^2(R) each atom also enters
    as its antipode; since delta >= t_KK > 0 the two never share a cap.
    O(n^2 log n) time and O(n) memory.
    """
    if space.d != 2 or space.family not in (Family.SPHERE, Family.REAL_PROJECTIVE):
        raise ValueError("measure bounds are exact on S^2 and P^2(R) only")
    if mu.points.shape[1] != space.d + 1:
        raise ValueError(f"points must sit in R^{space.d + 1} for {space.space_id}")
    t2 = t2_constant(space, K, delta)
    pts, wts = mu.points, mu.weights
    if space.family is Family.REAL_PROJECTIVE:
        pts, wts = np.vstack([pts, -pts]), np.concatenate([wts, wts])
    s = math.sqrt(max(0.0, 1.0 - delta * delta))
    best = 0.0
    for x in mu.points:
        p = pts @ _pole_to(x[None], np.eye(3))[0].T  # rows of the frame (x, e1, e2)
        amp = s * np.hypot(p[:, 1], p[:, 2])
        rhs = delta * (1.0 - p[:, 0]) - 1e-12
        always = rhs <= -amp
        arc = ~always & (rhs <= amp)
        half = np.arccos(np.clip(rhs[arc] / amp[arc], -1.0, 1.0))
        start = (np.arctan2(p[arc, 2], p[arc, 1]) - half) % (2.0 * math.pi)
        end = (start + 2.0 * half) % (2.0 * math.pi)
        closing = np.repeat([0, 1], start.size)
        order = np.lexsort((closing, np.concatenate([start, end])))  # openings first at ties
        steps = np.concatenate([wts[arc], -wts[arc]])[order]
        # arcs that wrap past 2 pi are open at angle 0
        depth = wts[arc][end < start].sum() + np.cumsum(steps).max(initial=0.0)
        best = max(best, wts[always].sum() + depth)
    return t2 * best
