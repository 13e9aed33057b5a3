"""Seeded inputs of the four workloads.

Every function here turns (seed, seconds) into a list of operations.  An
operation is a dict: ``{"kind": "cli", "argv": [...]}`` for a call of
``capsieve.cli.main`` or ``{"kind": "spectral", ...}`` for a call of
``capsieve.concentration_eigenvalue``, plus the facts the checkers need.

The amount of work in a run depends only on ``seconds`` (through the
number of rounds), never on measured speed, so a run of a faster program
does the same work in less time and every count repeats exactly.  Within a
run no operation repeats an identical input.  Only numpy is used here: the
inputs are placed without asking the program under test for any value.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

# Seconds one round takes at the commit the benchmark was written against
# (2-vCPU virtual machine, one BLAS thread); they size a run, they are not
# measured.
ROUND_SECONDS = {"table": 2.1, "bound_large_k": 18.0, "density": 6.2,
                 "spectral": 1.05}


def rounds_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds / ROUND_SECONDS[workload]))


def _rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng([int(seed) & 0xFFFFFFFF, *stream])


def _unit(rng: np.random.Generator, dim: int) -> list[float]:
    v = rng.standard_normal(dim)
    return [float(x) for x in v / np.linalg.norm(v)]


def _largest_legendre_zero(k: int) -> float:
    return float(np.polynomial.legendre.leggauss(k)[0].max())


def _largest_zero(space: str, k: int) -> float:
    """Largest zero of the space's degree-k Jacobi polynomial, for placing caps.

    s2 and rp2 carry Legendre polynomials; s3 carries (1/2, 1/2) Jacobi
    polynomials, multiples of Chebyshev U_k with largest zero cos(pi/(k+1)).
    """
    if space in ("s2", "rp2"):
        return _largest_legendre_zero(k)
    if space == "s3":
        return math.cos(math.pi / (k + 1))
    raise ValueError(space)


# ---------------------------------------------------------------------------
# table: many small problems
# ---------------------------------------------------------------------------

# (space, partner, K-max at offset 0, stride).  Round r gives a pair the
# offsets +o and -o, where the |o| of a run are 1..rounds in a seeded order
# with seeded signs.  So the rows of a run, and every call count, do not
# depend on the seed, and the multiset of K-max per pair barely does.  The
# rp2 pair sits at 90 (45 rows) so that every table call costs about the
# same and op_p50_ms falls inside one cluster of op times.
TABLE_PAIRS = (("s2", "cp4", 60, 1), ("hp8", "cay16", 60, 1),
               ("rp2", "rp2", 90, 2))


def table_ops(seed: int, seconds: float, workdir: str) -> list[dict]:
    n = rounds_for("table", seconds)
    offsets = []
    for p in range(len(TABLE_PAIRS)):
        rng = _rng(seed, 1, p)
        offsets.append(rng.permutation(np.arange(1, n + 1)) * rng.choice((-1, 1), size=n))
    ops = []
    for r in range(n):
        for p, (a, b, k0, stride) in enumerate(TABLE_PAIRS):
            o = int(offsets[p][r]) * stride
            for space, k in ((a, k0 + o), (b, k0 - o)):
                ops.append({"kind": "cli", "round": r, "space": space, "K_max": k,
                            "argv": ["table", space, "--K-max", str(k)]})
    return ops


# ---------------------------------------------------------------------------
# bound_large_k: a few large problems
# ---------------------------------------------------------------------------

# (space, K level).  Levels stay with their space so that the sorted op
# times, and with them op_p50_ms, do not depend on the seed; a seeded
# assignment moved op_p50_ms by 20% between seeds.
BOUND_CASES = (("s2", 1000), ("rp2", 1100), ("cp4", 1200), ("hp8", 1300),
               ("cay16", 1400))


def bound_large_k_ops(seed: int, seconds: float, workdir: str) -> list[dict]:
    """K = level + 20 r + 2 j, j seeded in -4..4: the m^3 work moves < 2% per op."""
    ops = []
    for r in range(rounds_for("bound_large_k", seconds)):
        jitter = _rng(seed, 2, r).integers(-4, 5, size=len(BOUND_CASES))
        for (space, level), j in zip(BOUND_CASES, jitter):
            k = level + 20 * r + 2 * int(j)
            ops.append({"kind": "cli", "round": r, "space": space, "K": k,
                        "argv": ["bound", space, "--K", str(k)]})
    return ops


# ---------------------------------------------------------------------------
# density: maximum Nyquist density of region files
# ---------------------------------------------------------------------------

DENSITY_SAMPLES = 128


def _inner_delta(space: str, k: int, share: float) -> float:
    """Cap parameter of a cap whose size is a share of the Nyquist cap's.

    On s2 and rp2 the cap measure is linear in 1 - delta, so ``share`` is the
    measure ratio; on s3 it is the ratio of 1 - delta only.
    """
    return 1.0 - share * (1.0 - _largest_zero(space, k))


def _density_round(seed: int, r: int) -> list[tuple[str, int, dict, bool]]:
    rng = _rng(seed, 3, r)
    out = []
    for k in (10, 12):  # single caps on s2, smaller than the Nyquist cap
        out.append(("single", k, {"space": "s2", "caps": [
            {"center": _unit(rng, 3),
             "delta": _inner_delta("s2", k, rng.uniform(0.35, 0.75))}]}, False))
    out.append(("union", 10, {"space": "s2", "caps": [
        {"center": _unit(rng, 3),
         "delta": _inner_delta("s2", 10, rng.uniform(0.3, 0.6))}
        for _ in range(3)]}, True))
    out.append(("complement", 10, {"space": "s2", "complement": True, "caps": [
        {"center": _unit(rng, 3), "delta": float(rng.uniform(0.6, 0.8))}
        for _ in range(2)]}, False))
    out.append(("single", 10, {"space": "rp2", "caps": [
        {"center": _unit(rng, 3),
         "delta": _inner_delta("rp2", 10, rng.uniform(0.35, 0.75))}]}, False))
    out.append(("single", 8, {"space": "s3", "caps": [
        {"center": _unit(rng, 4),
         "delta": _inner_delta("s3", 8, rng.uniform(0.45, 0.7))}]}, False))
    return out


def density_ops(seed: int, seconds: float, workdir: str) -> list[dict]:
    ops = []
    for r in range(rounds_for("density", seconds)):
        for i, (shape, k, region, margin) in enumerate(_density_round(seed, r)):
            path = os.path.join(workdir, f"region-{r}-{i}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(region, fh)
            mc_seed = int(_rng(seed, 4, r, i).integers(1, 2**31))
            argv = ["density", "--region", path, "--K", str(k),
                    "--samples", str(DENSITY_SAMPLES), "--seed", str(mc_seed)]
            if margin:
                argv.append("--margin")
            ops.append({"kind": "cli", "round": r, "shape": shape, "K": k,
                        "region": region, "samples": DENSITY_SAMPLES,
                        "margin": margin, "argv": argv})
    return ops


# ---------------------------------------------------------------------------
# spectral: concentration eigenvalues on S^2
# ---------------------------------------------------------------------------

SPECTRAL_KS = (6, 8)
SMALL_CAPS = 10
SPARSE_CAPS = 2
SPARSE_N_THETA = 48


def _template(key: int, count: int, deltas: tuple[float, float]) -> tuple:
    """Fixed (colatitude, azimuth, delta) caps; the run seed only turns them.

    The product grid is symmetric in azimuth, so a turned region keeps its
    active node count and spectrum almost exactly, and with them the O(n^2)
    work and the power-iteration count; seeded positions anywhere on the
    sphere moved the op time of small-cap regions by 15% between seeds.
    """
    rng = np.random.default_rng([0x5EC7, key])
    return tuple((float(np.arccos(rng.uniform(-1.0, 1.0))),
                  float(rng.uniform(0.0, 2.0 * math.pi)),
                  float(rng.uniform(*deltas))) for _ in range(count))


# unions of many small caps: most of the ops, so they set op_p50_ms
SMALL_CAP_TEMPLATES = tuple(_template(i, SMALL_CAPS, (0.97, 0.99)) for i in range(8))
# complements: the few large active sets, so they set wall_s
COMPLEMENT_TEMPLATE = ((0.3, 0.0, 0.7), (1.6, 2.0, 0.75), (2.5, 4.0, 0.8))


def _polar(theta: float, phi: float) -> list[float]:
    return [math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi),
            math.cos(theta)]


def _turned(template: tuple, turn: float) -> list[dict]:
    return [{"center": _polar(th, ph + turn), "delta": d} for th, ph, d in template]


def spectral_ops(seed: int, seconds: float, workdir: str) -> list[dict]:
    """Per round: 4 sparse caps, 4 small-cap unions at K=6, 8 at K=8, 2 complements.

    Sorted by time these form clusters in that order, so op_p50_ms falls in
    the middle of the K=8 unions rather than on the edge between clusters.
    """
    ops = []
    for r in range(rounds_for("spectral", seconds)):
        for k in SPECTRAL_KS:
            rng = _rng(seed, 5, r, k)
            n_theta = 2 * k + 8
            templates = SMALL_CAP_TEMPLATES if k == 8 else SMALL_CAP_TEMPLATES[:4]
            for template in templates:
                turn = rng.uniform(0.0, 2.0 * math.pi)
                ops.append({"kind": "spectral", "round": r, "shape": "small_caps",
                            "K": k, "n_theta": n_theta, "region": {
                                "space": "s2", "caps": _turned(template, turn)}})
            for _ in range(SPARSE_CAPS):
                # A_K * rho stays below 1 (A_K < 3.72 on S^2)
                caps = [{"center": _unit(rng, 3),
                         "delta": _inner_delta("s2", k, rng.uniform(0.1, 0.2))}]
                ops.append({"kind": "spectral", "round": r, "shape": "single", "K": k,
                            "n_theta": SPARSE_N_THETA,
                            "region": {"space": "s2", "caps": caps}})
            ops.append({"kind": "spectral", "round": r, "shape": "complement", "K": k,
                        "n_theta": n_theta, "region": {
                            "space": "s2", "complement": True,
                            "caps": _turned(COMPLEMENT_TEMPLATE,
                                            rng.uniform(0.0, 2.0 * math.pi))}})
    return ops


OPS = {"table": table_ops, "bound_large_k": bound_large_k_ops,
       "density": density_ops, "spectral": spectral_ops}
