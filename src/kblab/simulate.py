"""Seeded generation of truth trajectories and observation increment paths.

Randomness comes from labeled counter-based streams (numpy Philox keyed by a
64-bit seed and the SHA-256 digest of the stream label), so distinct labels
("x0", "V", "W") are independent and every path regenerates bitwise under the
same seed and substep count. Deterministic dynamics (eps = 0) consume no
system-noise draws at all.

Observation increments dy_k (not cumulative y) are the canonical
representation; the drift part int C x ds is accumulated with the composite
trapezoid rule on the fine substep grid, the noise part is the sum of
R^{1/2} sqrt(h) xi over substeps.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from ._integrators import transition_steps
from .model import ExperimentConfig, LtvModel
from .riccati import psd_sqrt


# steps per block of the in-place Euler-Maruyama noise products
NOISE_BLOCK = 512


def _label_key(label: str) -> int:
    return int.from_bytes(hashlib.sha256(label.encode()).digest()[:8], "little")


def _psd_sqrt_path(mats: np.ndarray) -> np.ndarray:
    """Symmetric PSD square roots along a path (one batched eigh call)."""
    if np.ptp(mats, axis=0).max() == 0.0:
        return np.broadcast_to(psd_sqrt(mats[0]), mats.shape)
    sym = 0.5 * (mats + np.swapaxes(mats, 1, 2))
    w, v = np.linalg.eigh(sym)
    return (v * np.sqrt(np.clip(w, 0.0, None))[:, None, :]) @ np.swapaxes(v, 1, 2)


@dataclass
class RngStream:
    """An independent, reproducible random stream identified by (seed, label)."""

    seed: int
    label: str

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(_label_key(self.label),))
        return np.random.Generator(np.random.Philox(ss))


@dataclass
class ObservationPath:
    """Coarse-grid observation increments plus the generating truth trajectory."""

    grid: np.ndarray            # coarse grid, K+1 nodes
    increments: np.ndarray      # (K, n) observation increments dy_k; (K, n, S) for S seeds
    truth: np.ndarray           # (K+1, m) state at the coarse nodes; (K+1, m, S) for S seeds
    substeps: int
    seed: int | tuple           # one seed, or one per column
    eps: float

    def __post_init__(self):
        if self.increments.shape[0] != self.grid.shape[0] - 1:
            raise ValueError("one increment per coarse step is required")

    @property
    def n_steps(self) -> int:
        return self.increments.shape[0]


def fine_grid(grid: np.ndarray, substeps: int) -> np.ndarray:
    """Subdivide each coarse step into `substeps` equal pieces."""
    if substeps < 1:
        raise ValueError("substeps must be >= 1")
    if substeps == 1:
        return np.asarray(grid, dtype=float)
    lo = grid[:-1]
    h = (grid[1:] - grid[:-1]) / substeps
    offs = np.arange(substeps) * h[:, None]
    fine = (lo[:, None] + offs).reshape(-1)
    return np.append(fine, grid[-1])


def draw_initial_state(cfg: ExperimentConfig, rng: np.random.Generator) -> np.ndarray:
    """Draw x0 = m0 + L xi (+ an atom location with its configured probability).

    L is the symmetric PSD square-root factor of P0, so P0 = 0 degenerates to
    the deterministic m0. The Gaussian draw happens before the atom pick so
    the stream consumption pattern is fixed.
    """
    m = cfg.model.m
    root = psd_sqrt(cfg.P0)
    x = cfg.m0 + root @ rng.standard_normal(m)
    if cfg.atoms:
        u = rng.random()
        acc = 0.0
        pick = cfg.atoms[-1][0]
        for xi, w in cfg.atoms:
            acc += w
            if u < acc:
                pick = xi
                break
        x = x + pick
    return x


def simulate_truth(model: LtvModel, x0, grid, eps: float = 0.0,
                   rng=None) -> np.ndarray:
    """Integrate the signal process on the given grid, for one or many seeds.

    x0 is one initial state (m,) or one seed per column (m, S); the result is
    (K+1, m) or (K+1, m, S) accordingly.
    eps = 0: one RK4 transition per grid step (deterministic, no RNG use).
    eps > 0: Euler-Maruyama, x_{j+1} = x_j + A x_j h + eps F sqrt(h) xi_j,
    with xi drawn from rng, or for seed columns from a sequence of
    generators, one per column.
    """
    grid = np.asarray(grid, dtype=float)
    x0 = np.asarray(x0, dtype=float)
    x0 = x0.reshape(model.m) if x0.ndim < 2 else x0
    n_steps = len(grid) - 1
    out = np.empty((n_steps + 1,) + x0.shape)
    out[0] = x0
    x = x0
    if eps == 0.0:
        steps = transition_steps(model, grid)
        for k in range(n_steps):
            x = steps[k] @ x
            out[k + 1] = x
        return out
    if rng is None:
        raise ValueError("eps > 0 requires an RNG for the system noise")
    h = grid[1:] - grid[:-1]
    a = model.A_at(grid[:-1])
    f = model.F_at(grid[:-1])
    if x0.ndim == 1:
        xi = rng.standard_normal((n_steps, model.m))
    else:
        xi = np.empty((n_steps,) + x0.shape)
        for j, g in enumerate(rng):
            xi[:, :, j] = g.standard_normal((n_steps, model.m))
    # the noise terms eps sqrt(h) F xi do not feed the recursion: they are
    # computed before it, over xi in place a block of steps at a time, so
    # that no second array of the size of xi is allocated
    scale = (eps * np.sqrt(h)).reshape((-1,) + (1,) * (xi.ndim - 1))
    for lo in range(0, n_steps, NOISE_BLOCK):
        blk = slice(lo, lo + NOISE_BLOCK)
        fxi = f[blk] @ (xi[blk, :, None] if x0.ndim == 1 else xi[blk])
        xi[blk] = scale[blk] * (fxi[..., 0] if x0.ndim == 1 else fxi)
    for k in range(n_steps):
        x = x + h[k] * (a[k] @ x) + xi[k]
        out[k + 1] = x
    return out


def simulate_observations(model: LtvModel, truth_fine: np.ndarray, fine: np.ndarray,
                          substeps: int, rng, seed=0, eps: float = 0.0) -> ObservationPath:
    """Aggregate fine-grid observation increments to the coarse grid.

    Per coarse step: dy_k = trapezoid of C_s x_s over the substeps plus
    sum_j R_j^{1/2} sqrt(h) xi_j. Passing rng=None is the deterministic-noise
    test hook (xi = 0 identically). A truth with seed columns (F+1, m, S)
    takes a sequence of S generators (or None entries) and gives increments
    (K, n, S); the coefficient paths C and R^{1/2} are built once, and the
    noise is drawn one column at a time.
    """
    fine = np.asarray(fine, dtype=float)
    n_fine = len(fine) - 1
    if n_fine % substeps:
        raise ValueError("fine grid length is not a multiple of substeps")
    n_coarse = n_fine // substeps
    batch = truth_fine.ndim == 3
    rngs = rng if batch else [rng]
    columns = truth_fine if batch else truth_fine[:, :, None]
    c = model.C_at(fine)
    h = (fine[1:] - fine[:-1])[:, None]
    root_h = np.sqrt(h)
    noisy = any(g is not None for g in rngs)
    rhalf = _psd_sqrt_path(model.R_at(fine[:-1])) if noisy else None
    inc = np.empty((n_coarse, model.n, len(rngs)))
    for j, g in enumerate(rngs):
        cx = np.einsum("tij,tj->ti", c, columns[:, :, j])
        drift = 0.5 * h * (cx[:-1] + cx[1:])
        if g is not None:
            xi = g.standard_normal((n_fine, model.n))
            noise = root_h * np.einsum("tij,tj->ti", rhalf, xi)
        else:
            noise = np.zeros_like(drift)
        inc[:, :, j] = (drift + noise).reshape(n_coarse, substeps, model.n).sum(axis=1)
    return ObservationPath(grid=fine[::substeps], increments=inc if batch else inc[:, :, 0],
                           truth=truth_fine[::substeps], substeps=substeps, seed=seed, eps=eps)


def generate_observation_path(cfg: ExperimentConfig, seed=None,
                              eps: float = 0.0, x0: np.ndarray | None = None,
                              noise_off: bool = False) -> ObservationPath:
    """Full pipeline: draw x0, integrate the truth, emit observation increments.

    `seed` is one seed (default cfg.seed) or a tuple of seeds; a tuple gives
    one column per seed: increments (K, n, S) and truth (K+1, m, S). Every
    seed draws its own "x0", "V" and "W" streams, so a column is the path of
    that seed alone (bitwise for m = 1; for m > 1 the batched matrix products
    may round differently). The truth is integrated for all columns at once;
    the observations are aggregated one column at a time, which keeps only
    one column of fine-grid draws in memory. `noise_off` zeroes the
    observation noise (test hook) while keeping everything else identical.
    """
    seed = cfg.seed if seed is None else seed
    batch = isinstance(seed, tuple)
    seeds = seed if batch else (seed,)
    grid = cfg.grid()
    sub = cfg.substeps
    fg = fine_grid(grid, sub)
    if x0 is None:
        x0 = np.stack([draw_initial_state(cfg, RngStream(s, "x0").generator())
                       for s in seeds], axis=-1)
    vrng = [RngStream(s, "V").generator() for s in seeds] if eps > 0 else None
    if not batch:
        x0 = np.reshape(x0, cfg.model.m)
        vrng = None if vrng is None else vrng[0]
    truth_fine = simulate_truth(cfg.model, x0, fg, eps=eps, rng=vrng)
    wrngs = [None if noise_off else RngStream(s, "W").generator() for s in seeds]
    return simulate_observations(cfg.model, truth_fine, fg, sub, wrngs if batch else wrngs[0],
                                 seed=seed, eps=eps)


__all__ = [
    "ObservationPath",
    "RngStream",
    "draw_initial_state",
    "fine_grid",
    "generate_observation_path",
    "simulate_observations",
    "simulate_truth",
]
