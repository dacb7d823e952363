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

generate_observation_path streams: it runs blocks of whole coarse steps
through the block kernels simulate_truth and simulate_observations, and each
block draws the next stretch of every stream, which reproduces the one-shot
draws exactly. A block holds as many fine steps as fit in NOISE_BLOCK
values, counted as fine steps x levels x seeds x m, in whole multiples of
both the substep count and _integrators.CHUNK, and at least one multiple:
every block then starts the truth recursion at a chunk boundary of the
whole path, which makes its truth bitwise the whole path's. Only the
increments outlive a block: a path is its grid and its increments. The
kernels have one shape: a block carries E noise levels and S seed columns,
states (E, m, S), and a single level or seed is E = 1 or S = 1. A tuple
of noise levels eps gives one path per level from the same pass: each
seed's "x0", "V" and "W" streams, F xi and R^{1/2} sqrt(h) xi_W are formed
once and shared by every level, and each level's path is bitwise the path
that level alone gives. That holds because every level keeps the products
and the reduction order of a single level. The truth has one kernel: every
level of a block runs as a member of one linear recursion
(_integrators.linear_recursion), a zero level with the RK4 transition
steps and a noisy level with the Euler-Maruyama steps I + h A and its
noise terms as offsets. The drift C x is an einsum. The substep sums add
the substep slices in order on the time-major block, so every column is
summed in the order it is summed alone.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from ._integrators import CHUNK, linear_recursion, transition_steps
from .model import ExperimentConfig, LtvModel, psd_sqrt


# values per block of the streamed truth and observation pass, counted as
# fine steps x levels x seeds x m: the block's noise, truth and drift arrays
# are all that is held at fine resolution (a block is a whole number of
# coarse steps and of chunks of the noise-free recursion, at least one)
NOISE_BLOCK = 2 ** 16


def _label_key(label: str) -> int:
    return int.from_bytes(hashlib.sha256(label.encode()).digest()[:8], "little")


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
    """Observation increments on a coarse grid."""

    grid: np.ndarray            # coarse grid, K+1 nodes
    increments: np.ndarray      # (K, n) observation increments dy_k; (K, n, S) for S seeds

    def __post_init__(self):
        if self.increments.shape[0] != self.grid.shape[0] - 1:
            raise ValueError("one increment per coarse step is required")


def fine_grid(grid: np.ndarray, substeps: int) -> np.ndarray:
    """Subdivide each coarse step into `substeps` equal pieces."""
    if substeps < 1:
        raise ValueError("substeps must be >= 1")
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


def simulate_truth(model: LtvModel, x0: np.ndarray, fine: np.ndarray, eps: tuple,
                   rng) -> np.ndarray:
    """Integrate the signal process over one block of fine steps, E levels by S seeds.

    x0 is the (E, m, S) state of every level and seed column at fine[0], eps
    a tuple of the E levels (each >= 0) and rng a sequence of S generators,
    one per seed column (None when every level is 0). Returns the
    (F+1, E, m, S) truth.
    Every level is a member of one linear recursion
    (_integrators.linear_recursion, chunks anchored at fine[0]). A zero
    level takes one RK4 transition per step and +0.0 offsets, and draws
    nothing. A noisy level takes Euler-Maruyama steps,
    x_{j+1} = (I + h A) x_j + eps F sqrt(h) xi_j: each generator is drawn
    once for every level and F xi is formed once, and level e adds
    (eps_e sqrt(h)) (F xi), written as the offset rows of the output. Each
    level takes the (m, m) @ (m, S) products it takes alone, so every level
    is bitwise the truth that level alone gives.
    """
    levels = np.asarray(eps, dtype=float)
    if (levels < 0.0).any():
        raise ValueError("noise levels must be >= 0")
    noisy = levels != 0.0
    if noisy.any() and (rng is None or len(rng) != x0.shape[-1]):
        raise ValueError(f"eps > 0 requires one RNG per seed column for the system noise, "
                         f"{x0.shape[-1]} in all; got {0 if rng is None else len(rng)}")
    n_steps = len(fine) - 1
    out = np.empty((n_steps + 1,) + x0.shape)
    out[0] = x0
    steps = None if noisy.all() else transition_steps(model, fine)
    if noisy.any():
        h = fine[1:] - fine[:-1]
        em = np.eye(model.m) + h[:, None, None] * model.A_at(fine[:-1])
        steps = em if steps is None else np.where(noisy[:, None, None], em[:, None],
                                                  steps[:, None])
        xi = np.empty((n_steps,) + x0.shape[1:])
        for j, g in enumerate(rng):
            xi[:, :, j] = g.standard_normal((n_steps, model.m))
        scale = levels * np.sqrt(h)[:, None]
        np.multiply(scale[:, :, None, None], (model.F_at(fine[:-1]) @ xi)[:, None], out=out[1:])
        # 0 * F xi is -0.0 where F xi < 0; a zero level adds +0.0
        out[1:, ~noisy] = 0.0
    return linear_recursion(steps, out, offset=noisy.any())


def simulate_observations(model: LtvModel, truth_fine: np.ndarray, fine: np.ndarray,
                          substeps: int, rngs) -> np.ndarray:
    """Aggregate one block's fine-grid observation increments to its coarse steps.

    truth_fine is the (F+1, E, m, S) block of simulate_truth and rngs holds
    S generators, one per seed column. Returns the (K, E, n, S) increments,
    K = F / substeps. Per coarse step: dy_k = trapezoid of C_s x_s over the
    substeps plus sum_j R_j^{1/2} sqrt(h) xi_j. The coefficient paths C and
    R^{1/2} are taken from the model once per block, and each column's noise
    is drawn and formed once and added to the drift of every level. The
    substep terms are added in order, slice by slice, on the time-major
    block, so each column's sum does not depend on E, S or the block size.
    """
    n_fine = len(fine) - 1
    if n_fine % substeps:
        raise ValueError("fine grid length is not a multiple of substeps")
    if len(rngs) != truth_fine.shape[-1]:
        raise ValueError(f"one RNG per seed column is required for the observation noise, "
                         f"{truth_fine.shape[-1]} in all; got {len(rngs)}")
    n_coarse = n_fine // substeps
    c = model.C_at(fine)
    h = fine[1:] - fine[:-1]
    cx = np.einsum("tij,tejs->teis", c, truth_fine)
    total = np.add(cx[:-1], cx[1:])
    total *= 0.5 * h[:, None, None, None]
    xi = np.empty((n_fine, model.n, len(rngs)))
    for j, g in enumerate(rngs):
        xi[:, :, j] = g.standard_normal((n_fine, model.n))
    rhalf = model.Rhalf_at(fine[:-1])
    total += (np.sqrt(h)[:, None, None] * np.einsum("tij,tjs->tis", rhalf, xi))[:, None]
    steps = total.reshape((n_coarse, substeps) + total.shape[1:])
    inc = steps[:, 0].copy()
    for j in range(1, substeps):
        inc += steps[:, j]
    return inc


def generate_observation_path(cfg: ExperimentConfig, seed=None, eps=0.0):
    """Full pipeline: draw x0, integrate the truth, emit observation increments.

    `seed` is one seed (default cfg.seed) or a tuple of seeds; a tuple gives
    one column per seed, increments (K, n, S). Every seed draws its own
    "x0", "V" and "W" streams, so a column is the path of that seed alone
    (bitwise for m = 1; for m > 1 the batched matrix products may round
    differently). `eps` is one noise level, or a tuple of levels that gives
    a tuple of paths, one per level, each bitwise the path of that level
    alone: the levels share each seed's streams and are simulated in one
    pass. The pass runs in blocks of whole coarse steps and whole chunks
    sized by NOISE_BLOCK (see the module docstring); each block draws the
    next stretch of every stream, so only the increments are kept.
    """
    seed = cfg.seed if seed is None else seed
    seeds = seed if isinstance(seed, tuple) else (seed,)
    levels = eps if isinstance(eps, tuple) else (eps,)
    model, grid, sub = cfg.model, cfg.grid(), cfg.substeps
    x0 = np.stack([draw_initial_state(cfg, RngStream(s, "x0").generator()) for s in seeds],
                  axis=-1)
    n_levels, n_seeds = len(levels), len(seeds)
    x = np.broadcast_to(x0, (n_levels, model.m, n_seeds))
    vrngs = [RngStream(s, "V").generator() for s in seeds] if any(lv > 0 for lv in levels) else None
    wrngs = [RngStream(s, "W").generator() for s in seeds]
    n_steps = len(grid) - 1
    inc = np.empty((n_levels, n_steps, model.n, n_seeds))
    # whole chunks of fine steps per block, so that every block starts the
    # noise-free recursion at a chunk boundary of the whole path
    unit = math.lcm(sub, CHUNK) // sub
    block_steps = unit * max(1, NOISE_BLOCK // (unit * sub * n_levels * n_seeds * model.m))
    for lo in range(0, n_steps, block_steps):
        hi = min(lo + block_steps, n_steps)
        fine = fine_grid(grid[lo:hi + 1], sub)
        block = simulate_truth(model, x, fine, levels, vrngs)
        inc[:, lo:hi] = simulate_observations(model, block, fine, sub, wrngs).swapaxes(0, 1)
        x = block[-1]
    if not isinstance(seed, tuple):
        inc = inc[..., 0]
    paths = tuple(ObservationPath(grid=grid, increments=inc_e) for inc_e in inc)
    return paths if isinstance(eps, tuple) else paths[0]


__all__ = [
    "ObservationPath",
    "RngStream",
    "draw_initial_state",
    "fine_grid",
    "generate_observation_path",
    "simulate_observations",
    "simulate_truth",
]
