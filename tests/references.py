"""Reference loops, the whole-path observation generator and random models shared by the tests.

The loops are the plain per-step and chunked forms of the package's linear
recursions. The whole-path generator is the one-shot form of the streamed
generate_observation_path; it also returns the coarse truth, takes an initial
state in place of the "x0" draw, and can leave out the observation noise,
which the package itself never does.
"""

import numpy as np

from kblab._integrators import CHUNK, transition_steps
from kblab.model import LtvModel, psd_sqrt
from kblab.simulate import ObservationPath, RngStream, draw_initial_state, fine_grid


def sequential_loop(steps, x0, offsets=None):
    """Per-step loop x_{k+1} = steps[k] @ x_k, plus offsets[k] when given."""
    out = np.empty((len(steps) + 1,) + np.shape(x0))
    out[0] = x = x0
    for k in range(len(steps)):
        x = steps[k] @ x if offsets is None else offsets[k] + steps[k] @ x
        out[k + 1] = x
    return out


def chunked_loop(steps, x0, offsets=None):
    """The chunked order of linear_recursion, one chunk at a time.

    Each chunk of CHUNK steps is stepped from its start as in the per-step
    loop. The end of a whole chunk is then replaced by its product of steps
    applied to its start plus its offsets summed from zero, and starts the
    next chunk.
    """
    out = np.empty((len(steps) + 1,) + np.shape(x0))
    out[0] = x0
    if offsets is not None:
        offsets = np.broadcast_to(offsets, (len(steps),) + out.shape[1:])
    for lo in range(0, len(steps), CHUNK):
        hi = min(lo + CHUNK, len(steps))
        out[lo:hi + 1] = sequential_loop(steps[lo:hi], out[lo],
                                         None if offsets is None else offsets[lo:hi])
        if hi - lo < CHUNK:
            break
        prod, total = steps[lo], None if offsets is None else offsets[lo]
        for k in range(lo + 1, hi):
            prod = steps[k] @ prod
            if offsets is not None:
                total = offsets[k] + steps[k] @ total
        out[hi] = prod @ out[lo] if offsets is None else prod @ out[lo] + total
    return out


def euler_maruyama_steps(model, grid, eps, xi):
    """Euler-Maruyama steps I + h A and noise terms eps sqrt(h) F xi_k, xi (K, m, S)."""
    h = grid[1:] - grid[:-1]
    steps = np.eye(model.m) + h[:, None, None] * model.A_at(grid[:-1])
    return steps, (eps * np.sqrt(h))[:, None, None] * (model.F_at(grid[:-1]) @ xi)


class ZeroGenerator:
    """Stands in for a numpy Generator and draws zeros: a column with no noise."""

    def standard_normal(self, shape):
        return np.zeros(shape)


def whole_path_generator(cfg, seed, eps, x0=None, noise_off=False):
    """Observation path of one eps level, generated over the whole horizon at once.

    The fine truth of every column and each stream's draws for the whole
    horizon are held together; one seed gives (m,) states and
    matrix-vector products. The truth is the chunked loop over the whole
    fine grid: RK4 transition steps at eps = 0, otherwise Euler-Maruyama
    steps I + h A with the noise terms as offsets. x0 replaces the "x0"
    draws, and noise_off leaves out the observation noise. Returns
    (increments, coarse truth).
    """
    model, sub = cfg.model, cfg.substeps
    batch = isinstance(seed, tuple)
    seeds = seed if batch else (seed,)
    fine = fine_grid(cfg.grid(), sub)
    n_fine = len(fine) - 1
    if x0 is None:
        x0 = np.stack([draw_initial_state(cfg, RngStream(s, "x0").generator()) for s in seeds],
                      axis=-1)
    x0 = x0 if batch else np.reshape(x0, model.m)
    if eps == 0.0:
        truth = chunked_loop(transition_steps(model, fine), x0)
    else:
        xi = np.stack([RngStream(s, "V").generator().standard_normal((n_fine, model.m))
                       for s in seeds], axis=-1)
        steps, noise = euler_maruyama_steps(model, fine, eps, xi)
        truth = chunked_loop(steps, x0, noise if batch else noise[..., 0])
    c = model.C_at(fine)
    hh = (fine[1:] - fine[:-1])[:, None]
    rhalf = psd_sqrt(model.R_at(fine[:-1]))
    columns = truth if batch else truth[:, :, None]
    inc = np.empty((n_fine // sub, model.n, len(seeds)))
    for j, s in enumerate(seeds):
        cx = np.einsum("tij,tj->ti", c, columns[:, :, j])
        drift = 0.5 * hh * (cx[:-1] + cx[1:])
        rng = ZeroGenerator() if noise_off else RngStream(s, "W").generator()
        noise = np.sqrt(hh) * np.einsum("tij,tj->ti", rhalf, rng.standard_normal((n_fine, model.n)))
        # in-order substep sums (cumsum adds in order along its axis)
        inc[:, :, j] = (drift + noise).reshape(n_fine // sub, sub, model.n).cumsum(axis=1)[:, -1]
    return (inc if batch else inc[:, :, 0]), truth[::sub]


def noise_free_path(cfg, x0=None):
    """The path of cfg.seed at eps = 0 without observation noise, and its coarse truth."""
    inc, truth = whole_path_generator(cfg, cfg.seed, 0.0, x0=x0, noise_off=True)
    return ObservationPath(grid=cfg.grid(), increments=inc), truth


def random_model(rng, m, n, modulations=()):
    """A random model of m states and n observations, drawn from rng.

    Constant without modulations; otherwise periodic with the named ones of
    A1, C1, R1 and F1 set. R0 is at least 0.5 I and R1 at most 0.4 in norm,
    so R stays positive definite.
    """
    root = rng.normal(scale=0.5, size=(n, n))
    coefs = {"A0": rng.normal(scale=0.5, size=(m, m)), "C0": rng.normal(size=(n, m)),
             "R0": root @ root.T + 0.5 * np.eye(n), "F0": rng.normal(scale=0.5, size=(m, m))}
    for name in modulations:
        if name == "R1":
            sym = rng.normal(size=(n, n))
            coefs[name] = 0.4 * (sym + sym.T) / np.linalg.norm(sym + sym.T, 2)
        else:
            coefs[name] = rng.normal(scale=0.3, size=coefs[name[0] + "0"].shape)
    return LtvModel(m=m, n=n, family="periodic" if modulations else "constant",
                    omega=float(rng.uniform(0.5, 3.0)), **coefs)
