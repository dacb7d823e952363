from dataclasses import replace

import numpy as np
import pytest

from kblab.model import constant_model, periodic_model, psd_sqrt
from kblab.propagate import make_grid
from kblab.simulate import (
    RngStream,
    draw_initial_state,
    fine_grid,
    generate_observation_path,
    simulate_observations,
    simulate_truth,
)
from kblab.scenarios import builtin_scenario
from references import ZeroGenerator, chunked_loop, euler_maruyama_steps, whole_path_generator


def test_rng_streams_are_independent_and_stable():
    a = RngStream(42, "W").generator().standard_normal(8)
    b = RngStream(42, "W").generator().standard_normal(8)
    c = RngStream(42, "V").generator().standard_normal(8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    d = RngStream(43, "W").generator().standard_normal(8)
    assert not np.array_equal(a, d)


def test_observation_path_regenerates_bitwise():
    cfg = builtin_scenario("scalar_basic")
    a = generate_observation_path(cfg, seed=42)
    b = generate_observation_path(cfg, seed=42)
    assert np.array_equal(a.increments, b.increments)
    x1 = draw_initial_state(cfg, RngStream(42, "x0").generator())
    x2 = draw_initial_state(cfg, RngStream(42, "x0").generator())
    assert np.array_equal(x1, x2)


def test_degenerate_initial_draw():
    cfg = replace(builtin_scenario("scalar_basic"), P0=np.zeros((1, 1)))
    x = draw_initial_state(cfg, RngStream(0, "x0").generator())
    assert np.array_equal(x, cfg.m0)


def test_atom_draw_frequency_within_binomial_band():
    cfg = replace(builtin_scenario("two_atom"), P0=np.zeros((1, 1)), m0=np.zeros(1))
    rng = RngStream(123, "x0").generator()
    n = 10_000
    draws = np.array([draw_initial_state(cfg, rng)[0] for _ in range(n)])
    assert set(np.unique(draws)) == {-1.0, 1.0}
    freq = np.mean(draws > 0)
    assert abs(freq - 0.5) <= 3.0 * np.sqrt(0.25 / n)


def test_truth_constant_dynamics():
    mdl = constant_model([[0.0]], [[1.0]], [[1.0]])
    tr = simulate_truth(mdl, np.full((1, 1, 1), 2.5), make_grid(3.0, 0.01), (0.0,), None)
    assert np.abs(tr - 2.5).max() == 0.0


def test_truth_scalar_exponential():
    mdl = constant_model([[1.0]], [[1.0]], [[1.0]])
    tr = simulate_truth(mdl, np.ones((1, 1, 1)), make_grid(1.0, 1e-3), (0.0,), None)
    assert abs(tr[-1, 0, 0, 0] - np.e) <= 1e-9


def test_truth_rejects_negative_noise_level():
    mdl = constant_model([[0.0]], [[1.0]], [[1.0]])
    with pytest.raises(ValueError, match="noise levels must be >= 0"):
        simulate_truth(mdl, np.zeros((2, 1, 1)), make_grid(1.0, 0.1), (0.1, -0.1),
                       [RngStream(0, "V").generator()])


def test_truth_noise_requires_rng():
    mdl = constant_model([[0.0]], [[1.0]], [[1.0]])
    with pytest.raises(ValueError):
        simulate_truth(mdl, np.zeros((1, 1, 1)), make_grid(1.0, 0.1), (0.1,), None)


def test_generator_count_must_match_the_seed_columns():
    # three seed columns and one generator: the draw buffers of the other
    # two columns would be left unwritten
    cfg = builtin_scenario("scalar_basic")
    fg = make_grid(1.0, 0.1)
    one = [RngStream(1, "V").generator()]
    with pytest.raises(ValueError, match="one RNG per seed column.*3 in all; got 1"):
        simulate_truth(cfg.model, np.ones((1, 1, 3)), fg, (0.1,), one)
    truth = simulate_truth(cfg.model, np.ones((1, 1, 3)), fg, (0.0,), None)
    with pytest.raises(ValueError, match="one RNG per seed column.*3 in all; got 1"):
        simulate_observations(cfg.model, truth, fg, 1, one)


def test_em_terminal_variance_matches_eps2_t():
    mdl = constant_model([[0.0]], [[1.0]], [[1.0]])
    fg = fine_grid(make_grid(1.0, 0.05), 5)
    eps, n = 0.3, 500
    xs = simulate_truth(mdl, np.zeros((1, 1, n)), fg, (eps,),
                        [RngStream(s, "V").generator() for s in range(n)])[-1, 0, 0]
    var = np.var(xs, ddof=1)
    target = eps * eps
    assert abs(var - target) <= 3.0 * target * np.sqrt(2.0 / (n - 1))


def test_observation_noise_variance():
    mdl = constant_model([[0.0]], [[0.0]], [[0.25]])
    grid = make_grid(50.0, 0.01)
    fg = fine_grid(grid, 4)
    tr = simulate_truth(mdl, np.zeros((1, 1, 1)), fg, (0.0,), None)
    inc = simulate_observations(mdl, tr, fg, 4, [RngStream(5, "W").generator()])[:, 0, 0, 0]
    var = np.var(inc, ddof=1)
    target = 0.25 * 0.01
    assert abs(var - target) <= 3.0 * target * np.sqrt(2.0 / (len(inc) - 1))


def test_noiseless_hook_exact_quadrature():
    mdl = constant_model([[0.0]], [[1.0]], [[1.0]])
    grid = make_grid(1.0, 0.01)
    fg = fine_grid(grid, 10)
    tr = simulate_truth(mdl, np.ones((1, 1, 1)), fg, (0.0,), None)
    inc = simulate_observations(mdl, tr, fg, 10, [ZeroGenerator()])
    assert np.abs(inc - 0.01).max() <= 1e-15


def test_substep_refinement_changes_noiseless_increments_little():
    cfg = replace(builtin_scenario("scalar_unstable"), horizon=2.0)
    one, _ = whole_path_generator(cfg, cfg.seed, 0.0, noise_off=True)
    ten, _ = whole_path_generator(replace(cfg, substeps=10), cfg.seed, 0.0, noise_off=True)
    assert np.abs(one - ten).max() <= 1e-7


def test_fine_grid_structure():
    grid = make_grid(1.0, 0.25)
    fg = fine_grid(grid, 4)
    assert len(fg) == 17
    assert np.array_equal(fg[::4], grid)
    assert np.array_equal(fine_grid(grid, 1), grid)


def test_observation_path_shape_contract():
    cfg = builtin_scenario("rotation_atoms")
    obs = generate_observation_path(cfg, seed=1)
    assert obs.increments.shape == (len(obs.grid) - 1, 2)


def test_eps_zero_consumes_no_system_noise():
    # identical observations regardless of how the V stream would be seeded
    cfg = builtin_scenario("scalar_basic")
    a = generate_observation_path(cfg, seed=7, eps=0.0)
    b = generate_observation_path(cfg, seed=7, eps=0.0)
    assert np.array_equal(a.increments, b.increments)


@pytest.mark.parametrize("eps", [0.0, 0.1])
def test_seed_columns_equal_single_seed_paths_scalar(eps):
    cfg = replace(builtin_scenario("smallnoise_stable"), horizon=2.0, substeps=3)
    seeds = (3, 4, 5)
    batch = generate_observation_path(cfg, seed=seeds, eps=eps)
    assert batch.increments.shape == (len(batch.grid) - 1, 1, 3)
    for j, s in enumerate(seeds):
        one = generate_observation_path(cfg, seed=s, eps=eps)
        assert np.array_equal(one.grid, batch.grid)
        assert np.array_equal(one.increments, batch.increments[:, :, j])


def test_seed_columns_match_single_seed_paths_matrix():
    cfg = replace(builtin_scenario("rotation"), horizon=5.0, dt=0.01, substeps=2)
    batch = generate_observation_path(cfg, seed=(7, 8), eps=0.0)
    for j, s in enumerate((7, 8)):
        one = generate_observation_path(cfg, seed=s)
        assert np.abs(one.increments - batch.increments[:, :, j]).max() <= 1e-12


def test_truth_columns_take_one_noise_stream_each():
    mdl = constant_model([[-0.5, 1.0], [0.0, -0.2]], [[1.0, 0.0]], [[1.0]], F=np.eye(2))
    fg = make_grid(1.0, 0.01)
    x0s = np.array([[1.0, -2.0], [0.5, 0.0]])
    batch = simulate_truth(mdl, x0s[None], fg, (0.3,),
                           [RngStream(s, "V").generator() for s in (1, 2)])
    assert batch.shape == (len(fg), 1, 2, 2)
    for j, s in enumerate((1, 2)):
        one = simulate_truth(mdl, x0s[None, :, j:j + 1], fg, (0.3,), [RngStream(s, "V").generator()])
        assert np.abs(one[..., 0] - batch[..., j]).max() <= 1e-12


def test_observation_columns_equal_per_column_aggregation():
    # time-varying C and R: the coefficient paths are built once per call
    mdl = periodic_model([[0.0, 1.0], [-1.0, -0.1]], [[0.0, 0.2], [0.0, 0.0]], [[1.0, 0.5]],
                         [[0.5]], omega=3.0, C1=[[0.3, 0.0]], R1=[[0.2]])
    fg = fine_grid(make_grid(2.0, 0.02), 4)
    x0s = np.array([[1.0, -2.0, 0.0], [0.5, 0.0, 1.0]])
    truth = simulate_truth(mdl, x0s[None], fg, (0.0,), None)
    gens = [RngStream(s, "W").generator() for s in (1, 2)] + [ZeroGenerator()]
    batch = simulate_observations(mdl, truth, fg, 4, gens)
    assert batch.shape == ((len(fg) - 1) // 4, 1, 1, 3)
    for j, s in enumerate((1, 2, None)):
        rng = ZeroGenerator() if s is None else RngStream(s, "W").generator()
        one = simulate_observations(mdl, truth[..., j:j + 1], fg, 4, [rng])
        assert np.array_equal(one[..., 0], batch[..., j])


@pytest.mark.parametrize("n", [1, 2], ids=["n1", "n2"])
@pytest.mark.parametrize("substeps", [1, 3, 10])
def test_observation_columns_equal_in_order_substep_sums(substeps, n):
    # time-varying C and R, two noise levels: every (level, seed) column is
    # the in-order substep sum of its own drift and noise, for every n
    mdl = periodic_model([[0.0, 1.0], [-1.0, -0.1]], [[0.0, 0.2], [0.0, 0.0]],
                         np.array([[1.0, 0.5], [0.0, 1.0]])[:n],
                         np.array([[0.5, 0.1], [0.1, 0.4]])[:n, :n], omega=3.0,
                         C1=np.array([[0.3, 0.0], [0.0, -0.2]])[:n],
                         R1=np.array([[0.2, 0.05], [0.05, 0.1]])[:n, :n])
    fg = fine_grid(make_grid(1.0, 0.02), substeps)
    n_fine, n_coarse = len(fg) - 1, (len(fg) - 1) // substeps
    x0s = np.array([[1.0, -2.0, 0.0], [0.5, 0.0, 1.0]])
    truth = simulate_truth(mdl, np.stack([x0s, -x0s]), fg, (0.1, 0.3),
                           [RngStream(s, "V").generator() for s in (1, 2, 3)])
    gens = [RngStream(s, "W").generator() for s in (1, 2)] + [ZeroGenerator()]
    batch = simulate_observations(mdl, truth, fg, substeps, gens)
    assert batch.shape == (n_coarse, 2, n, 3)
    c, h = mdl.C_at(fg), np.diff(fg)[:, None]
    rhalf = psd_sqrt(mdl.R_at(fg[:-1]))
    for j, s in enumerate((1, 2, None)):
        if s is None:
            noise = np.zeros((n_fine, n))
        else:
            xi = RngStream(s, "W").generator().standard_normal((n_fine, n))
            noise = np.sqrt(h) * np.einsum("tij,tj->ti", rhalf, xi)
        for e in range(2):
            cx = np.einsum("tij,tj->ti", c, truth[:, e, :, j])
            drift = 0.5 * h * (cx[:-1] + cx[1:])
            # cumsum adds in order along its axis, whatever the layout
            ref = (drift + noise).reshape(n_coarse, substeps, n).cumsum(axis=1)[:, -1]
            assert np.array_equal(batch[:, e, :, j], ref)


def test_em_truth_matches_stepwise_reference():
    # exactly the chunked loop over I + h A with the noise terms as offsets,
    # and the per-step loop x + h (A x) + noise within rounding
    mdl = periodic_model([[-0.5, 1.0], [0.0, -0.2]], [[0.1, 0.0], [0.0, 0.3]], np.eye(2),
                         np.eye(2), F=[[1.0, 0.0], [0.3, 0.5]])
    fg = fine_grid(make_grid(1.0, 0.01), 3)
    x0 = np.array([1.0, -1.0])
    out = simulate_truth(mdl, x0[None, :, None], fg, (0.2,), [RngStream(9, "V").generator()])
    xi = RngStream(9, "V").generator().standard_normal((len(fg) - 1, 2))
    steps, noise = euler_maruyama_steps(mdl, fg, 0.2, xi[:, :, None])
    assert np.array_equal(out[:, 0, :, 0], chunked_loop(steps, x0, noise[..., 0]))
    h = np.diff(fg)
    ref = np.empty((len(fg), 2))
    ref[0] = x = x0
    for k in range(len(fg) - 1):
        a, f = mdl.A_at(fg[k:k + 1])[0], mdl.F_at(fg[k:k + 1])[0]
        x = x + h[k] * (a @ x) + (0.2 * np.sqrt(h[k])) * (f @ xi[k])
        ref[k + 1] = x
    assert np.abs(out[:, 0, :, 0] - ref).max() <= 1e-12 * np.abs(ref).max()


def test_em_truth_law_matches_exact_moment_recursion():
    # the Euler-Maruyama chain is Gaussian with mean S_{k-1} ... S_0 x0 and
    # covariance Sigma_{k+1} = S_k Sigma_k S_k^T + eps^2 h_k F_k F_k^T,
    # S_k = I + h_k A_k; 4000 seed columns match both within 4 standard
    # errors at five times
    mdl = periodic_model([[-0.5, 1.0], [0.0, -0.2]], [[0.1, 0.0], [0.0, 0.3]], np.eye(2),
                         np.eye(2), F=[[1.0, 0.0], [0.3, 0.5]])
    eps, n_cols = 0.4, 4000
    fg = fine_grid(make_grid(2.0, 0.02), 5)
    x0 = np.array([1.0, -1.0])
    truth = simulate_truth(mdl, np.broadcast_to(x0[None, :, None], (1, 2, n_cols)), fg, (eps,),
                           [RngStream(s, "V").generator() for s in range(n_cols)])[:, 0]
    h = np.diff(fg)
    a, f = mdl.A_at(fg[:-1]), mdl.F_at(fg[:-1])
    mean, cov = x0, np.zeros((2, 2))
    z = []
    for k in range(len(h)):
        s = np.eye(2) + h[k] * a[k]
        mean, cov = s @ mean, s @ cov @ s.T + eps ** 2 * h[k] * f[k] @ f[k].T
        if (k + 1) % 100 == 0:
            x = truth[k + 1]
            dev = x - x.mean(axis=1, keepdims=True)
            sample_cov = dev @ dev.T / (n_cols - 1)
            var = np.diag(cov)
            z.extend((x.mean(axis=1) - mean) / np.sqrt(var / n_cols))
            # a Gaussian sample covariance entry has variance
            # (Sigma_ii Sigma_jj + Sigma_ij^2) / N
            se = np.sqrt((np.outer(var, var) + cov ** 2) / n_cols)
            z.extend(((sample_cov - cov) / se)[np.triu_indices(2)])
    assert len(z) == 25
    assert np.abs(z).max() <= 4.0
