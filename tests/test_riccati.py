import numpy as np
import pytest

from kblab.model import constant_model, psd_sqrt
from kblab.propagate import fundamental_matrix, make_grid
from kblab.riccati import (
    closed_form_dre,
    covariance_gap,
    error_factorization_check,
    integrate_dre,
)
from kblab.scenarios import builtin_scenario


def scalar_model(a=0.0):
    return constant_model([[a]], [[1.0]], [[1.0]])


def test_scalar_riccati_neutral():
    grid = make_grid(1.0, 1e-3)
    sol = integrate_dre(scalar_model(), [[1.0]], grid)
    assert np.abs(sol.values[:, 0, 0] - 1.0 / (1.0 + grid)).max() <= 1e-9
    assert sol.values[-1, 0, 0] == pytest.approx(0.5, abs=1e-9)


def test_scalar_riccati_growth_form():
    grid = make_grid(1.0, 1e-3)
    sol = integrate_dre(scalar_model(1.0), [[1.0]], grid)
    analytic = np.exp(2 * grid) / (1.0 + (np.exp(2 * grid) - 1.0) / 2.0)
    assert np.abs(sol.values[:, 0, 0] - analytic).max() <= 1e-8
    assert sol.values[-1, 0, 0] == pytest.approx(1.761594156, abs=1e-8)


def test_zero_initial_condition_is_fixed_point():
    sol = integrate_dre(scalar_model(1.0), [[0.0]], make_grid(3.0, 1e-2))
    assert np.abs(sol.values).max() == 0.0


def test_integrate_dre_rejects_asymmetric_init():
    with pytest.raises(ValueError):
        integrate_dre(builtin_scenario("rotation").model, [[1.0, 0.5], [0.0, 1.0]],
                      make_grid(1.0, 1e-2))


def test_blowup_detection_names_time():
    # unobserved unstable mode: P grows like e^{2at}; force a blow-up cheaply
    mdl = constant_model([[20.0]], [[0.0]], [[1.0]])
    with pytest.raises(FloatingPointError, match=r"^Riccati blow-up: .* at t="):
        integrate_dre(mdl, [[1e6]], make_grid(2.0, 1e-3))


@pytest.mark.parametrize("m", [1, 2, 3])
def test_non_finite_path_is_a_blowup(m):
    # the first step overflows to inf - inf = nan, which no "> BLOWUP" test catches
    mdl = constant_model(1e300 * np.eye(m), np.eye(m), np.eye(m))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(FloatingPointError, match=r"blow-up: .* at t=0\.01$"):
            integrate_dre(mdl, np.eye(m), make_grid(0.1, 0.01))


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_integrate_dre_rejects_non_finite_init(m, bad):
    mdl = constant_model(np.zeros((m, m)), np.eye(m), np.eye(m))
    P0 = np.eye(m)
    P0[0, 0] = bad
    with pytest.raises(ValueError, match="finite"):
        integrate_dre(mdl, P0, make_grid(0.1, 0.01))


def test_psd_sqrt_clamps_negatives():
    root = psd_sqrt(np.array([[4.0, 0.0], [0.0, -1e-14]]))
    assert np.allclose(root, [[2.0, 0.0], [0.0, 0.0]], atol=1e-12)


def test_closed_form_ill_conditioned_core_raises():
    mdl = constant_model(np.zeros((2, 2)), np.eye(2), np.eye(2))
    grid = make_grid(10.0, 0.1)
    phi = fundamental_matrix(mdl, grid)
    with pytest.raises(FloatingPointError, match="ill-conditioned"):
        closed_form_dre(mdl, np.diag([1e13, 0.0]), phi)


def test_closed_form_identity_initialization():
    mdl = constant_model(np.zeros((2, 2)), np.eye(2), np.eye(2))
    grid = make_grid(4.0, 1e-3)
    phi = fundamental_matrix(mdl, grid)
    cf = closed_form_dre(mdl, np.eye(2), phi)
    assert np.abs(cf.values - np.eye(2) / (1.0 + grid)[:, None, None]).max() <= 1e-10


def test_closed_form_zero_initialization():
    mdl = scalar_model()
    grid = make_grid(2.0, 1e-2)
    phi = fundamental_matrix(mdl, grid)
    cf = closed_form_dre(mdl, [[0.0]], phi)
    assert np.abs(cf.values).max() == 0.0


def test_oracle_equivalence_random_spd():
    cfg = builtin_scenario("periodic3")
    rng = np.random.default_rng(8)
    L = rng.standard_normal((3, 3))
    P0 = L @ L.T + 0.3 * np.eye(3)
    grid = make_grid(5.0, 1e-3)
    sol = integrate_dre(cfg.model, P0, grid)
    phi = fundamental_matrix(cfg.model, grid)
    cf = closed_form_dre(cfg.model, P0, phi)
    gap = np.linalg.norm(sol.values - cf.values, ord=2, axis=(1, 2)).max()
    assert gap <= 1e-6


def test_factorization_scalar_analytic():
    grid = make_grid(1.0, 1e-3)
    resid, mx, pieces = error_factorization_check(scalar_model(), [[1.0]], [[2.0]], grid)
    e1 = pieces["sol"].values[-1, 0, 0] - pieces["solbar"].values[-1, 0, 0]
    assert e1 == pytest.approx(-1.0 / 6.0, abs=1e-9)
    assert mx <= 1e-8
    # the factorized pieces match the analytic propagators
    assert pieces["psi"].values[-1, 0, 0] == pytest.approx(0.5, abs=1e-9)
    assert pieces["psibar"].values[-1, 0, 0] == pytest.approx(1.0 / 3.0, abs=1e-9)


def test_factorization_identical_inits_zero():
    grid = make_grid(1.0, 1e-2)
    resid, mx, _ = error_factorization_check(scalar_model(), [[1.5]], [[1.5]], grid)
    assert mx == 0.0


def test_factorization_rotation_seeded():
    cfg = builtin_scenario("rotation")
    _, mx, _ = error_factorization_check(cfg.model, cfg.P0, cfg.Pbar, make_grid(10.0, 1e-3))
    assert mx <= 1e-6


@pytest.mark.parametrize("case", ["scalar", "periodic3"])
def test_factorization_residual_is_fourth_order(case):
    # the factorization holds for the exact flows; the RK4 residual is a
    # discretization error of fourth order in dt for every m, not rounding:
    # halving dt divides it by about 16 (2.67e-6 -> 1.74e-7 on the scalar
    # model, 3.06e-8 -> 1.90e-9 on periodic3)
    if case == "scalar":
        model, p0, pbar, horizon = constant_model([[0.3]], [[1.0]], [[0.5]]), [[1.0]], [[4.0]], 10.0
    else:
        cfg = builtin_scenario(case)
        model, p0, pbar, horizon = cfg.model, cfg.P0, cfg.Pbar, cfg.horizon
    errs = [error_factorization_check(model, p0, pbar, make_grid(horizon, dt))[1]
            for dt in (0.02, 0.01)]
    assert 8.0 <= errs[0] / errs[1] <= 32.0


def test_covariance_gap_trivial_cases():
    cfg = builtin_scenario("smallnoise_stable")
    grid = make_grid(5.0, cfg.dt)
    p = integrate_dre(cfg.model, cfg.P0, grid, eps=0.0)
    q = integrate_dre(cfg.model, cfg.P0, grid, eps=0.0)
    _, norms, sup, _ = covariance_gap(q, p)
    assert sup == 0.0
    mdl = constant_model([[-0.5]], [[1.0]], [[1.0]], F=[[0.0]])
    pf = integrate_dre(mdl, cfg.P0, grid, eps=0.0)
    qf = integrate_dre(mdl, cfg.P0, grid, eps=0.7)
    _, _, supf, _ = covariance_gap(qf, pf)
    assert supf == 0.0


def test_covariance_gap_eps2_scaling_and_psd():
    cfg = builtin_scenario("smallnoise_stable")
    grid = cfg.grid()
    p = integrate_dre(cfg.model, cfg.P0, grid, eps=0.0)
    sups = {}
    for eps in (0.1, 0.05):
        q = integrate_dre(cfg.model, cfg.P0, grid, eps=eps)
        _, _, sups[eps], min_eig = covariance_gap(q, p)
        assert min_eig >= -1e-10
    assert 3.5 <= sups[0.1] / sups[0.05] <= 4.5


def test_covariance_gap_rejects_mismatched_inputs():
    cfg = builtin_scenario("smallnoise_stable")
    grid = make_grid(2.0, cfg.dt)
    p = integrate_dre(cfg.model, cfg.P0, grid)
    q_other = integrate_dre(cfg.model, 2.0 * cfg.P0, grid)
    with pytest.raises(ValueError):
        covariance_gap(q_other, p)


def test_riccati_flow_preserves_psd_order():
    rng = np.random.default_rng(5)
    mdl = builtin_scenario("rotation").model
    L = rng.standard_normal((2, 2))
    P0 = L @ L.T + 0.1 * np.eye(2)
    P0p = P0 + np.array([[0.4, 0.1], [0.1, 0.3]])
    grid = make_grid(5.0, 1e-3)
    lo = integrate_dre(mdl, P0, grid)
    hi = integrate_dre(mdl, P0p, grid)
    assert np.linalg.eigvalsh(hi.values - lo.values)[:, 0].min() >= -1e-9


def test_riccati_flow_preserves_psd_order_periodic():
    rng = np.random.default_rng(2)
    L = rng.standard_normal((3, 3))
    P0 = L @ L.T + 0.2 * np.eye(3)
    L2 = rng.standard_normal((3, 3))
    P0p = P0 + 0.5 * (L2 @ L2.T)
    mdl = builtin_scenario("periodic3").model
    grid = make_grid(5.0, 1e-3)
    lo = integrate_dre(mdl, P0, grid)
    hi = integrate_dre(mdl, P0p, grid)
    assert np.linalg.eigvalsh(hi.values - lo.values)[:, 0].min() >= -1e-9


def test_rotation_covariance_contraction():
    cfg = builtin_scenario("rotation")
    grid = make_grid(20.0, cfg.dt)
    a = integrate_dre(cfg.model, cfg.P0, grid)
    b = integrate_dre(cfg.model, cfg.Pbar, grid)
    gap = np.linalg.norm(a.values[-1] - b.values[-1], 2)
    assert gap <= 1e-3 * np.linalg.norm(cfg.P0 - cfg.Pbar, 2)


def test_uncertainty_collapses_along_decaying_direction():
    mdl = constant_model(np.diag([-1.0, 0.3]), np.eye(2), np.eye(2))
    sol = integrate_dre(mdl, np.eye(2), make_grid(20.0, 1e-3))
    v = np.array([1.0, 0.0])
    assert v @ sol.values[-1] @ v <= 1e-3 * (v @ sol.values[0] @ v)


def test_riccati_symmetry_and_eig_floor():
    cfg = builtin_scenario("rotation")
    sol = integrate_dre(cfg.model, cfg.P0, make_grid(5.0, 1e-3))
    asym = np.abs(sol.values - np.swapaxes(sol.values, 1, 2)).max()
    assert asym <= 1e-12
    assert sol.min_eigs.min() >= -1e-10
