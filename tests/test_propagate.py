import numpy as np
import pytest

from kblab.model import constant_model, rotation_damped_model
from kblab.propagate import (
    MatrixPath,
    accumulated_information,
    closed_loop_propagator,
    fundamental_matrix,
    make_grid,
    psi_decay_integral,
    spectral_norms,
    uco_gramian,
)
from kblab.riccati import integrate_dre
from kblab.scenarios import builtin_scenario


def test_matrix_path_rejects_bad_grid():
    with pytest.raises(ValueError):
        MatrixPath(np.array([0.0, 0.0, 1.0]), np.zeros((3, 1, 1)))
    with pytest.raises(ValueError):
        MatrixPath(np.array([0.0, 1.0]), np.zeros((3, 1, 1)))


def test_phi_zero_generator_is_identity():
    mdl = constant_model(np.zeros((3, 3)), np.eye(3), np.eye(3))
    phi = fundamental_matrix(mdl, make_grid(2.0, 0.01))
    assert np.abs(phi.values - np.eye(3)).max() == 0.0


def test_phi_scalar_exponential():
    mdl = constant_model([[1.0]], [[1.0]], [[1.0]])
    phi = fundamental_matrix(mdl, make_grid(1.0, 1e-3))
    assert abs(phi.values[-1, 0, 0] - np.e) <= 1e-9
    assert phi.values[0, 0, 0] == 1.0


def test_phi_rotation_quarter_turn():
    mdl = rotation_damped_model(omega=1.0, damping=0.0)
    grid = make_grid(np.pi / 2, np.pi / 2 / 2000)
    phi = fundamental_matrix(mdl, grid)
    assert np.abs(phi.values[-1] - np.array([[0.0, 1.0], [-1.0, 0.0]])).max() <= 1e-9


def test_phi_cocycle_property():
    mdl = builtin_scenario("periodic3").model
    grid = make_grid(5.0, 1e-3)
    phi = fundamental_matrix(mdl, grid)
    restart = grid[grid >= 2.0 - 1e-12]
    seg = fundamental_matrix(mdl, restart)
    err = np.abs(seg.values[-1] @ phi.values[len(grid) - len(restart)] - phi.values[-1]).max()
    assert err <= 1e-8


def test_phi_refinement_is_fourth_order():
    mdl = constant_model([[1.0]], [[1.0]], [[1.0]])
    errs = [abs(fundamental_matrix(mdl, make_grid(1.0, dt)).values[-1, 0, 0] - np.e)
            for dt in (0.02, 0.01)]
    assert 8.0 <= errs[0] / errs[1] <= 32.0


def test_info_constant_integrand():
    mdl = constant_model(np.zeros((2, 2)), np.eye(2), np.eye(2))
    grid = make_grid(3.0, 1e-3)
    info = accumulated_information(mdl, fundamental_matrix(mdl, grid))
    assert np.abs(info.values - grid[:, None, None] * np.eye(2)).max() <= 1e-12


def test_info_zero_observation():
    mdl = constant_model(np.zeros((2, 2)), np.zeros((2, 2)), np.eye(2))
    grid = make_grid(3.0, 1e-2)
    info = accumulated_information(mdl, fundamental_matrix(mdl, grid))
    assert np.abs(info.values).max() == 0.0


def test_info_exponential_value():
    mdl = constant_model([[1.0]], [[1.0]], [[1.0]])
    grid = make_grid(1.0, 1e-3)
    info = accumulated_information(mdl, fundamental_matrix(mdl, grid))
    assert abs(info.values[-1, 0, 0] - (np.e ** 2 - 1) / 2) <= 1e-8


def test_info_psd_monotone():
    mdl = builtin_scenario("periodic3").model
    grid = make_grid(5.0, 1e-3)
    info = accumulated_information(mdl, fundamental_matrix(mdl, grid))
    inc = np.diff(info.values, axis=0)
    assert np.linalg.eigvalsh(inc)[:, 0].min() >= -1e-12


def test_uco_constant_identity_windows():
    mdl = constant_model(np.zeros((2, 2)), np.eye(2), np.eye(2))
    phi = fundamental_matrix(mdl, make_grid(10.0, 1e-2))
    est = uco_gramian(mdl, phi, 2.0)
    assert est.rho1 == pytest.approx(2.0, abs=1e-8)
    assert est.rho2 == pytest.approx(2.0, abs=1e-8)
    assert est.uco_plausible


def test_uco_unobservable_system():
    mdl = constant_model(np.zeros((2, 2)), np.zeros((2, 2)), np.eye(2))
    phi = fundamental_matrix(mdl, make_grid(4.0, 1e-2))
    est = uco_gramian(mdl, phi, 1.0)
    assert est.rho1 == 0.0 and est.rho2 == 0.0
    assert not est.uco_plausible


def test_uco_partial_observation_rank_deficient():
    mdl = constant_model(np.zeros((2, 2)), [[1.0, 0.0]], [[1.0]])
    phi = fundamental_matrix(mdl, make_grid(4.0, 1e-2))
    est = uco_gramian(mdl, phi, 1.0)
    assert abs(est.rho1) <= 1e-12
    assert est.rho2 == pytest.approx(1.0, abs=1e-8)
    assert not est.uco_plausible


def test_uco_partial_observation_over_full_rotation_periods():
    # C = [1 0] on a rotation: each window of whole periods sees every direction
    cfg = builtin_scenario("rotation_partial")
    phi = fundamental_matrix(cfg.model, cfg.grid())
    est = uco_gramian(cfg.model, phi, cfg.uco_window)
    assert est.uco_plausible
    assert abs(est.rho1 - np.pi) < 1e-2


def test_uco_singular_fundamental_matrix_raises():
    mdl = constant_model(np.diag([3.0, -3.0]), np.eye(2), np.eye(2))
    phi = fundamental_matrix(mdl, make_grid(12.0, 1e-2))
    with pytest.raises(FloatingPointError, match="singular"):
        uco_gramian(mdl, phi, 1.0)


def test_uco_window_validation():
    mdl = constant_model([[0.0]], [[1.0]], [[1.0]])
    phi = fundamental_matrix(mdl, make_grid(2.0, 0.1))
    with pytest.raises(ValueError):
        uco_gramian(mdl, phi, 0.01)
    with pytest.raises(ValueError):
        uco_gramian(mdl, phi, 5.0)
    with pytest.raises(ValueError):
        uco_gramian(mdl, phi, 1.0, normalize="middle")


def test_uco_start_vs_end_anchoring():
    # scalar A=0, C=R=1, p0=1: end-anchored window value is (1+t)/t >= 1,
    # start-anchored is (1+t)/(2+t) <= 1 with minimum 1/2 at t=0.
    mdl = constant_model([[0.0]], [[1.0]], [[1.0]])
    grid = make_grid(30.0, 1e-3)
    sol = integrate_dre(mdl, [[1.0]], grid)
    psi = closed_loop_propagator(sol)
    end = uco_gramian(mdl, psi, 1.0, normalize="end", free_flow=False)
    start = uco_gramian(mdl, psi, 1.0, normalize="start", free_flow=False)
    assert end.rho1 == pytest.approx((1 + 30.0) / 30.0, rel=1e-5)
    assert start.rho1 == pytest.approx(0.5, rel=1e-3)


def test_psi_decay_scalar_integral_and_bound():
    mdl = constant_model([[0.0]], [[1.0]], [[1.0]])
    grid = make_grid(100.0, 1e-3)
    sol = integrate_dre(mdl, [[1.0]], grid)
    psi = closed_loop_propagator(sol)
    integral, tails = psi_decay_integral(psi)
    assert 0.989 <= integral[0, 0] <= 0.9902
    assert tails[0][1] <= 0.011
    # analytic admissible constant: every end-anchored window integral >= 1
    assert integral[0, 0] <= 1.0


def test_psi_decay_unobservable_grows():
    mdl = constant_model([[0.0]], [[0.0]], [[1.0]])
    grid = make_grid(10.0, 1e-2)
    sol = integrate_dre(mdl, [[1.0]], grid)
    psi = closed_loop_propagator(sol)
    integral, tails = psi_decay_integral(psi)
    assert integral[0, 0] == pytest.approx(10.0, abs=1e-9)
    assert tails[0][1] >= 4.9  # tail mass does not shrink


def test_closed_loop_zero_observation_equals_phi():
    mdl = constant_model([[0.0, 1.0], [-1.0, 0.0]], np.zeros((2, 2)), np.eye(2))
    grid = make_grid(3.0, 1e-3)
    sol = integrate_dre(mdl, np.eye(2), grid)
    psi = closed_loop_propagator(sol)
    phi = fundamental_matrix(mdl, grid)
    assert np.abs(psi.values - phi.values).max() <= 1e-12



def test_spectral_norms_of_1x1_stacks_are_the_svd_values_bitwise():
    # |x| for m = 1 is bitwise the SVD's value over magnitudes 1e-30 to 1e30
    rng = np.random.default_rng(7)
    vals = rng.standard_normal(200_000) * 10.0 ** rng.uniform(-30.0, 30.0, 200_000)
    vals[:4] = [0.0, -0.0, 1.0, -1.0]
    stack = vals.reshape(-1, 1, 1)
    norms = spectral_norms(stack)
    assert norms.shape == (200_000,)
    assert np.array_equal(norms, np.linalg.norm(stack, ord=2, axis=(1, 2)))
    # m >= 2 keeps the SVD
    mats = rng.standard_normal((100, 2, 2))
    assert np.array_equal(spectral_norms(mats), np.linalg.norm(mats, ord=2, axis=(1, 2)))
