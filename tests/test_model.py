from dataclasses import fields, is_dataclass, replace
from pathlib import Path

import numpy as np
import pytest

from kblab._integrators import coefficient_stages
from kblab.model import (
    ConfigError,
    ExperimentConfig,
    ModelValidationError,
    constant_model,
    parse_config,
    periodic_model,
    rotation_damped_model,
    serialize_config,
    validate_config,
)
from kblab.scenarios import SCENARIOS, builtin_scenario


def _bitwise_equal(a, b) -> bool:
    """Field-by-field equality of configs: same types, same bits in every float."""
    if is_dataclass(a):
        return type(a) is type(b) and all(
            _bitwise_equal(getattr(a, f.name), getattr(b, f.name)) for f in fields(a))
    if isinstance(a, np.ndarray):
        return (isinstance(b, np.ndarray) and a.dtype == b.dtype and a.shape == b.shape
                and a.tobytes() == b.tobytes())
    if isinstance(a, (tuple, list)):
        return type(a) is type(b) and len(a) == len(b) and all(map(_bitwise_equal, a, b))
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_bitwise_equal(a[k], b[k]) for k in a)
    if isinstance(a, float):
        return type(b) is float and a.hex() == b.hex()
    return type(a) is type(b) and a == b


def test_constant_schedule_at_arbitrary_time():
    mdl = constant_model(np.zeros((2, 2)), np.eye(2), np.eye(2), F=np.eye(2))
    t = 3.7
    assert np.all(mdl.A_at(t) == 0)
    assert np.array_equal(mdl.C_at(t), np.eye(2))
    assert np.array_equal(mdl.R_at(t), np.eye(2))
    assert np.array_equal(coefficient_stages(mdl, np.array([t, 4.0]))["Rinv"][0][0], np.eye(2))
    assert np.array_equal(mdl.F_at(t), np.eye(2))


def test_periodic_sine_peak():
    mdl = periodic_model([[0.0]], [[1.0]], C=[[1.0]], R=[[1.0]], omega=1.0)
    assert mdl.A_at(np.pi / 2)[0, 0] == pytest.approx(1.0, abs=1e-15)


def test_rotation_family_generator():
    mdl = rotation_damped_model(omega=1.0, damping=0.0)
    for t in (0.0, 1.3, 2.3, 7.7):
        assert np.array_equal(mdl.A_at(t), [[0.0, 1.0], [-1.0, 0.0]])
    damped = rotation_damped_model(omega=2.0, damping=0.5)
    assert np.array_equal(damped.A0, [[-0.5, 2.0], [-2.0, -0.5]])


def test_rotation_family_rejects_wrong_dimension():
    with pytest.raises(ModelValidationError):
        rotation_damped_model(1.0, 0.0, C=np.eye(3), R=np.eye(3))


def test_rinv_product_identity():
    for name in ("scalar_basic", "rotation", "periodic3"):
        cfg = builtin_scenario(name)
        times = np.union1d(np.linspace(0, 10, 23), np.linspace(0, cfg.horizon, 37))
        lo, mid, hi = times[:-1], 0.5 * (times[:-1] + times[1:]), times[1:]
        worst = 0.0
        for ts, rinv in zip((lo, mid, hi), coefficient_stages(cfg.model, times)["Rinv"]):
            worst = max(worst, np.abs(cfg.model.R_at(ts) @ rinv - np.eye(cfg.model.n)).max())
        assert worst <= 1e-12, name


def test_unknown_scenario_raises_listing_shipped_names():
    shipped = sorted(p.stem for p in (Path(__file__).resolve().parent.parent / "configs").glob("*.cfg"))
    assert shipped and list(SCENARIOS) == shipped
    with pytest.raises(KeyError) as exc:
        builtin_scenario("no_such_scenario")
    for name in shipped:
        assert name in str(exc.value)


def test_validate_flags_singular_p0():
    cfg = builtin_scenario("scalar_basic")
    from dataclasses import replace

    rep = validate_config(replace(cfg, P0=np.zeros((1, 1))))
    assert any("P0 not invertible" in m for m in rep.messages)


def test_validate_flags_bad_atom_weights():
    cfg = builtin_scenario("two_atom")
    from dataclasses import replace

    rep = validate_config(replace(cfg, atoms=(([1.0], 0.5), ([-1.0], 0.6))))
    assert any("sum 1.1" in m for m in rep.messages)


def test_grid_rejects_horizon_shorter_than_half_a_step():
    cfg = replace(builtin_scenario("scalar_basic"), horizon=0.004, dt=0.01)
    with pytest.raises(ValueError, match="shorter than one step"):
        cfg.grid()
    assert validate_config(cfg).messages == ["horizon 0.004 shorter than one step dt=0.01"]


def test_validate_flags_indefinite_r_schedule():
    mdl = periodic_model([[0.0]], [[0.0]], C=[[1.0]], R=[[0.5]], R1=[[-1.0]], omega=1.0)
    cfg = ExperimentConfig(model=mdl, horizon=10.0, dt=0.01, m0=[0.0], P0=[[1.0]])
    rep = validate_config(cfg)
    assert any("R(t) not positive definite" in m for m in rep.messages)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_builtin_scenarios_validate_clean(name):
    assert validate_config(builtin_scenario(name)).ok


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_config_roundtrip(name):
    cfg = builtin_scenario(name)
    again = parse_config(serialize_config(cfg))
    assert _bitwise_equal(cfg, again)
    # a second trip is byte-stable
    assert serialize_config(again) == serialize_config(cfg)


def test_minimal_scalar_document():
    cfg = parse_config("[model]\nm = 1\n")
    assert cfg.model.m == 1 and cfg.model.n == 1
    assert cfg.atoms == ()
    assert cfg.model.family == "constant"


def test_dimension_mismatch_reports_line():
    text = "[model]\nm = 2\nn = 2\nC0.shape = 2 3\nC0.data = 1 2 3 4 5 6\n"
    with pytest.raises(ConfigError, match=r"line 4.*dimension mismatch"):
        parse_config(text)


def test_unknown_key_reports_line():
    with pytest.raises(ConfigError, match=r"line 3.*unknown key"):
        parse_config("[model]\nm = 1\nwhatever = 3\n")


def test_malformed_number_reports_line():
    with pytest.raises(ConfigError, match=r"line \d+.*malformed number"):
        parse_config("[model]\nm = 1\n[run]\ndt = fast\n")


def test_atoms_parse_in_order():
    cfg = builtin_scenario("rotation_atoms")
    text = serialize_config(cfg)
    again = parse_config(text)
    assert len(again.atoms) == 3
    for (xa, wa), (xb, wb) in zip(cfg.atoms, again.atoms):
        assert np.array_equal(xa, xb) and wa == wb

