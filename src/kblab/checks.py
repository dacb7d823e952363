"""Acceptance criteria: the paper's stability claims as a runnable registry.

Each check returns (passed, detail). The registry holds only the acceptance
criteria; every unit-level assertion lives in tests/. `kblab verify` runs the
registry without pytest, and tests/test_acceptance.py runs each entry as one
test. The small-noise sweep is cached per process because two criteria share
it.

One check is registered with known_fail=True: the small-noise mean-gap slope
band [0.7, 1.3]. The measured slope is ~2.0 — the filter-gain difference is
driven by the covariance gap, itself O(eps^2), so the mean gap inherits the
quadratic rate; the linear band reflects a loose a-priori bound, not the
achievable rate. The check asserts the band unchanged and is expected to fail.
"""

from __future__ import annotations

import contextlib
import io
import tempfile
import time
from dataclasses import dataclass, replace
from functools import cache
from pathlib import Path

import numpy as np

from .kalman import (
    filter_pieces,
    lyapunov_increments,
    mismatched_mc,
    run_filter,
    window_decrease_margin,
)
from .model import constant_model, make_grid, serialize_config
from .nongaussian import bank_oracle, integrate_extended_system, merging_report, mixture_filter
from .propagate import (
    closed_loop_propagator,
    fundamental_matrix,
    psi_decay_integral,
    spectral_norms,
    uco_gramian,
)
from .riccati import (
    closed_form_dre,
    error_factorization_check,
    integrate_dre,
    integrate_dre_batch,
)
from .scenarios import builtin_scenario
from .simulate import generate_observation_path
from .smallnoise import epsilon_sweep, exponential_stability_estimate, fit_scaling


@dataclass
class Check:
    name: str
    fn: object
    known_fail: bool = False


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str
    known_fail: bool = False
    elapsed: float = 0.0

    @property
    def status(self) -> str:
        if self.passed:
            return "PASS"
        return "FAIL (known discrepancy, see README)" if self.known_fail else "FAIL"


CHECKS: list[Check] = []


def check(name, known_fail=False):
    def wrap(fn):
        CHECKS.append(Check(name=name, fn=fn, known_fail=known_fail))
        return fn
    return wrap


def run_checks(name_filter: str | None = None) -> list[CheckResult]:
    results = []
    for c in CHECKS:
        if name_filter and name_filter not in c.name:
            continue
        t0 = time.time()
        known_fail = c.known_fail
        try:
            passed, detail = c.fn()
        except Exception as exc:  # a crashed check is a failed check, never a known one
            passed, detail, known_fail = False, f"raised {type(exc).__name__}: {exc}", False
        results.append(CheckResult(name=c.name, passed=bool(passed), detail=detail,
                                   known_fail=known_fail, elapsed=time.time() - t0))
    return results


@check("criterion-1-riccati-oracle")
def _check_criterion1():
    t0 = time.time()
    rng = np.random.default_rng(2024)
    worst = 0.0
    families = (
        constant_model([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.2], [0.0, -0.1, -0.3]], np.eye(3), np.eye(3)),
        builtin_scenario("periodic3").model,
        builtin_scenario("rotation").model,
    )
    grid = make_grid(5.0, 1e-3)
    for mdl in families:
        m = mdl.m
        phi = fundamental_matrix(mdl, grid)
        roots = [rng.standard_normal((m, m)) for _ in range(3)]
        P0s = np.stack([L @ L.T + 0.1 * np.eye(m) for L in roots])
        for P0, sol in zip(P0s, integrate_dre_batch(mdl, P0s, grid)):
            cf = closed_form_dre(mdl, P0, phi)
            worst = max(worst, float(spectral_norms(sol.values - cf.values).max()))
    elapsed = time.time() - t0
    ok = worst <= 1e-6 and elapsed <= 10.0
    return ok, (f"DRE vs closed form on [0,5], dt=1e-3, 3 seeded SPD P0 per family: "
                f"worst spectral-norm gap {worst:.2e} (tol 1e-6), runtime {elapsed:.1f}s (limit 10s)")


@check("criterion-2-scalar-analytic-suite")
def _check_criterion2():
    grid = make_grid(1.0, 1e-3)
    mdl0 = constant_model([[0.0]], [[1.0]], [[1.0]])
    mdl1 = constant_model([[1.0]], [[1.0]], [[1.0]])
    e_p0 = np.abs(integrate_dre(mdl0, [[1.0]], grid).values[:, 0, 0] - 1.0 / (1.0 + grid)).max()
    ea = np.exp(2 * grid) / (1.0 + (np.exp(2 * grid) - 1.0) / 2.0)
    e_p1 = np.abs(integrate_dre(mdl1, [[1.0]], grid).values[:, 0, 0] - ea).max()
    g3 = make_grid(3.0, 1e-3)
    sol = integrate_dre(mdl0, [[1.0]], g3)
    e_psi = np.abs(closed_loop_propagator(sol).values[:, 0, 0] - 1.0 / (1.0 + g3)).max()
    _, e_fac, _ = error_factorization_check(mdl0, [[1.0]], [[2.0]], grid)
    ok = e_p0 <= 1e-8 and e_p1 <= 1e-8 and e_psi <= 1e-8 and e_fac <= 1e-8
    return ok, (f"p (A=0) {e_p0:.1e}, p (A=1) {e_p1:.1e}, Psi {e_psi:.1e}, "
                f"factorization residual {e_fac:.1e} (all tol 1e-8)")


@check("criterion-3-psi-decay")
def _check_criterion3():
    mdl = constant_model([[0.0]], [[1.0]], [[1.0]])
    grid = make_grid(100.0, 1e-3)
    sol = integrate_dre(mdl, [[1.0]], grid)
    psi = closed_loop_propagator(sol)
    integral, tails = psi_decay_integral(psi)
    integral = float(integral[0, 0])
    rho3 = float(uco_gramian(mdl, psi, 1.0, normalize="start", free_flow=False).rho1)
    bound = 1.0 / rho3  # window=1, P^-1=1
    in_window = 0.989 <= integral <= 0.9902
    tail_ok = tails[0][1] <= 0.011
    ok = in_window and integral <= bound and tail_ok
    return ok, (f"int_0^100 Psi^2 = {integral:.7f} in [0.989, 0.9902]; bound window*P^-1/rho3 = "
                f"{bound:.4f} (start-anchored rho3 = {rho3:.4f}); tail int_50^100 = {tails[0][1]:.6f} <= 0.011")


@check("criterion-4-mean-convergence")
def _check_criterion4():
    details = []
    ok = True
    total = 0.0
    for name in ("scalar_unstable", "rotation"):
        cfg = builtin_scenario(name)
        t0 = time.time()
        sweep = mismatched_mc(cfg)
        total += time.time() - t0
        ok = ok and sweep.worst_ratio <= 1e-3 and sweep.max_residuals.max() <= 1e-6
        details.append(f"{name}: T=50 gap ratio max-over-20-seeds {sweep.worst_ratio:.2e} "
                       f"(tol 1e-3), reconstruction residual {sweep.max_residuals.max():.2e} (tol 1e-6)")
    ok = ok and total <= 60.0
    details.append(f"runtime {total:.1f}s (limit 60s)")
    return ok, "; ".join(details)


@check("criterion-5-lyapunov")
def _check_criterion5():
    details = []
    ok = True
    for name in ("scalar_basic", "rotation", "periodic3"):
        cfg = builtin_scenario(name)
        grid = make_grid(min(cfg.horizon, 20.0), cfg.dt)
        pieces = filter_pieces(cfg.model, grid, cfg.Pbar)
        psi = closed_loop_propagator(pieces.riccati)
        z0s = np.random.default_rng(0).standard_normal((cfg.model.m, 10))
        inc = lyapunov_increments(psi, pieces.riccati, z0s)
        rho3 = uco_gramian(cfg.model, psi, cfg.uco_window, normalize="start", free_flow=False).rho1
        margin = window_decrease_margin(psi, pieces.riccati, z0s, cfg.uco_window)
        ok = ok and inc <= 1e-9 and margin >= 0.9 * rho3
        details.append(f"{name}: max V increment {inc:.1e} (slack 1e-9), window drop/||z||^2 "
                       f">= {margin:.3f} vs 0.9*rho3 = {0.9 * rho3:.3f}")
    return ok, "; ".join(details)


@check("criterion-6-nongaussian")
def _check_criterion6():
    # mixture posterior == bank of filters, over seeded paths of two scenarios
    wm, ww, count = 0.0, 0.0, 0
    exts = {}
    for name in ("two_atom_neutral", "rotation_atoms"):
        cfg = builtin_scenario(name)
        init = (cfg.m0, cfg.P0)
        pieces = filter_pieces(cfg.model, cfg.grid(), cfg.P0)
        for ds in range(5):
            obs = generate_observation_path(cfg, seed=cfg.seed + ds)
            ext = integrate_extended_system(cfg.model, obs, init, pieces=pieces)
            mix = mixture_filter(ext, cfg.atoms)
            bank = bank_oracle(cfg.model, obs, cfg.atoms, init, pieces=pieces)
            wm = max(wm, float(np.abs(mix.mean - bank.mean).max()))
            ww = max(ww, float(np.abs(mix.log_weights - bank.log_weights).max()))
            exts.setdefault(name, ext)
            count += 1

    # merging with a wrongly initialized Gaussian filter on two_atom
    cfg = builtin_scenario("two_atom")
    obs = generate_observation_path(cfg)
    exts["two_atom"] = integrate_extended_system(cfg.model, obs, (cfg.m0, cfg.P0))
    mix = mixture_filter(exts["two_atom"], cfg.atoms)
    ref = run_filter(cfg.model, obs, (cfg.mbar, cfg.Pbar))
    rep = merging_report(mix, ref, [[0.5], [1.0], [2.0]])
    ratios = [rep.ratios["mean"]] + [rep.ratios[f"cos_{i}"] for i in range(3)]

    # the coupling G_t, the running product of the sweep's closed-loop steps, is
    # Psi_t = P_t Phi_t^{-T} P0^{-1} (eps = 0) with P_t from the closed-form solution
    gworst = 0.0
    for name, ext in exts.items():
        cfg = builtin_scenario(name)
        phi = fundamental_matrix(cfg.model, ext.cov.grid)
        p = closed_form_dre(cfg.model, cfg.P0, phi).values
        psi = p @ np.linalg.inv(phi.values).swapaxes(1, 2) @ np.linalg.inv(cfg.P0)
        gworst = max(gworst, float(np.abs(ext.propagator - psi).max()))

    ok = (wm <= 1e-6 and ww <= 1e-8 and gworst <= 1e-6 and max(ratios) <= 0.1)
    return ok, (f"equivalence over {count} scenarios: means {wm:.1e}/1e-6, log-weights {ww:.1e}/1e-8; "
                f"propagator identity vs P Phi^-T P0^-1 {gworst:.1e}/1e-6; two-atom gap(30)/gap(1) "
                f"ratios mean {ratios[0]:.1e}, cos {max(ratios[1:]):.1e} (tol 0.1, reference (5,3))")


@cache
def _smallnoise_run():
    cfg = builtin_scenario("smallnoise_stable")
    t0 = time.time()
    sweep = epsilon_sweep(cfg)
    fit = fit_scaling(sweep)
    est = exponential_stability_estimate(closed_loop_propagator(sweep.pieces_zero.riccati))
    return sweep, fit, est, time.time() - t0


@check("criterion-7-smallnoise-protocol")
def _check_criterion7():
    sweep, fit, est, elapsed = _smallnoise_run()
    slack = np.diff(sweep.sup_mean_gaps, axis=0) <= 0.05 * sweep.sup_mean_gaps[:-1]
    mono = bool(np.all(slack)) and bool(np.all(np.diff(sweep.sup_cov_gaps, axis=0) <= 0.0))
    ok = est.plausibly_exponential and 1.8 <= fit.cov_slope <= 2.2 and mono and elapsed <= 120.0
    return ok, (f"alpha = {est.alpha:.3f} > 0 confirmed; cov-gap slope {fit.cov_slope:.3f} in [1.8, 2.2]; "
                f"per-seed gaps monotone in eps (5% slack): {mono}; runtime {elapsed:.1f}s (limit 120s)")


@check("criterion-7-mean-slope-band", known_fail=True)
def _check_criterion7_mean():
    sweep, fit, _, _ = _smallnoise_run()
    ok = 0.7 <= fit.mean_slope <= 1.3
    return ok, (f"mean-gap slope {fit.mean_slope:.3f} vs required band [0.7, 1.3]; measured rate is "
                f"quadratic (gain difference is the covariance gap, O(eps^2)); medians "
                f"{np.array2string(sweep.median_mean, precision=2)}")


@check("criterion-8-byte-identical-artifacts")
def _check_criterion8():
    from . import cli

    base = replace(builtin_scenario("scalar_basic"), horizon=2.0, mc_runs=3)
    configs = {
        "riccati": base,
        "gramian": base,
        "stability-cov": base,
        "stability-mean": base,
        "nongaussian": replace(builtin_scenario("two_atom_neutral"), horizon=2.0),
        "smallnoise": replace(builtin_scenario("smallnoise_stable"), horizon=2.0, mc_runs=3),
    }
    pairs = {}
    with tempfile.TemporaryDirectory() as tmp:
        for sub, cfg in configs.items():
            cfgpath = Path(tmp) / f"{sub}.cfg"
            cfgpath.write_text(serialize_config(cfg))
            digests = []
            for run_idx in range(2):
                out = Path(tmp) / f"{sub}-{run_idx}"
                # the subcommands' own PASS/FAIL verdicts are not this check's output
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli.main([sub, "--config", str(cfgpath), "--out", str(out)])
                if code == 2:
                    return False, f"{sub} exited with config error"
                digests.append({p.name: p.read_bytes() for p in sorted(out.glob("*.csv"))})
            if not digests[0] or digests[0] != digests[1]:
                return False, f"{sub}: CSV bytes differ between identical runs"
            pairs[sub] = len(digests[0])
    return True, ("every subcommand re-run byte-identical: "
                  + ", ".join(f"{k} ({v} CSVs)" for k, v in pairs.items()))


@check("criterion-9-grid-order")
def _check_criterion9():
    dts = (0.02, 0.01)
    growth = constant_model([[1.0]], [[1.0]], [[1.0]])
    phi_errs = [abs(fundamental_matrix(growth, make_grid(1.0, dt)).values[-1, 0, 0] - np.e)
                for dt in dts]
    neutral = constant_model([[0.0]], [[1.0]], [[1.0]])
    ric_errs = [abs(integrate_dre(neutral, [[1.0]], make_grid(1.0, dt)).values[-1, 0, 0] - 0.5)
                for dt in dts]
    r_phi = phi_errs[0] / phi_errs[1]
    r_ric = ric_errs[0] / ric_errs[1]
    ok = 8.0 <= r_phi <= 32.0 and 8.0 <= r_ric <= 32.0
    return ok, (f"Phi error ratio dt 0.02/0.01 = {r_phi:.2f}; "
                f"Riccati error ratio dt 0.02/0.01 = {r_ric:.2f}")


__all__ = ["CHECKS", "Check", "CheckResult", "check", "run_checks"]
