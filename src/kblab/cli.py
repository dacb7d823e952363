"""Scenario runner and verification harness.

Subcommands map one-to-one to the experiments: `riccati` (integration vs the
exact solution), `gramian` (windowed observability estimates), `stability-cov`
(covariance-difference factorization), `stability-mean` (mismatched-pair Monte
Carlo with the mean-gap decomposition), `nongaussian` (mixture filter vs bank
oracle plus distributional merging), `smallnoise` (eps sweep with fitted
scaling exponents), and `verify` (the acceptance criteria).

Exit codes: 0 pass, 1 threshold failure, 2 configuration error. Artifacts are
CSV tables plus a plain-text manifest; identical config and seed reproduce
identical CSV bytes.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from .csvio import timed, write_manifest, write_matrix_path, write_table
from .kalman import filter_pieces_batch, lyapunov_path, mismatched_mc, run_filter
from .model import ConfigError, ModelValidationError, parse_config, validate_config
from .nongaussian import bank_oracle, integrate_extended_system, merging_report, mixture_filter
from .propagate import closed_loop_propagator, fundamental_matrix, spectral_norms, uco_gramian
from .riccati import closed_form_dre, error_factorization_check, integrate_dre
from .simulate import generate_observation_path
from .smallnoise import epsilon_sweep, exponential_stability_estimate, fit_scaling

PASS, FAIL, CONFIG_ERROR = 0, 1, 2


def _load_config(args):
    text = Path(args.config).read_text(encoding="utf-8")
    cfg = parse_config(text)
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.dt is not None:
        overrides["dt"] = args.dt
    if args.horizon is not None:
        overrides["horizon"] = args.horizon
    if overrides:
        cfg = replace(cfg, **overrides)
    report = validate_config(cfg)
    if not report.ok:
        raise ModelValidationError(f"invalid configuration: {report}")
    return cfg


def _row_norms(x):
    """Euclidean norm of each row of x, bitwise np.linalg.norm(row): sqrt(row.dot(row))."""
    x = np.ascontiguousarray(x)
    return np.sqrt(np.matmul(x[:, None, :], x[:, :, None])[:, 0, 0])


def _verdict(name: str, ok: bool, detail: str) -> int:
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    return PASS if ok else FAIL


def _slope(value, spec: str) -> str:
    """A fitted slope, or "none" where the fit found no slope."""
    return "none" if value is None else format(value, spec)


def cmd_riccati(args) -> int:
    cfg = _load_config(args)
    t0, times = time.time(), {}
    grid = cfg.grid()
    with timed(times, "riccati"):
        sol = integrate_dre(cfg.model, cfg.P0, grid)
    with timed(times, "oracle"):
        oracle = closed_form_dre(cfg.model, cfg.P0, fundamental_matrix(cfg.model, grid))
        resid = spectral_norms(sol.values - oracle.values)
    with timed(times, "write"):
        write_matrix_path(Path(args.out) / "dre_path.csv", sol.path, "P")
        write_table(Path(args.out) / "closed_form_residual.csv", ["t", "residual"], [grid, resid])
    tol = cfg.thresholds["tol_oracle"]
    write_manifest(args.out, cfg, extra={
        "max_oracle_residual": f"{resid.max():.17g}",
        "tolerance": tol,
        "health.min_eig_P": f"{sol.min_eigs.min():.17g}",
    }, times=times, wall_time=time.time() - t0)
    return _verdict("riccati", resid.max() <= tol,
                    f"integration vs exact solution residual {resid.max():.3e} (tol {tol:g})")


def cmd_gramian(args) -> int:
    cfg = _load_config(args)
    t0, times = time.time(), {}
    grid = cfg.grid()
    with timed(times, "transition"):
        phi = fundamental_matrix(cfg.model, grid)
    with timed(times, "gramian"):
        est = uco_gramian(cfg.model, phi, cfg.uco_window)
    with timed(times, "write"):
        write_table(Path(args.out) / "gramian_windows.csv", ["t_end", "lambda_min", "lambda_max"],
                    [est.ends, est.lambda_min, est.lambda_max])
    write_manifest(args.out, cfg, extra={
        "window": f"{cfg.uco_window:.17g}",
        "rho1": f"{est.rho1:.17g}",
        "rho2": f"{est.rho2:.17g}",
        "uco_plausible": est.uco_plausible,
    }, times=times, wall_time=time.time() - t0)
    print(f"gramian: rho1 = {est.rho1:.6g}, rho2 = {est.rho2:.6g}, "
          f"UCO plausible on horizon: {est.uco_plausible}")
    return PASS


def cmd_stability_cov(args) -> int:
    cfg = _load_config(args)
    t0, times = time.time(), {}
    grid = cfg.grid()
    with timed(times, "riccati"):
        resid, mx, pieces = error_factorization_check(cfg.model, cfg.P0, cfg.Pbar, grid)
        gapn = spectral_norms(pieces["sol"].values - pieces["solbar"].values)
    with timed(times, "write"):
        write_table(Path(args.out) / "factorization.csv", ["t", "cov_gap", "residual"],
                    [grid, gapn, resid])
    tol = cfg.thresholds["tol_oracle"]
    min_eig = min(pieces[key].min_eigs.min() for key in ("sol", "solbar"))
    write_manifest(args.out, cfg, extra={
        "max_residual": f"{mx:.17g}",
        "tolerance": tol,
        "health.min_eig_P": f"{min_eig:.17g}",
    }, times=times, wall_time=time.time() - t0)
    return _verdict("stability-cov", mx <= tol,
                    f"covariance-difference factorization residual {mx:.3e} (tol {tol:g}); "
                    f"P - Pbar = Psi (P0 - Pbar0) Psibar^T holds to fourth order in dt, "
                    f"not at float precision")


def cmd_stability_mean(args) -> int:
    cfg = _load_config(args)
    t0 = time.time()
    sweep = mismatched_mc(cfg)
    times = sweep.stage_times
    # the sample path of seed cfg.seed (column 0): decomposition terms and the
    # Lyapunov value of the initial gap, which every column shares
    pair, diag = sweep.pair, sweep.diag
    with timed(times, "lyapunov"):
        v = lyapunov_path(pair.psibar, pair.runbar.pieces.riccati, pair.gap[0, :, :1])[:, 0]
    with timed(times, "write"):
        write_table(Path(args.out) / "per_seed.csv",
                    ["seed", "initial_gap", "terminal_gap", "ratio", "max_residual"],
                    [sweep.seeds, np.full(len(sweep.seeds), sweep.initial_gap),
                     sweep.terminal_gaps, sweep.terminal_gaps / sweep.initial_gap,
                     sweep.max_residuals])
        write_table(Path(args.out) / "sample_path.csv",
                    ["t", "gap_mean", "gap_cov", "term1", "znorm", "V"],
                    [pair.grid, pair.mean_gap[:, 0], pair.cov_gap,
                     _row_norms(diag.term1[:, :, 0]), _row_norms(diag.zhat[:, :, 0]), v])

    tol_ratio = cfg.thresholds["tol_terminal_gap_ratio"]
    tol_recon = cfg.thresholds["tol_reconstruction"]
    ok = sweep.worst_ratio <= tol_ratio and sweep.max_residuals.max() <= tol_recon
    # max_k ||E_k - Ebar_k||: the gain remainders behind the decomposition's third term
    remainder_gap = spectral_norms(pair.run.pieces.remainder - pair.runbar.pieces.remainder).max()
    write_manifest(args.out, cfg, seeds=sweep.seeds, extra={
        "worst_terminal_ratio": f"{sweep.worst_ratio:.17g}",
        "max_reconstruction_residual": f"{sweep.max_residuals.max():.17g}",
        "max_remainder_gap": f"{remainder_gap:.17g}",
        "max_term3": f"{np.linalg.norm(diag.term3, axis=1).max():.17g}",
    }, times=times, wall_time=time.time() - t0)
    return _verdict(
        "stability-mean", ok,
        f"terminal/initial mean gap {sweep.worst_ratio:.3e} over {len(sweep.seeds)} seeds "
        f"(tol {tol_ratio:g}); reconstruction residual {sweep.max_residuals.max():.3e} (tol {tol_recon:g})")


def cmd_nongaussian(args) -> int:
    cfg = _load_config(args)
    if not cfg.atoms:
        print("error: nongaussian requires a nonempty [atoms] section", file=sys.stderr)
        return CONFIG_ERROR
    t0, times = time.time(), {}
    with timed(times, "simulate"):
        obs = generate_observation_path(cfg)
    init = (cfg.m0, cfg.P0)
    with timed(times, "riccati"):
        pieces, refpieces = filter_pieces_batch(cfg.model, obs.grid, np.stack([cfg.P0, cfg.Pbar]))
    with timed(times, "filter"):
        mix = mixture_filter(integrate_extended_system(cfg.model, obs, init, pieces=pieces),
                             cfg.atoms)
        bank = bank_oracle(cfg.model, obs, cfg.atoms, init, pieces=pieces)
        ref = run_filter(cfg.model, obs, (cfg.mbar, cfg.Pbar), pieces=refpieces)
    freqs = [[0.5] * cfg.model.m, [1.0] * cfg.model.m, [2.0] * cfg.model.m]
    with timed(times, "merging"):
        rep = merging_report(mix, ref, freqs)

    mean_gap_eq = float(np.abs(mix.mean - bank.mean).max())
    logw_gap = float(np.abs(mix.log_weights - bank.log_weights).max())
    header = (["t", "mean_gap"] + [f"gap_cos_a{i + 1}" for i in range(len(freqs))]
              + [f"w_{i + 1}" for i in range(len(cfg.atoms))])
    with timed(times, "write"):
        write_table(Path(args.out) / "merging.csv", header,
                    [obs.grid, rep.mean_gap, rep.cos_gaps, mix.weights])
    th = cfg.thresholds
    ratios = [rep.ratios[k] for k in rep.ratios]
    ok = (mean_gap_eq <= th["tol_equivalence_mean"] and logw_gap <= th["tol_equivalence_logw"]
          and max(ratios) <= th["merging_ratio_max"])
    write_manifest(args.out, cfg, extra={
        "atoms": " | ".join(f"{x.tolist()}@{w:g}" for x, w in cfg.atoms),
        "equivalence_mean_gap": f"{mean_gap_eq:.17g}",
        "equivalence_logw_gap": f"{logw_gap:.17g}",
        **{f"ratio_{k}": f"{v:.17g}" for k, v in rep.ratios.items()},
    }, times=times, wall_time=time.time() - t0)
    return _verdict(
        "nongaussian", ok,
        f"mixture vs bank: means {mean_gap_eq:.2e} (tol {th['tol_equivalence_mean']:g}), "
        f"log-weights {logw_gap:.2e} (tol {th['tol_equivalence_logw']:g}); "
        f"merging gap ratios max {max(ratios):.2e} (tol {th['merging_ratio_max']:g})")


def cmd_smallnoise(args) -> int:
    cfg = _load_config(args)
    if len([e for e in cfg.epsilons if e > 0]) < 3:
        print("error: smallnoise requires >= 3 positive epsilons in [noise]", file=sys.stderr)
        return CONFIG_ERROR
    t0 = time.time()
    sweep = epsilon_sweep(cfg)
    fit = fit_scaling(sweep)
    est = exponential_stability_estimate(closed_loop_propagator(sweep.pieces_zero.riccati))

    with timed(sweep.stage_times, "write"):
        write_table(Path(args.out) / "sweep.csv",
                    ["epsilon", "seed", "sup_mean_gap", "sup_cov_gap"],
                    [np.repeat(sweep.epsilons, len(sweep.seeds)),
                     np.tile(sweep.seeds, len(sweep.epsilons)),
                     sweep.sup_mean_gaps.ravel(), sweep.sup_cov_gaps.ravel()])
        write_table(Path(args.out) / "summary.csv",
                    ["epsilon", "median_sup_mean_gap", "median_sup_cov_gap"],
                    [sweep.epsilons, sweep.median_mean, sweep.median_cov])

    th = cfg.thresholds
    mono = bool(np.all(np.diff(sweep.sup_mean_gaps, axis=0)
                       <= 0.05 * sweep.sup_mean_gaps[:-1]))
    # a slope of None (all median gaps 0, no fit) lies outside every band
    cov_ok = (fit.cov_slope is not None
              and th["cov_slope_lo"] <= fit.cov_slope <= th["cov_slope_hi"])
    mean_ok = (fit.mean_slope is not None
               and th["mean_slope_lo"] <= fit.mean_slope <= th["mean_slope_hi"])
    write_manifest(args.out, cfg, seeds=sweep.seeds, extra={
        "mean_slope": _slope(fit.mean_slope, ".17g"),
        "cov_slope": _slope(fit.cov_slope, ".17g"),
        "degenerate": fit.degenerate,
        "alpha": f"{est.alpha:.17g}",
        "k_fit": f"{est.k_fit:.17g}",
        "exponential_plausible": est.plausibly_exponential,
    }, times=sweep.stage_times, wall_time=time.time() - t0)
    ok = cov_ok and mean_ok and mono and est.plausibly_exponential
    if fit.degenerate:
        note = " [degenerate fit: every median sup gap is 0, so there is no slope]"
    elif not mean_ok:
        note = " [known discrepancy: measured mean-gap rate is quadratic, see README]"
    else:
        note = ""
    return _verdict(
        "smallnoise", ok,
        f"alpha {est.alpha:.3f} (exp-stable: {est.plausibly_exponential}); "
        f"cov slope {_slope(fit.cov_slope, '.3f')} "
        f"in [{th['cov_slope_lo']:g}, {th['cov_slope_hi']:g}]: {cov_ok}; "
        f"mean slope {_slope(fit.mean_slope, '.3f')} "
        f"in [{th['mean_slope_lo']:g}, {th['mean_slope_hi']:g}]: {mean_ok}{note}; monotone: {mono}")


def cmd_verify(args) -> int:
    from .checks import run_checks

    results = run_checks(args.filter)
    if not results:
        print(f"no checks match filter {args.filter!r}")
        return CONFIG_ERROR
    width = max(len(r.name) for r in results)
    failed = 0
    for r in results:
        print(f"{r.status:<40} {r.name:<{width}}  [{r.elapsed:.1f}s]")
        print(f"{'':<4}{r.detail}")
        if not r.passed:
            failed += 1
    print(f"\n{len(results) - failed}/{len(results)} checks passed")
    if failed:
        known = sum(1 for r in results if not r.passed and r.known_fail)
        if known:
            print(f"({known} failing check(s) are documented known discrepancies; see README)")
    return PASS if failed == 0 else FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kblab",
        description="Continuous-time Kalman-Bucy filtering laboratory",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text, needs_config=True):
        p = sub.add_parser(name, help=help_text)
        if needs_config:
            p.add_argument("--config", required=True, help="scenario configuration document")
            p.add_argument("--out", default=f"out/{name}", help="artifact directory")
            p.add_argument("--seed", type=int, default=None, help="override the config seed")
            p.add_argument("--dt", type=float, default=None, help="override the config step")
            p.add_argument("--horizon", type=float, default=None, help="override the horizon")
        p.set_defaults(fn=fn)
        return p

    add("riccati", cmd_riccati,
        "integrate the covariance flow and compare against its exact solution")
    add("gramian", cmd_gramian,
        "windowed observability Gramian eigenvalue estimates and UCO verdict")
    add("stability-cov", cmd_stability_cov,
        "covariance-difference factorization through the closed-loop propagators")
    add("stability-mean", cmd_stability_mean,
        "mismatched-initialization Monte Carlo: mean-gap decay and decomposition")
    add("nongaussian", cmd_nongaussian,
        "mixture posterior vs bank-of-filters oracle and distributional merging")
    add("smallnoise", cmd_smallnoise,
        "eps-noise sweep: sup-path gaps against the zero-noise-gain filter")
    v = add("verify", cmd_verify, "run the acceptance criteria", needs_config=False)
    v.add_argument("--filter", default=None, help="run only checks whose name contains this text")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, ModelValidationError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return CONFIG_ERROR


if __name__ == "__main__":
    sys.exit(main())
