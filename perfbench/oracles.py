"""Independent reference computations for checking kblab's CSV outputs.

Nothing here imports kblab. Documents are read with a small parser of their
own, and every reference value comes from a different route than kblab's:

* constant-coefficient scenarios (scalar ``constant`` and ``rotation_damped``)
  use the analytic transition matrix and the analytic information integral
  ``I_t = int_0^t Phi^T C^T R^-1 C Phi ds``, with ``P_t`` in information form
  ``P_t = Phi_t (P0^-1 + I_t)^-1 Phi_t^T`` (kblab uses the square-root form);
* the closed-loop propagator is ``Psi_t = P_t Phi_t^-T P0^-1`` (eps = 0);
* the ``periodic`` scenario integrates (P, Phi, I) jointly with classical RK4
  at half kblab's step.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

REL_TOL = 1e-6          # reference vs kblab, relative to max(1, |reference|)
WEIGHT_SUM_TOL = 1e-12  # mixture weights per merging.csv row
COV_SLOPE_BAND = (1.8, 2.2)
MEAN_SLOPE_BAND = (1.7, 2.3)


class Doc:
    """The fields of one config document that the references need."""

    def __init__(self, path: Path):
        entries = {}
        section = None
        for raw in Path(path).read_text(encoding="utf-8").splitlines():
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if line.startswith("["):
                section = line.strip("[]").strip()
                continue
            key, val = (p.strip() for p in line.split("=", 1))
            entries[(section, key)] = val
        self._e = entries
        self.family = entries[("model", "family")]
        self.m = int(entries[("model", "m")])
        self.n = int(entries[("model", "n")])
        self.omega = float(entries.get(("model", "omega"), "1"))
        self.damping = float(entries.get(("model", "damping"), "0"))
        for name in ("C1", "R1", "F1"):
            if ("model", f"{name}.data") in entries:
                raise ValueError(f"time-varying {name} is not covered by the references")
        self.C = self.matrix("model", "C0", self.n, self.m)
        self.R = self.matrix("model", "R0", self.n, self.n)
        self.G = self.C.T @ np.linalg.inv(self.R) @ self.C
        if self.family == "rotation_damped":
            w, d = self.omega, self.damping
            self.A0 = np.array([[-d, w], [-w, -d]])
        else:
            self.A0 = self.matrix("model", "A0", self.m, self.m)
        self.A1 = (self.matrix("model", "A1", self.m, self.m)
                   if ("model", "A1.data") in entries else np.zeros((self.m, self.m)))
        self.m0 = self.vector("init", "m0")
        self.mbar = self.vector("init", "mbar")
        self.P0 = self.matrix("init", "P0", self.m, self.m)
        self.Pbar = self.matrix("init", "Pbar", self.m, self.m)
        self.horizon = float(entries[("run", "horizon")])
        self.dt = float(entries[("run", "dt")])
        self.seed = int(entries[("run", "seed")])
        self.mc_runs = int(entries[("run", "mc_runs")])
        self.window = float(entries[("run", "uco_window")])
        self.epsilons = [float(v) for v in entries.get(("noise", "epsilons"), "").split()]
        self.n_steps = int(round(self.horizon / self.dt))
        self.window_steps = int(round(self.window / self.dt))

    def vector(self, section, name):
        return np.array([float(v) for v in self._e[(section, f"{name}.data")].split()])

    def matrix(self, section, name, rows, cols):
        return self.vector(section, name).reshape(rows, cols)


def read_csv(path: Path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], np.array(rows[1:], dtype=float)


# ---------------------------------------------------------------------------
# analytic constant-coefficient references


def _exp_integral(lam, t):
    """int_0^t e^{lam s} ds (t may be negative)."""
    return t if lam == 0.0 else math.expm1(lam * t) / lam


def phi(doc: Doc, t: float) -> np.ndarray:
    if doc.family == "rotation_damped":
        c, s = math.cos(doc.omega * t), math.sin(doc.omega * t)
        return math.exp(-doc.damping * t) * np.array([[c, s], [-s, c]])
    if doc.family == "constant" and doc.m == 1:
        return np.array([[math.exp(doc.A0[0, 0] * t)]])
    raise ValueError(f"no analytic transition matrix for {doc.family} with m={doc.m}")


def information(doc: Doc, t: float) -> np.ndarray:
    """Analytic int_0^t Phi_s^T G Phi_s ds (t may be negative)."""
    if doc.family == "constant" and doc.m == 1:
        return doc.G * _exp_integral(2.0 * doc.A0[0, 0], t)
    if doc.family != "rotation_damped":
        raise ValueError(f"no analytic information integral for {doc.family}")
    # Rot(x)^T G Rot(x) = a I + (b cos 2x - g sin 2x) K1 + (b sin 2x + g cos 2x) K2
    g = doc.G
    a, b, gg = 0.5 * (g[0, 0] + g[1, 1]), 0.5 * (g[0, 0] - g[1, 1]), g[0, 1]
    lam, fr = -2.0 * doc.damping, 2.0 * doc.omega
    e0 = _exp_integral(lam, t)
    den = lam * lam + fr * fr
    el = math.exp(lam * t)
    ec = (el * (lam * math.cos(fr * t) + fr * math.sin(fr * t)) - lam) / den
    es = (el * (lam * math.sin(fr * t) - fr * math.cos(fr * t)) + fr) / den
    k1 = np.array([[1.0, 0.0], [0.0, -1.0]])
    k2 = np.array([[0.0, 1.0], [1.0, 0.0]])
    return a * e0 * np.eye(2) + (b * ec - gg * es) * k1 + (b * es + gg * ec) * k2


class AnalyticReference:
    """P_t, Psi_t and window Gramians from closed-form Phi and I."""

    def __init__(self, doc: Doc):
        self.doc = doc

    def P(self, P0, t):
        f = phi(self.doc, t)
        return f @ np.linalg.solve(np.linalg.inv(P0) + information(self.doc, t), f.T)

    def psi(self, P0, t):
        return self.P(P0, t) @ np.linalg.inv(phi(self.doc, t)).T @ np.linalg.inv(P0)

    def gramian(self, t_end):
        # Phi_t^-T (I_t - I_{t-tau}) Phi_t^-1 = -I(-tau) for constant coefficients;
        # kblab rounds the window to whole grid steps
        return -information(self.doc, -self.doc.window_steps * self.doc.dt)


class RK4Reference:
    """Joint classical RK4 of (P, Phi, I) at half the document's step."""

    def __init__(self, doc: Doc):
        if doc.family != "periodic":
            raise ValueError("RK4Reference is for the periodic family")
        self.doc = doc
        self._paths = {}

    def _solve(self, P0):
        key = np.asarray(P0, dtype=float).tobytes()
        if key not in self._paths:
            self._paths[key] = self._integrate(np.array(P0, dtype=float))
        return self._paths[key]

    def _integrate(self, p):
        doc, g = self.doc, self.doc.G
        h = 0.5 * doc.dt

        def f(t, p, ph):
            a = doc.A0 + math.sin(doc.omega * t) * doc.A1
            return a @ p + p @ a.T - p @ g @ p, a @ ph, ph.T @ g @ ph

        ph, info = np.eye(doc.m), np.zeros((doc.m, doc.m))
        Ps, phis, infos = [p], [ph], [info]
        for k in range(2 * doc.n_steps):
            t = k * h
            k1 = f(t, p, ph)
            k2 = f(t + 0.5 * h, p + 0.5 * h * k1[0], ph + 0.5 * h * k1[1])
            k3 = f(t + 0.5 * h, p + 0.5 * h * k2[0], ph + 0.5 * h * k2[1])
            k4 = f(t + h, p + h * k3[0], ph + h * k3[1])
            p = p + (h / 6.0) * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0])
            ph = ph + (h / 6.0) * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1])
            info = info + (h / 6.0) * (k1[2] + 2.0 * k2[2] + 2.0 * k3[2] + k4[2])
            if k % 2 == 1:
                Ps.append(p)
                phis.append(ph)
                infos.append(info)
        return Ps, phis, infos

    def _node(self, t):
        return int(round(t / self.doc.dt))

    def P(self, P0, t):
        return self._solve(P0)[0][self._node(t)]

    def gramian(self, t_end):
        _, phis, infos = self._solve(self.doc.P0)
        k = self._node(t_end)
        w = self.doc.window_steps
        finv = np.linalg.inv(phis[k])
        return finv.T @ (infos[k] - infos[k - w]) @ finv


def reference_for(doc: Doc):
    return RK4Reference(doc) if doc.family == "periodic" else AnalyticReference(doc)


# ---------------------------------------------------------------------------
# checks of one subcommand's output directory; each returns a list of problems


def _rel_err(got, want):
    return float(np.max(np.abs(np.asarray(got) - np.asarray(want)))
                 / max(1.0, float(np.max(np.abs(want)))))


def check_riccati(doc: Doc, out: Path):
    _, rows = read_csv(out / "dre_path.csv")
    ref = reference_for(doc)
    worst = max(_rel_err(r[1:].reshape(doc.m, doc.m), ref.P(doc.P0, r[0])) for r in rows)
    problems = [] if worst <= REL_TOL else [f"P_t off the reference by {worst:.3e}"]
    if abs(rows[0][0]) > 0 or _rel_err(rows[0][1:].reshape(doc.m, doc.m), doc.P0) > 0:
        problems.append("dre_path.csv does not start at P0")
    return problems


def check_gramian(doc: Doc, out: Path):
    _, rows = read_csv(out / "gramian_windows.csv")
    ref = reference_for(doc)
    worst = 0.0
    for t_end, lmin, lmax in rows:
        eig = np.linalg.eigvalsh(ref.gramian(t_end))
        worst = max(worst, _rel_err([lmin, lmax], [eig[0], eig[-1]]))
    return [] if worst <= REL_TOL else [f"window Gramian eigenvalues off by {worst:.3e}"]


def check_stability_cov(doc: Doc, out: Path):
    _, rows = read_csv(out / "factorization.csv")
    ref = reference_for(doc)
    worst = 0.0
    for t, gap, _ in rows:
        want = np.linalg.norm(ref.P(doc.P0, t) - ref.P(doc.Pbar, t), 2)
        worst = max(worst, _rel_err(gap, want))
    problems = [] if worst <= REL_TOL else [f"||P_t - Pbar_t|| off by {worst:.3e}"]
    if rows[:, 2].max() > REL_TOL:
        problems.append(f"factorization residual {rows[:, 2].max():.3e} > {REL_TOL:g}")
    return problems


def check_stability_mean(doc: Doc, out: Path):
    problems = []
    d0 = doc.m0 - doc.mbar
    _, per_seed = read_csv(out / "per_seed.csv")
    seeds = [doc.seed + i for i in range(doc.mc_runs)]
    if per_seed[:, 0].tolist() != seeds:
        problems.append("per_seed.csv does not list seeds seed .. seed + mc_runs - 1")
    if _rel_err(per_seed[:, 1], np.linalg.norm(d0)) > 1e-15:
        problems.append("initial gap is not ||m0 - mbar||")
    ref = AnalyticReference(doc)
    _, path = read_csv(out / "sample_path.csv")
    worst = 0.0
    for row in path:
        want = np.linalg.norm(ref.psi(doc.Pbar, row[0]) @ d0)
        worst = max(worst, _rel_err(row[3], want))
    if worst > REL_TOL:
        problems.append(f"||Psibar_t (m0 - mbar)|| off the reference by {worst:.3e}")
    return problems


def check_nongaussian(doc: Doc, out: Path):
    header, rows = read_csv(out / "merging.csv")
    w = rows[:, [i for i, h in enumerate(header) if h.startswith("w_")]]
    worst = float(np.abs(w.sum(axis=1) - 1.0).max())
    problems = [] if worst <= WEIGHT_SUM_TOL else [f"mixture weights sum off 1 by {worst:.3e}"]
    if w.min() < 0.0:
        problems.append("negative mixture weight")
    return problems


def loglog_slope(x, y):
    lx, ly = np.log(x), np.log(y)
    dx = lx - lx.mean()
    return float(np.dot(dx, ly - ly.mean()) / np.dot(dx, dx))


def check_smallnoise(doc: Doc, out: Path):
    problems = []
    _, summary = read_csv(out / "summary.csv")
    eps = summary[:, 0]
    if eps.tolist() != sorted(doc.epsilons, reverse=True):
        problems.append("summary.csv epsilons differ from the document")
    _, sweep = read_csv(out / "sweep.csv")
    for i, e in enumerate(eps):
        cells = sweep[sweep[:, 0] == e]
        if len(cells) != doc.mc_runs or np.median(cells[:, 2]) != summary[i, 1]:
            problems.append(f"summary median at eps={e:g} differs from sweep.csv")
    cov_slope = loglog_slope(eps, summary[:, 2])
    mean_slope = loglog_slope(eps, summary[:, 1])
    if not COV_SLOPE_BAND[0] <= cov_slope <= COV_SLOPE_BAND[1]:
        problems.append(f"covariance slope {cov_slope:.3f} outside {COV_SLOPE_BAND}")
    if not MEAN_SLOPE_BAND[0] <= mean_slope <= MEAN_SLOPE_BAND[1]:
        problems.append(f"mean slope {mean_slope:.3f} outside {MEAN_SLOPE_BAND}")
    return problems


CHECKS = {
    "riccati": check_riccati,
    "gramian": check_gramian,
    "stability-cov": check_stability_cov,
    "stability-mean": check_stability_mean,
    "nongaussian": check_nongaussian,
    "smallnoise": check_smallnoise,
}
