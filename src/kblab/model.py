"""Time-varying linear model definitions, experiment configuration and validation.

A model is a set of coefficient schedules A(t), C(t), R(t), F(t) for the signal
process dx = A x dt (+ eps F dV) observed through dy = C x dt + R^{1/2} dW.
Three builtin schedule families are supported:

* ``constant``        -- X(t) = X0 for every coefficient.
* ``periodic``        -- X(t) = X0 + sin(omega t) X1.
* ``rotation_damped`` -- m = 2, A = [[-d, w], [-w, -d]] (skew rotation with
  diagonal damping d; d < 0 gives growing dynamics), C/R/F constant.

Configurations are plain UTF-8 ``key = value`` documents with sections
[model], [init], [atoms], [noise], [run]; matrices are given row-major as
``name.shape = rows cols`` plus ``name.data = v1 v2 ...``, vectors as
``name.data`` alone. Comments start with ``#``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

FAMILIES = ("constant", "periodic", "rotation_damped")

# default numeric tolerances / thresholds; overridable per config via [run] keys
DEFAULT_THRESHOLDS = {
    "tol_oracle": 1e-6,            # DRE integration vs closed form, spectral norm
    "tol_reconstruction": 1e-6,    # mean-decomposition identity residual
    "tol_terminal_gap_ratio": 1e-3,  # mismatched-pair terminal/initial mean gap
    "tol_equivalence_mean": 1e-6,  # mixture vs bank means
    "tol_equivalence_logw": 1e-8,  # mixture vs bank log-weights
    "merging_ratio_max": 0.1,      # gap(T)/gap(1) for merging evidence
    "cov_slope_lo": 1.8,
    "cov_slope_hi": 2.2,
    "mean_slope_lo": 0.7,
    "mean_slope_hi": 1.3,
    "bound_magnitude": 1e6,        # coefficient magnitude bound checked on the grid
}


class ModelValidationError(ValueError):
    """A model or configuration violates a standing assumption."""


class ConfigError(ValueError):
    """A configuration document could not be parsed.

    Carries the offending line number and text when available.
    """

    def __init__(self, message, line_no=None, line=None):
        self.line_no = line_no
        self.line = line
        if line_no is not None:
            message = f"line {line_no}: {message} [{line!r}]"
        super().__init__(message)


def _as_matrix(x, rows, cols, name):
    a = np.asarray(x, dtype=float)
    if a.shape != (rows, cols):
        raise ModelValidationError(f"{name} must have shape ({rows}, {cols}), got {a.shape}")
    return a


@dataclass(frozen=True)
class LtvModel:
    """Evaluatable coefficient schedules with dimensions (m, n)."""

    m: int
    n: int
    family: str
    A0: np.ndarray
    C0: np.ndarray
    R0: np.ndarray
    F0: np.ndarray
    A1: np.ndarray | None = None
    C1: np.ndarray | None = None
    R1: np.ndarray | None = None
    F1: np.ndarray | None = None
    omega: float = 1.0
    damping: float = 0.0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ModelValidationError(f"unknown family {self.family!r}; expected one of {FAMILIES}")
        m, n = self.m, self.n
        if m <= 0 or n <= 0:
            raise ModelValidationError("dimensions m, n must be positive")
        if self.family == "rotation_damped" and m != 2:
            raise ModelValidationError("rotation_damped is a 2x2 family; m must be 2")
        object.__setattr__(self, "A0", _as_matrix(self.A0, m, m, "A0"))
        object.__setattr__(self, "C0", _as_matrix(self.C0, n, m, "C0"))
        object.__setattr__(self, "R0", _as_matrix(self.R0, n, n, "R0"))
        object.__setattr__(self, "F0", _as_matrix(self.F0, m, m, "F0"))
        for nm, rows, cols in (("A1", m, m), ("C1", n, m), ("R1", n, n), ("F1", m, m)):
            v = getattr(self, nm)
            if v is not None:
                object.__setattr__(self, nm, _as_matrix(v, rows, cols, nm))
        if self.family == "rotation_damped":
            w, d = self.omega, self.damping
            object.__setattr__(self, "A0", np.array([[-d, w], [-w, -d]], dtype=float))
            object.__setattr__(self, "A1", None)

    # -- schedule evaluation; t may be a scalar or an array of times ---------

    def _sched(self, base, mod, t):
        t = np.asarray(t, dtype=float)
        if mod is None or self.family == "constant":
            return np.broadcast_to(base, t.shape + base.shape).copy()
        s = np.sin(self.omega * t)
        return base + s[..., None, None] * mod

    def A_at(self, t):
        return self._sched(self.A0, self.A1, t)

    def C_at(self, t):
        return self._sched(self.C0, self.C1, t)

    def R_at(self, t):
        return self._sched(self.R0, self.R1, t)

    def F_at(self, t):
        return self._sched(self.F0, self.F1, t)


# ---------------------------------------------------------------------------
# model constructors


def constant_model(A, C, R, F=None) -> LtvModel:
    A = np.atleast_2d(np.asarray(A, dtype=float))
    C = np.atleast_2d(np.asarray(C, dtype=float))
    R = np.atleast_2d(np.asarray(R, dtype=float))
    m = A.shape[0]
    n = C.shape[0]
    if F is None:
        F = np.eye(m)
    return LtvModel(m=m, n=n, family="constant", A0=A, C0=C, R0=R, F0=np.atleast_2d(F))


def periodic_model(A0, A1, C, R, omega=1.0, F=None, C1=None, R1=None, F1=None) -> LtvModel:
    A0 = np.atleast_2d(np.asarray(A0, dtype=float))
    m = A0.shape[0]
    C = np.atleast_2d(np.asarray(C, dtype=float))
    if F is None:
        F = np.eye(m)
    return LtvModel(
        m=m, n=C.shape[0], family="periodic",
        A0=A0, A1=np.atleast_2d(A1), C0=C, C1=C1, R0=np.atleast_2d(R), R1=R1,
        F0=np.atleast_2d(F), F1=F1, omega=float(omega),
    )


def rotation_damped_model(omega, damping, C=None, R=None, F=None) -> LtvModel:
    C = np.eye(2) if C is None else np.atleast_2d(np.asarray(C, dtype=float))
    R = np.eye(C.shape[0]) if R is None else np.atleast_2d(np.asarray(R, dtype=float))
    F = np.eye(2) if F is None else np.atleast_2d(F)
    return LtvModel(
        m=2, n=C.shape[0], family="rotation_damped",
        A0=np.zeros((2, 2)), C0=C, R0=R, F0=F,
        omega=float(omega), damping=float(damping),
    )


# ---------------------------------------------------------------------------
# experiment configuration


def make_grid(horizon: float, dt: float) -> np.ndarray:
    """Uniform grid 0, dt, ..., K*dt with K = round(horizon/dt)."""
    n_steps = int(round(horizon / dt))
    if n_steps < 1:
        raise ValueError(f"horizon {horizon} shorter than one step dt={dt}")
    return np.arange(n_steps + 1) * dt


@dataclass(frozen=True)
class ExperimentConfig:
    model: LtvModel
    horizon: float
    dt: float
    substeps: int = 10
    seed: int = 0
    m0: np.ndarray = None
    P0: np.ndarray = None
    mbar: np.ndarray = None
    Pbar: np.ndarray = None
    atoms: tuple = ()          # tuple of (x_i: m-vector, pi_i: float)
    epsilons: tuple = ()
    mc_runs: int = 20
    uco_window: float = 1.0
    thresholds: dict = field(default_factory=dict)

    def __post_init__(self):
        m = self.model.m
        object.__setattr__(self, "m0", np.zeros(m) if self.m0 is None else np.asarray(self.m0, float).reshape(m))
        object.__setattr__(self, "P0", np.eye(m) if self.P0 is None else _as_matrix(self.P0, m, m, "P0"))
        object.__setattr__(self, "mbar", self.m0.copy() if self.mbar is None else np.asarray(self.mbar, float).reshape(m))
        object.__setattr__(self, "Pbar", self.P0.copy() if self.Pbar is None else _as_matrix(self.Pbar, m, m, "Pbar"))
        atoms = tuple((np.asarray(x, float).reshape(m), float(w)) for x, w in self.atoms)
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "epsilons", tuple(float(e) for e in self.epsilons))
        th = dict(DEFAULT_THRESHOLDS)
        th.update(self.thresholds)
        object.__setattr__(self, "thresholds", th)

    def grid(self) -> np.ndarray:
        return make_grid(self.horizon, self.dt)

    def config_hash(self) -> str:
        return hashlib.sha256(serialize_config(self).encode()).hexdigest()[:16]


@dataclass
class ValidationReport:
    messages: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.messages

    def add(self, msg: str):
        self.messages.append(msg)

    def __str__(self):
        return "ok" if self.ok else "; ".join(self.messages)


def validate_config(cfg: ExperimentConfig) -> ValidationReport:
    """Check every numerically checkable standing assumption on the run grid."""
    rep = ValidationReport()
    if cfg.dt <= 0:
        rep.add(f"dt must be positive, got {cfg.dt}")
        return rep
    if cfg.horizon < cfg.dt:
        rep.add(f"horizon {cfg.horizon} shorter than one step dt={cfg.dt}")
    if cfg.substeps < 1:
        rep.add(f"substeps must be >= 1, got {cfg.substeps}")
    if cfg.mc_runs < 1:
        rep.add(f"mc_runs must be >= 1, got {cfg.mc_runs}")
    if cfg.atoms:
        wsum = sum(w for _, w in cfg.atoms)
        if abs(wsum - 1.0) > 1e-12:
            rep.add(f"atom weights sum {wsum:.12g} (must sum to 1)")
        if any(w < 0 for _, w in cfg.atoms):
            rep.add("atom weights must be nonnegative")
    if any(e < 0 for e in cfg.epsilons):
        rep.add("epsilons must be >= 0")

    # P0 invertibility (standing assumption)
    if abs(np.linalg.det(cfg.P0)) < 1e-300 or np.linalg.cond(cfg.P0) > 1e14:
        rep.add("P0 not invertible")
    eig0 = np.linalg.eigvalsh(0.5 * (cfg.P0 + cfg.P0.T))
    if eig0.min() < -1e-10:
        rep.add(f"P0 not positive semidefinite (min eig {eig0.min():.3e})")
    eigb = np.linalg.eigvalsh(0.5 * (cfg.Pbar + cfg.Pbar.T))
    if eigb.min() < -1e-10:
        rep.add(f"Pbar not positive semidefinite (min eig {eigb.min():.3e})")

    # finite, bounded, SPD-R schedules on a sampled grid
    if cfg.horizon < cfg.dt:
        return rep
    bound = cfg.thresholds["bound_magnitude"]
    ts = cfg.grid()
    if ts.size > 512:
        ts = ts[:: max(1, ts.size // 512)]
    mats = {"A": cfg.model.A_at(ts), "C": cfg.model.C_at(ts), "R": cfg.model.R_at(ts), "F": cfg.model.F_at(ts)}
    for name, path in mats.items():
        if not np.all(np.isfinite(path)):
            k = int(np.argwhere(~np.isfinite(path).all(axis=(1, 2)))[0])
            rep.add(f"{name}(t) not finite at t={ts[k]:.6g}")
        big = np.abs(path).max()
        if big > bound:
            rep.add(f"{name}(t) magnitude {big:.3g} exceeds bound {bound:.3g} on the grid")
    reigs = np.linalg.eigvalsh(0.5 * (mats["R"] + np.swapaxes(mats["R"], 1, 2)))
    if reigs.min() <= 0:
        k = int(np.argmin(reigs.min(axis=1)))
        rep.add(f"R(t) not positive definite at t={ts[k]:.6g} (min eig {reigs.min():.3e})")
    return rep


# ---------------------------------------------------------------------------
# config document parsing / serialization

_SECTIONS = ("model", "init", "atoms", "noise", "run")

_MODEL_MATRICES = {
    "A0": ("m", "m"), "A1": ("m", "m"),
    "C0": ("n", "m"), "C1": ("n", "m"),
    "R0": ("n", "n"), "R1": ("n", "n"),
    "F0": ("m", "m"), "F1": ("m", "m"),
}

_RUN_KEYS = {"horizon", "dt", "substeps", "seed", "mc_runs", "uco_window"}


def _parse_float(tok, line_no, line):
    try:
        return float(tok)
    except ValueError:
        raise ConfigError(f"malformed number {tok!r}", line_no, line) from None


def parse_config(text: str) -> ExperimentConfig:
    """Parse a configuration document; see the module docstring for the schema."""
    entries = {}  # (section, key) -> (value string, line_no, line)
    section = None
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip().lower()
            if section not in _SECTIONS:
                raise ConfigError(f"unknown section [{section}]", i, raw)
            continue
        if "=" not in line:
            raise ConfigError("expected 'key = value'", i, raw)
        if section is None:
            raise ConfigError("key outside any section", i, raw)
        key, val = (p.strip() for p in line.split("=", 1))
        if (section, key) in entries:
            raise ConfigError(f"duplicate key {key!r} in [{section}]", i, raw)
        entries[(section, key)] = (val, i, raw)

    def take(section, key, default=None):
        return entries.pop((section, key), (default, None, None))

    def take_matrix(section, name, rows, cols, required=False):
        shape, sl, sraw = take(section, f"{name}.shape")
        data, dl, draw = take(section, f"{name}.data")
        if data is None:
            if required:
                raise ConfigError(f"missing matrix {name!r} in [{section}]")
            return None
        vals = [_parse_float(tok, dl, draw) for tok in data.split()]
        if shape is not None:
            dims = shape.split()
            if len(dims) != 2:
                raise ConfigError(f"{name}.shape needs two integers", sl, sraw)
            r, c = (int(_parse_float(d, sl, sraw)) for d in dims)
            if (r, c) != (rows, cols):
                raise ConfigError(
                    f"dimension mismatch for {name}: shape {r} {c}, expected {rows} {cols}", sl, sraw)
        if len(vals) != rows * cols:
            raise ConfigError(
                f"dimension mismatch for {name}: {len(vals)} values, expected {rows}x{cols}", dl, draw)
        return np.array(vals).reshape(rows, cols)

    def take_vector(section, name, size, required=False):
        data, dl, draw = take(section, f"{name}.data")
        if data is None:
            if required:
                raise ConfigError(f"missing vector {name!r} in [{section}]")
            return None
        vals = [_parse_float(tok, dl, draw) for tok in data.split()]
        if len(vals) != size:
            raise ConfigError(f"dimension mismatch for {name}: {len(vals)} values, expected {size}", dl, draw)
        return np.array(vals)

    # [model]
    fam, fl, fraw = take("model", "family", "constant")
    fam = fam.strip().lower()
    if fam not in FAMILIES:
        raise ConfigError(f"unknown family {fam!r}", fl, fraw)
    mval, ml, mraw = take("model", "m")
    nval, nl, nraw = take("model", "n")
    if mval is None:
        raise ConfigError("missing key 'm' in [model]")
    m = int(_parse_float(mval, ml, mraw))
    n = int(_parse_float(nval, nl, nraw)) if nval is not None else m
    omega, ol, oraw = take("model", "omega", "1.0")
    damping, dl2, draw2 = take("model", "damping", "0.0")
    dims = {"m": m, "n": n}
    mats = {}
    for name, (rs, cs) in _MODEL_MATRICES.items():
        mats[name] = take_matrix("model", name, dims[rs], dims[cs])
    model = LtvModel(
        m=m, n=n, family=fam,
        A0=mats["A0"] if mats["A0"] is not None else np.zeros((m, m)),
        A1=mats["A1"],
        C0=mats["C0"] if mats["C0"] is not None else np.eye(n, m),
        C1=mats["C1"],
        R0=mats["R0"] if mats["R0"] is not None else np.eye(n),
        R1=mats["R1"],
        F0=mats["F0"] if mats["F0"] is not None else np.eye(m),
        F1=mats["F1"],
        omega=_parse_float(omega, ol, oraw),
        damping=_parse_float(damping, dl2, draw2),
    )

    # [init]
    m0 = take_vector("init", "m0", m)
    P0 = take_matrix("init", "P0", m, m)
    mbar = take_vector("init", "mbar", m)
    Pbar = take_matrix("init", "Pbar", m, m)

    # [atoms]
    atoms = []
    i = 1
    while (f := take_vector("atoms", f"x{i}", m)) is not None:
        wv, wl, wraw = take("atoms", f"w{i}")
        if wv is None:
            raise ConfigError(f"atom x{i} has no weight w{i}")
        atoms.append((f, _parse_float(wv, wl, wraw)))
        i += 1

    # [noise]
    epss, el, eraw = take("noise", "epsilons", "")
    epsilons = tuple(_parse_float(tok, el, eraw) for tok in epss.split())

    # [run]
    hz, hl, hraw = take("run", "horizon", "10.0")
    dt, tl, traw = take("run", "dt", "0.001")
    sub, sl2, sraw2 = take("run", "substeps", "10")
    seed, el2, eraw2 = take("run", "seed", "0")
    mc, cl, craw = take("run", "mc_runs", "20")
    uco, ul, uraw = take("run", "uco_window", "1.0")
    thresholds = {}
    for (section, key), (val, ln, raw) in list(entries.items()):
        if section == "run" and key in DEFAULT_THRESHOLDS:
            thresholds[key] = _parse_float(val, ln, raw)
            del entries[(section, key)]

    if entries:
        (section, key), (_, ln, raw) = next(iter(entries.items()))
        raise ConfigError(f"unknown key {key!r} in [{section}]", ln, raw)

    return ExperimentConfig(
        model=model,
        horizon=_parse_float(hz, hl, hraw),
        dt=_parse_float(dt, tl, traw),
        substeps=int(_parse_float(sub, sl2, sraw2)),
        seed=int(_parse_float(seed, el2, eraw2)),
        m0=m0, P0=P0, mbar=mbar, Pbar=Pbar,
        atoms=tuple(atoms),
        epsilons=epsilons,
        mc_runs=int(_parse_float(mc, cl, craw)),
        uco_window=_parse_float(uco, ul, uraw),
        thresholds=thresholds,
    )


def _fmt(x) -> str:
    return format(float(x), ".17g")


def _mat_lines(name, a):
    a = np.atleast_2d(a)
    return [
        f"{name}.shape = {a.shape[0]} {a.shape[1]}",
        f"{name}.data = " + " ".join(_fmt(v) for v in a.reshape(-1)),
    ]


def serialize_config(cfg: ExperimentConfig) -> str:
    """Serialize a config so that parse_config(serialize_config(cfg)) == cfg."""
    md = cfg.model
    out = ["[model]", f"family = {md.family}", f"m = {md.m}", f"n = {md.n}",
           f"omega = {_fmt(md.omega)}", f"damping = {_fmt(md.damping)}"]
    for name in _MODEL_MATRICES:
        v = getattr(md, name)
        if v is not None and not (md.family == "rotation_damped" and name in ("A0", "A1")):
            out += _mat_lines(name, v)
    out += ["", "[init]",
            "m0.data = " + " ".join(_fmt(v) for v in cfg.m0)]
    out += _mat_lines("P0", cfg.P0)
    out += ["mbar.data = " + " ".join(_fmt(v) for v in cfg.mbar)]
    out += _mat_lines("Pbar", cfg.Pbar)
    if cfg.atoms:
        out += ["", "[atoms]"]
        for i, (x, w) in enumerate(cfg.atoms, start=1):
            out += [f"x{i}.data = " + " ".join(_fmt(v) for v in x), f"w{i} = {_fmt(w)}"]
    if cfg.epsilons:
        out += ["", "[noise]", "epsilons = " + " ".join(_fmt(e) for e in cfg.epsilons)]
    out += ["", "[run]",
            f"horizon = {_fmt(cfg.horizon)}",
            f"dt = {_fmt(cfg.dt)}",
            f"substeps = {cfg.substeps}",
            f"seed = {cfg.seed}",
            f"mc_runs = {cfg.mc_runs}",
            f"uco_window = {_fmt(cfg.uco_window)}"]
    for key in sorted(cfg.thresholds):
        if cfg.thresholds[key] != DEFAULT_THRESHOLDS[key]:
            out.append(f"{key} = {_fmt(cfg.thresholds[key])}")
    return "\n".join(out) + "\n"
