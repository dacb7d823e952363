"""Time to a verified result for each kblab experiment.

Usage (from the repository root):

    python3 perfbench/run.py --workload scalar --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

A run generates the workload's config documents from ``configs/*.cfg`` and
the seed, then repeats whole rounds of the five operations (riccati+gramian,
stability-cov, stability-mean, nongaussian, smallnoise) through
``kblab.cli.main``; the number of rounds is the one whose measured operation
time comes closest to ``--seconds`` (at least one).
Outputs of the first round are checked against the independent references in
``oracles.py``; every later round must reproduce their bytes. ``--trace 1``
alternates untraced and traced rounds and reports per-layer metrics instead of
the end-to-end ones. The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the full record (with
environment and CSV SHA-256 digests) goes to ``.bench_out/results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import oracles  # noqa: E402
import tracing  # noqa: E402
from workloads import OPERATION_NAMES, OPERATIONS, generate_documents  # noqa: E402

WORKLOADS = tuple(OPERATIONS)
SETUP_REPEATS = 7
BLAS_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                  "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
IMPORT_TIMER = ("import time\nt = time.perf_counter()\nimport kblab.cli\n"
                "print(repr(time.perf_counter() - t))")
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}

# The host's speed changes by up to 2x within seconds (other tenants share its
# cores), so every timed segment is bracketed by a fixed speed probe and
# reported at the probe's reference speed: t * PROBE_REF_S / probe time.
PROBE_REF_S = 0.020
_PROBE_A = np.array([[0.1, 0.2], [0.3, 0.4]])
_PROBE_STACK = np.linspace(0.0, 1.0, 16000).reshape(4000, 2, 2)


def speed_probe() -> float:
    """Seconds for a fixed mix of small-matrix Python steps and batched numpy."""
    t0 = time.perf_counter()
    x = np.eye(2)
    for _ in range(3000):
        y = _PROBE_A @ x
        x = 0.5 * (y + y.T) + 0.25 * x
    for _ in range(6):
        np.einsum("kij,kjl->kil", _PROBE_STACK @ _PROBE_STACK, _PROBE_STACK).sum()
    return time.perf_counter() - t0


def at_reference_speed(seconds: float, probe_before: float, probe_after: float) -> float:
    return seconds * PROBE_REF_S / (0.5 * (probe_before + probe_after))


def op_metric(op: str) -> str:
    return op.replace("-", "_") + "_s"


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARIABLES},
        "platform": platform.platform(),
    }


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return env


def measure_setup(workload: str, seed: int, doc_dir: Path):
    """SETUP_REPEATS times (fresh-interpreter kblab import + document generation).

    The import dominates, and it is file reading and interpreter start-up more
    than arithmetic, so the speed probe does not track it; instead the process
    and its child are pinned to one CPU, which keeps the child off a CPU whose
    load differs from the parent's. Times are raw wall seconds.
    """
    cpus = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None
    if cpus:
        os.sched_setaffinity(0, {min(cpus)})
    totals = []
    docs = None
    try:
        for _ in range(SETUP_REPEATS):
            child = subprocess.run([sys.executable, "-c", IMPORT_TIMER], env=child_env(),
                                   cwd=ROOT, capture_output=True, text=True, timeout=120,
                                   check=True)
            t0 = time.perf_counter()
            docs = generate_documents(ROOT, workload, seed, doc_dir)
            totals.append(float(child.stdout.strip()) + time.perf_counter() - t0)
    finally:
        if cpus:
            os.sched_setaffinity(0, cpus)
    return totals, docs


def run_cli(argv) -> int | str:
    import kblab.cli

    with contextlib.redirect_stdout(io.StringIO()):
        try:
            return kblab.cli.main(argv)
        except Exception:  # an operation that raises counts as failed
            return "exception: " + traceback.format_exc().strip().splitlines()[-1]


class Operation:
    """One of the five operations of a workload, with its outputs and checks."""

    def __init__(self, name, calls, docs, out_dir):
        self.name = name
        self.calls = [(sub, docs[doc], out_dir / f"{sub}-{doc}") for sub, doc in calls]
        self.codes = []           # per round: list of exit codes
        self.raw_times = []       # per round: wall seconds
        self.times = []           # per round: seconds at the probe's reference speed
        self.digests = None       # first round: {file: sha256}
        self.problems = []        # independent-check failures of the first round

    def clear_outputs(self):
        for _, _, out in self.calls:
            shutil.rmtree(out, ignore_errors=True)

    def run(self) -> float:
        t0 = time.perf_counter()
        codes = [run_cli([sub, "--config", str(doc), "--out", str(out)])
                 for sub, doc, out in self.calls]
        elapsed = time.perf_counter() - t0
        self.codes.append(codes)
        self.raw_times.append(elapsed)
        return elapsed

    def digest(self) -> dict:
        return {f"{out.name}/{p.name}": sha256(p)
                for _, _, out in self.calls for p in sorted(out.glob("*.csv"))}

    def verify(self):
        """Check the latest round; returns (failed, wrong)."""
        codes = self.codes[-1]
        exited_ok = all(c == 0 for c in codes)
        if len(self.codes) == 1:
            self.digests = self.digest()
            if exited_ok:
                for sub, doc, out in self.calls:
                    try:
                        found = oracles.CHECKS[sub](oracles.Doc(doc), out)
                    except (OSError, ValueError, IndexError, KeyError) as exc:
                        found = [f"unreadable output: {exc!r}"]
                    self.problems += [f"{sub} {doc.stem}: {p}" for p in found]
            wrong = bool(self.problems)
        else:
            wrong = codes != self.codes[0] or self.digest() != self.digests
        bad_code = any(c not in (0, 1) for c in codes)
        return (not exited_ok) or wrong, wrong or bad_code


def run_workload(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    tag = f"{workload}-seed{seed}-trace{int(traced)}"
    work_dir = ROOT / ".bench_out" / tag
    shutil.rmtree(work_dir, ignore_errors=True)
    env = environment()
    print("env " + json.dumps(env, sort_keys=True), flush=True)

    setup_runs, docs = measure_setup(workload, seed, work_dir / "docs")

    ops = [Operation(name, OPERATIONS[workload][name], docs, work_dir / "out")
           for name in OPERATION_NAMES]
    tracer = tracing.Tracer() if traced else None
    rounds = []                   # (round seconds at reference speed, traced?)
    traced_rounds = []
    failed = wrong = 0
    measured = 0.0
    while True:
        index = len(rounds)
        in_trace = traced and index % 2 == 1
        for op in ops:
            op.clear_outputs()
        if in_trace:
            tracer.install(index)
        wall = 0.0
        probe = speed_probe()
        for op in ops:
            if in_trace:
                with tracer.op_span(op.name):
                    raw = op.run()
            else:
                raw = op.run()
            measured += raw
            after = speed_probe()
            op.times.append(at_reference_speed(raw, probe, after))
            wall += op.times[-1]
            probe = after
        if in_trace:
            tracer.uninstall()
            traced_rounds.append(tracer.round_metrics(index))
        rounds.append((wall, in_trace))
        for op in ops:
            op_failed, op_wrong = op.verify()
            failed += op_failed
            wrong += op_wrong
        # stop at the round count that brings the measured time closest to --seconds
        typical = measured / len(rounds)
        if measured + 0.5 * typical >= seconds and (not traced or traced_rounds):
            break

    if traced:
        metrics = tracing.combine_rounds(traced_rounds)
        plain = statistics.median(w for w, t in rounds if not t)
        with_trace = statistics.median(w for w, t in rounds if t)
        metrics["trace.overhead_pct"] = 100.0 * (with_trace / plain - 1.0)
        units = dict(tracing.metric_specs())
        tracer.write(work_dir / "spans.jsonl")
    else:
        medians = {op.name: statistics.median(op.times) for op in ops}
        metrics = {"setup_s": statistics.median(setup_runs),
                   "wall_s": sum(medians.values()),
                   "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
        for name, value in medians.items():
            metrics[op_metric(name)] = value
        units = {**END_TO_END_UNITS, **{op_metric(n): "s" for n in OPERATION_NAMES}}

    result = {
        "correct": wrong == 0,
        "attempted": len(rounds) * len(ops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(traced),
        "environment": env, "rounds": len(rounds),
        "setup_runs_s": setup_runs,
        "round_walls_s": [w for w, _ in rounds],
        "documents": {name: sha256(path) for name, path in docs.items()},
        "probe_ref_s": PROBE_REF_S,
        "operations": {op.name: {"exit_codes": op.codes[0], "times_s": op.times,
                                 "raw_times_s": op.raw_times,
                                 "problems": op.problems, "sha256": op.digests}
                       for op in ops},
        **result,
    }
    results_dir = ROOT / ".bench_out" / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{tag}.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n",
                                            encoding="utf-8")
    for op in ops:
        status = "ok" if not op.problems and op.codes[0] == [0] * len(op.calls) else \
            f"FAILED exit={op.codes[0]} {'; '.join(op.problems)}"
        print(f"{workload:8s} {op.name:15s} median {statistics.median(op.times):8.3f} s "
              f"(wall {statistics.median(op.raw_times):.3f} s) over {len(op.times)} rounds  "
              f"{status}", flush=True)
    print(f"results: {results_dir / (tag + '.json')}", flush=True)
    return result


def run_all(args) -> dict:
    """Each workload in a fresh interpreter; metrics are prefixed by workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise RuntimeError(f"workload {workload} exited {proc.returncode}")
        print("\n".join(lines[:-1]), flush=True)
        part = json.loads(lines[-1])
        combined["correct"] &= part["correct"]
        combined["attempted"] += part["attempted"]
        combined["failed"] += part["failed"]
        for key, val in part["metrics"].items():
            combined["metrics"][f"{workload}.{key}"] = val
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    missing = [p for p in ("src/kblab/cli.py", "configs") if not (ROOT / p).exists()]
    if missing:
        print(f"error: {', '.join(missing)} not found under {ROOT}; "
              "run from a checkout of the kblab repository", file=sys.stderr)
        return 2
    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
