"""ssm-resolve benchmark: two workloads through ``ssm_resolve.cli.main``.

    python3 perfbench/run.py                      # all workloads, one process each
    python3 perfbench/run.py --workload reduced-path --seed 1 --seconds 50 --trace 0

A run generates its fixtures from the seed, times set-up in fresh
interpreters, then repeats whole passes of the workload's ops until
``--seconds`` is spent (at least two passes, so every op's artifacts can be
compared with the previous pass).  Every op is checked against a
reference.  With ``--trace 0`` the last stdout line carries the end-to-end
metrics; with ``--trace 1`` passes alternate untraced and traced and the
last line carries the per-layer metrics.  The exit code is non-zero when
any op failed.  See README.md in this directory.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# pinned before NumPy loads: every measured process runs single-threaded
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("reduced-path", "oracle-verify")
MIN_PASSES = 2
#: fresh-interpreter set-ups per run, at least one before the first pass
#: and one after each pass, so that they sample the host across the run
SETUP_REPEATS = 5

#: median ``calibrate()`` time on the reference host; end-to-end times are
#: scaled by CAL_REF / (this run's median) to that host's speed
CAL_REF = 0.045

#: the end-to-end metrics of BENCHMARK.json, in the order printed
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"))

#: per-layer metrics of BENCHMARK.json: (name, unit)
PER_LAYER = tuple(
    [(f"{n}.calls", "count") for n in (
        "compute_nonautonomous_ssm", "physical_amplitude", "assemble_polar",
        "zero_problem", "fixed_point_stability", "compute_autonomous_ssm",
        "dense_mul", "dense_pow", "dense_eval", "dense_to_poly",
        "classify_roots", "integrate_full", "modal_decompose",
        "FirstOrderSystem.nonlinearity")]
    + [(f"{n}.self_s", "s") for n in (
        "compute_nonautonomous_ssm", "trace_frc", "physical_amplitude",
        "assemble_polar", "zero_problem", "fixed_point_stability",
        "compute_autonomous_ssm", "invariance_residual", "dense_mul",
        "dense_pow", "dense_eval", "dense_to_poly", "roots_of_a",
        "isola_report", "integrate_full", "modal_decompose",
        "FirstOrderSystem.nonlinearity", "read_system", "write_system",
        "build_beam", "frc_svg", "roots_svg", "cli.main")]
    + [("ssm_forced.trace_solves", "count"), ("ssm_forced.amp_solves", "count"),
       ("ssm_forced.trace_share", "ratio"),
       ("frc.points_accepted", "count"),
       ("frc.points_skipped.diverged", "count"),
       ("frc.points_skipped.residual", "count"),
       ("frc.points_skipped.window", "count"),
       ("frc.points_per_solve", "ratio"),
       ("oracle.steps_accepted", "count"), ("oracle.steps_rejected", "count"),
       ("oracle.step_accept_ratio", "ratio"),
       ("oracle.rhs_evals", "count-computed"), ("oracle.periods", "count"),
       ("oracle.converged_ratio", "ratio"),
       ("frc_points_per_s", "1/s"), ("sweep_point_s", "s"),
       ("warm_point_s", "s"), ("stiff_point_s", "s"),
       ("ref_err", "ratio"), ("trace_overhead_s", "s"),
       ("setup_raw_s", "s"), ("wall_raw_s", "s"), ("host.calib_s", "s")])

#: per-op counts printed for the first traced pass
OP_COUNTS = ("ssm_forced.trace_solves", "frc.points_accepted",
             "ssm_forced.trace_share", "oracle.steps_accepted",
             "oracle.steps_rejected")

TIMESTAMP = re.compile(r'^\s*(# timestamp: .*|"timestamp": .*)$', re.M)


@dataclass
class OpRecord:
    pass_index: int
    op_id: int
    label: str
    category: str
    points: int
    seconds: float
    ok: bool
    ref_err: float | None
    error: str | None


def calibrate() -> float:
    """Seconds for a fixed loop of small NumPy and pure-Python steps, the
    mix the program's ops are made of.  It runs after every op and measures
    the host's speed, not the program's."""
    import numpy as np
    a = np.linspace(-0.1, 0.1, 64).reshape(8, 8)
    x = np.ones(8)
    t0 = time.perf_counter()
    y = x.copy()
    s = 0.0
    for i in range(20000):
        y = a @ y + x
        s += float(y[i % 8]) * 0.5
    return time.perf_counter() - t0


def body_digest(paths, stdout: str) -> str:
    """SHA-256 of the artifact bodies (and stdout), timestamp lines removed."""
    h = hashlib.sha256(TIMESTAMP.sub("", stdout).encode())
    for path in paths:
        h.update(TIMESTAMP.sub("", Path(path).read_text()).encode())
    return h.hexdigest()


class Runner:
    """Runs one workload's passes and keeps every op's record."""

    def __init__(self, wl, cli, tracing, check_failed) -> None:
        self.wl = wl
        self.cli = cli
        self.tracing = tracing
        self.check_failed = check_failed
        self.tracers = []
        self.calib: list[float] = []
        self.records: list[OpRecord] = []
        self.digests: dict[str, str] = {}
        self.op_kind: dict[int, str] = {}
        self.pass_ops: list[list[int]] = []
        self.pass_traced: list[bool] = []

    def run_op(self, op, pass_index: int, tracer) -> OpRecord:
        op_id = len(self.records)
        self.op_kind[op_id] = op.argv[0]
        tracer.op = op_id
        out, err = io.StringIO(), io.StringIO()
        ratio = None
        seconds = None
        t0 = time.perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = self.cli.main(op.argv)
            seconds = time.perf_counter() - t0
            if code != 0:
                raise RuntimeError(f"exit code {code}: {err.getvalue().strip()}")
            ratio = float(op.check(out.getvalue()))
            if not ratio <= 1.0:
                raise self.check_failed(
                    f"error {ratio:.4g} x its tolerance")
            digest = body_digest(op.artifacts, out.getvalue())
            if self.digests.setdefault(op.label, digest) != digest:
                raise self.check_failed(
                    "artifact bodies differ from the first pass")
            ok, error = True, None
        except Exception as exc:  # any failure of one op is counted, not fatal
            if seconds is None:
                seconds = time.perf_counter() - t0
            ok, error = False, f"{type(exc).__name__}: {exc}"
        rec = OpRecord(pass_index, op_id, op.label, op.category, op.points,
                       seconds, ok, ratio, error)
        self.records.append(rec)
        self.calib.append(calibrate())
        return rec

    def run_pass(self, traced: bool) -> float:
        tracer = self.tracing.Tracer()
        # untraced passes still time trace_frc alone, for frc_points_per_s
        tracer.install(self.tracing.TARGETS if traced else
                       [t for t in self.tracing.TARGETS if t[1] == "trace_frc"])
        pass_index = len(self.pass_ops)
        try:
            recs = [self.run_op(op, pass_index, tracer) for op in self.wl.ops]
        finally:
            tracer.uninstall()
        self.pass_ops.append([r.op_id for r in recs])
        self.pass_traced.append(traced)
        self.tracers.append(tracer)
        return sum(r.seconds for r in recs)

    def measure(self, seconds: float, trace: bool, after_pass) -> list[float]:
        walls: list[float] = []
        t0 = time.perf_counter()
        while True:
            traced = trace and len(walls) % 2 == 1
            walls.append(self.run_pass(traced))
            after_pass()
            elapsed = time.perf_counter() - t0
            if len(walls) >= MIN_PASSES and \
                    elapsed + statistics.median(walls) > seconds:
                return walls


def time_setup(systems: list[str]) -> float:
    """Wall time of one fresh-interpreter set-up (import, read, modal model,
    order-3 manifold), run to completion."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, str(HERE / "setup_probe.py"), *systems],
                   check=True, cwd=ROOT)
    return time.perf_counter() - t0


def environment(seed: int) -> dict:
    import numpy
    import scipy

    def blas(cfg):
        dep = cfg.get("Build Dependencies", {}).get("blas", {})
        return f"{dep.get('name')} {dep.get('version')}"

    try:
        top, sha = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, check=True,
            timeout=10).stdout.split()
        if Path(top).resolve() != ROOT:
            sha = None  # the checkout sits inside some other repository
    except (OSError, ValueError, subprocess.SubprocessError):
        sha = None  # a checkout without git metadata
    src = hashlib.sha256()
    for path in sorted((SRC / "ssm_resolve").rglob("*.py")):
        src.update(path.relative_to(SRC).as_posix().encode())
        src.update(path.read_bytes())
    return {
        "git_sha": sha,
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy.__config__.CONFIG),
        "scipy_blas": blas(scipy.__config__.CONFIG),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "machine": platform.machine(),
        "seed": seed,
    }


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def summarize(runner: Runner, setup: list[float], walls: list[float],
              trace: bool) -> dict[str, tuple[float, str, list[float]]]:
    """name -> (value, unit, samples) for every metric this run measured."""
    recs = runner.records
    plain = [i for i, t in enumerate(runner.pass_traced) if not t]
    plain_ops = {op for i in plain for op in runner.pass_ops[i]}
    by_cat = {}
    for r in recs:
        if r.op_id in plain_ops and r.ok:
            by_cat.setdefault(r.category, []).append(r.seconds / r.points)
    rates = []
    for i in plain:
        lm = runner.tracing.layer_metrics(runner.tracers[i], runner.pass_ops[i],
                                          runner.op_kind)
        if lm.get("trace_frc.calls"):
            rates.append(lm["frc.points_accepted"] / lm["trace_frc.self_s"])
    plain_walls = [walls[i] for i in plain]
    ratios = [r.ref_err for r in recs if r.ref_err is not None]
    calib = _median(runner.calib)
    speed = CAL_REF / calib
    m = {
        "setup_s": (_median(setup) * speed, "s", setup),
        "wall_s": (_median(plain_walls) * speed, "s", plain_walls),
        "setup_raw_s": (_median(setup), "s", setup),
        "wall_raw_s": (_median(plain_walls), "s", plain_walls),
        "host.calib_s": (calib, "s", runner.calib),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB", []),
        "fail_ratio": (sum(not r.ok for r in recs) / len(recs), "ratio", []),
        "ref_err": (max(ratios) if ratios else 0.0, "ratio", ratios),
    }
    if rates:
        m["frc_points_per_s"] = (_median(rates), "1/s", rates)
    for cat, name in (("cold", "sweep_point_s"), ("warm", "warm_point_s"),
                      ("stiff", "stiff_point_s")):
        if cat in by_cat:
            m[name] = (_median(by_cat[cat]), "s", by_cat[cat])
    if trace:
        traced = [i for i, t in enumerate(runner.pass_traced) if t]
        per_pass = [runner.tracing.layer_metrics(
            runner.tracers[i], runner.pass_ops[i], runner.op_kind)
            for i in traced]
        units = dict(PER_LAYER)
        for name, unit in PER_LAYER:
            if per_pass and name in per_pass[0]:
                vals = [p[name] for p in per_pass]
                m[name] = (_median(vals), unit, vals)
        for name in ("frc_points_per_s", "sweep_point_s", "warm_point_s",
                     "stiff_point_s"):
            m.setdefault(name, (0.0, units[name], []))
        over = _median([walls[i] for i in traced]) - _median(plain_walls)
        m["trace_overhead_s"] = (over, "s", [])
    return m


def run_workload(args) -> int:
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import ssm_resolve
    if Path(ssm_resolve.__file__).resolve().parent != SRC / "ssm_resolve":
        print(f"error: imported ssm_resolve from {ssm_resolve.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    from ssm_resolve import cli
    import tracing
    import workloads

    out = OUT / args.workload
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    t0 = time.perf_counter()
    wl = workloads.build(args.workload, args.seed, out / "fixtures")
    fixture_s = time.perf_counter() - t0
    systems = [wl.systems[s] for s in workloads.SYSTEMS[wl.name]]
    setup = [time_setup(systems)]

    runner = Runner(wl, cli, tracing, workloads.CheckFailed)
    walls = runner.measure(args.seconds, bool(args.trace),
                           lambda: setup.append(time_setup(systems)))
    while len(setup) < SETUP_REPEATS:
        setup.append(time_setup(systems))
    metrics = summarize(runner, setup, walls, bool(args.trace))

    failed = sum(not r.ok for r in runner.records)
    attempted = len(runner.records)
    env = environment(args.seed)
    print(f"workload {wl.name}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(walls)}  ops {attempted}  failed {failed}  "
          f"fixtures {fixture_s:.2f} s")
    print("env " + json.dumps(env, sort_keys=True))
    print("inputs " + json.dumps(wl.inputs, sort_keys=True))
    for r in runner.records:
        if not r.ok:
            print(f"FAILED pass {r.pass_index} {r.label}: {r.error}")
    if args.trace:
        i = runner.pass_traced.index(True)
        for op_id in runner.pass_ops[i]:
            lm = tracing.layer_metrics(runner.tracers[i], [op_id],
                                       runner.op_kind)
            print(f"  op {runner.records[op_id].label:24s} "
                  + "  ".join(f"{k} {lm[k]:.6g}" for k in OP_COUNTS))
    for name, (value, unit, samples) in metrics.items():
        spread = (f"  min {min(samples):.6g}  max {max(samples):.6g}"
                  if samples else "")
        print(f"  {name:40s} {value:14.6g} {unit:14s} n={len(samples)}{spread}")

    keys = [n for n, _ in (PER_LAYER if args.trace else END_TO_END)]
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": metrics[k][0], "unit": metrics[k][1]}
                          for k in keys}}
    (out / "result.json").write_text(json.dumps({
        "result": result, "env": env, "inputs": wl.inputs,
        "metrics": {k: {"value": v, "unit": u, "samples": s}
                    for k, (v, u, s) in metrics.items()},
        "ops": [r.__dict__ for r in runner.records]}, indent=1) + "\n")
    if args.trace:
        for i, tracer in enumerate(runner.tracers):
            if runner.pass_traced[i]:
                tracer.save(out / f"spans_pass{i}.npz")
    shutil.rmtree(out / "fixtures", ignore_errors=True)
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    worst = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)])
        worst = max(worst, proc.returncode)
    return worst


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", default="all", choices=("all",) + WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=50.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "ssm_resolve" / "__init__.py").is_file():
        print(f"error: no ssm_resolve sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
