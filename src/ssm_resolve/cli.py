"""Command-line front end: reproducible analysis runs with CSV/JSON/SVG output.

Every run resolves a single RunConfig (flags > config file > defaults),
stamps its SHA-256 hash into each artifact header, and writes artifacts
atomically, so identical configurations reproduce byte-identical bodies
(only the timestamp header line differs between runs).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import sys
from collections import Counter
from dataclasses import asdict, dataclass, fields, replace
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .beam import build_beam, read_beam_params
from .errors import (IntegrationError, InternalResonanceError,
                     NonResonanceError, SemisimplicityError,
                     SingularChartError, SsmResolveError, ValidationError)
from .frc import physical_amplitudes, trace_frc
from .isola import isola_report
from .model import modal_decompose, spectral_quotient, to_first_order
from .oracle import IntegratorControl
from .oracle import sweep as oracle_sweep
from .ssm_auto import (RESONANCE_GUARD, compute_autonomous_ssm,
                       invariance_residual)
from .ssm_forced import (compute_nonautonomous_ssm, forced_residual,
                         leading_forcing_coefficient)
from .svgplot import frc_svg, roots_svg
from .sysio import format_system, read_system

TOOL = "ssm-resolve"

EXIT_OK = 0
EXIT_UNEXPECTED = 1
EXIT_USAGE = 2
EXIT_NONRESONANCE = 3
EXIT_EXISTENCE = 4
EXIT_INTEGRATION = 5

#: sample radius and count for the analyze command's invariance spot check
CHECK_RADIUS = 1e-3
CHECK_SAMPLES = 24


@dataclass
class RunConfig:
    """One fully resolved command invocation."""
    command: str
    system: str | None = None
    params: str | None = None
    out: str | None = None
    svg: str | None = None
    roots_svg: str | None = None
    dump_ssm: str | None = None
    config: str | None = None
    mode: int = 0
    order: int = 3
    orders: str = "1..25"
    eps: float = 0.0
    rho_max: float = 1.0
    n_rho: int = 2000
    omega: str | None = None
    omega_window: str | None = None
    coord: str = "drive"
    monitor: str = "drive"
    sweep: str = "up"
    cold: bool = False
    transient_time: float | None = None
    min_periods: int = 20
    max_periods: int = 100
    elements: int | None = None
    normalization: str | None = None
    check: bool = True
    #: accepted and checked (existing scripts pass it); nothing reads it
    jobs: int = 1
    seed: int = 0
    quiet: bool = False
    tol_rel: float = 1e-8
    tol_abs: float = 1e-10
    tol_settle: float = 1e-3
    tol_cauchy: float = 1e-3
    tol_radius_frac: float = 0.8

    def validate(self) -> None:
        if self.command in ("analyze", "frc", "isola", "verify") \
                and not self.system:
            raise ValidationError(f"{self.command} requires --system")
        if self.command in ("analyze", "frc"):
            if self.order < 3 or self.order % 2 == 0:
                raise ValidationError("expansion order must be odd and >= 3")
        if self.command in ("frc", "isola") and self.eps <= 0:
            raise ValidationError(f"{self.command} requires --eps > 0")
        if self.eps < 0:
            raise ValidationError("eps must be >= 0")
        if self.command == "isola":
            _parse_orders(self.orders)
        if self.command == "frc":
            if not self.out:
                raise ValidationError("frc requires --out")
            if self.rho_max <= 0 or self.n_rho < 2:
                raise ValidationError("need rho_max > 0 and n_rho >= 2")
        if self.command == "isola" and not self.out:
            raise ValidationError("isola requires --out")
        if self.command == "verify":
            if not self.omega:
                raise ValidationError("verify requires --omega start:stop:n")
            _parse_omega(self.omega)
            if not self.out:
                raise ValidationError("verify requires --out")
            if self.sweep not in ("up", "down"):
                raise ValidationError("--sweep must be 'up' or 'down'")
        if self.command == "beam":
            if not self.params or not self.out:
                raise ValidationError("beam requires --params and --out")
            if self.elements is not None and self.elements < 1:
                raise ValidationError("--elements must be >= 1")
        if self.mode < 0:
            raise ValidationError("--mode must be >= 0")
        if self.jobs < 1:
            raise ValidationError("--jobs must be >= 1")
        for name in ("tol_rel", "tol_abs", "tol_settle", "tol_cauchy"):
            if getattr(self, name) <= 0:
                raise ValidationError(f"--{name.replace('_', '-')} must be "
                                      "> 0")
        if not 0 < self.tol_radius_frac <= 1:
            raise ValidationError("--tol-radius-frac must be in (0, 1]")


# ---------------------------------------------------------------------------
# argument parsing and config resolution


def _parse_omega(txt: str) -> np.ndarray:
    try:
        a, b, n = txt.split(":")
        a, b, n = float(a), float(b), int(n)
    except ValueError:
        raise ValidationError(f"--omega expects start:stop:n, got {txt!r}")
    if n < 1 or (n > 1 and b <= a):
        raise ValidationError("--omega needs stop > start and n >= 1")
    return np.linspace(a, b, n)


def _parse_orders(txt: str) -> range:
    try:
        a, b = txt.split("..")
        a, b = int(a), int(b)
    except ValueError:
        raise ValidationError(f"--orders expects lo..hi, got {txt!r}")
    if a < 1 or b < a:
        raise ValidationError("--orders needs 1 <= lo <= hi")
    return range(a, b + 1)


def _parse_window(txt: str) -> tuple[float, float]:
    try:
        a, b = (float(v) for v in txt.split(":"))
    except ValueError:
        raise ValidationError(f"--omega-window expects lo:hi, got {txt!r}")
    if b <= a:
        raise ValidationError("--omega-window needs hi > lo")
    return a, b


def _resolve_coord(txt: str, sys_) -> int:
    """A physical position coordinate: an index, or 'drive'/'tip' for the
    coordinate the forcing acts on."""
    if txt in ("drive", "tip"):
        return int(np.argmax(np.abs(sys_.f)))
    try:
        idx = int(txt)
    except ValueError:
        raise ValidationError(f"coordinate must be an index or 'drive', "
                              f"got {txt!r}")
    if not 0 <= idx < sys_.n:
        raise ValidationError(f"coordinate {idx} out of range [0, {sys_.n})")
    return idx


def _resolve_monitor(txt: str, sys_) -> list[int]:
    return [_resolve_coord(part.strip(), sys_) for part in txt.split(",")]


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    g = common.add_argument_group("global options")
    g.add_argument("--config", help="JSON file of option defaults "
                   "(flags win over the file, the file over built-ins)")
    g.add_argument("--jobs", type=int, help="accepted for compatibility "
                   "and checked to be >= 1; nothing reads it (default 1)")
    g.add_argument("--seed", type=int, help="seed for randomized sample "
                   "points in property checks (default 0)")
    g.add_argument("--quiet", action=argparse.BooleanOptionalAction,
                   help="suppress informational output")
    g.add_argument("--tol-rel", type=float, dest="tol_rel",
                   help="integrator relative tolerance (default 1e-8)")
    g.add_argument("--tol-abs", type=float, dest="tol_abs",
                   help="integrator absolute tolerance (default 1e-10)")
    g.add_argument("--tol-settle", type=float, dest="tol_settle",
                   help="sweep settle threshold, relative per-period change "
                        "(default 1e-3)")
    g.add_argument("--tol-cauchy", type=float, dest="tol_cauchy",
                   help="root-settling threshold for spuriousness "
                        "classification (default 1e-3)")
    g.add_argument("--tol-radius-frac", type=float, dest="tol_radius_frac",
                   help="fraction of the convergence-radius estimate a "
                        "non-spurious root must stay below (default 0.8)")

    p = argparse.ArgumentParser(
        prog=TOOL,
        description="Reduce a periodically forced mechanical system to two "
                    "ODEs on its slowest invariant manifold; read response "
                    "curves, folds, and detached branches off the reduced "
                    "coefficients; verify by brute-force integration.")
    p.add_argument("--version", action="version",
                   version=f"{TOOL} {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", parents=[common],
                        help="reduce a system and report its coefficients")
    pa.add_argument("--system", help="system definition file")
    pa.add_argument("--mode", type=int, help="master mode pair index "
                    "(0 = slowest decaying, the default)")
    pa.add_argument("--order", type=int, help="expansion order (odd, >= 3)")
    pa.add_argument("--normalization", choices=("first-position", "largest"),
                    help="eigenvector scaling (default: the system file's "
                         "preference, else first-position)")
    pa.add_argument("--dump-ssm", dest="dump_ssm",
                    help="write all embedding and drift coefficients to "
                         "this file")

    pf = sub.add_parser("frc", parents=[common],
                        help="trace the forced response curve to CSV/SVG")
    pf.add_argument("--system")
    pf.add_argument("--mode", type=int)
    pf.add_argument("--order", type=int)
    pf.add_argument("--normalization", choices=("first-position", "largest"))
    pf.add_argument("--eps", type=float, help="forcing amplitude")
    pf.add_argument("--rho-max", type=float, dest="rho_max",
                    help="upper end of the reduced amplitude grid")
    pf.add_argument("--n-rho", type=int, dest="n_rho",
                    help="number of amplitude grid points")
    pf.add_argument("--omega-window", dest="omega_window",
                    help="keep only responses with frequency in lo:hi")
    pf.add_argument("--coord", help="physical coordinate for the amplitude "
                    "column: an index or 'drive' (default)")
    pf.add_argument("--out", help="CSV output path")
    pf.add_argument("--svg", help="also render the curve to this SVG path")

    pi = sub.add_parser("isola", parents=[common],
                        help="track drift-polynomial roots and report "
                             "detached-branch structure to JSON/SVG")
    pi.add_argument("--system")
    pi.add_argument("--mode", type=int)
    pi.add_argument("--orders", help="truncation order range lo..hi "
                    "(default 1..25)")
    pi.add_argument("--normalization", choices=("first-position", "largest"))
    pi.add_argument("--eps", type=float, help="forcing amplitude")
    pi.add_argument("--check", action=argparse.BooleanOptionalAction,
                    help="refuse spectra that fail the real-part "
                         "non-resonance check (default on)")
    pi.add_argument("--out", help="JSON output path")
    pi.add_argument("--roots-svg", dest="roots_svg",
                    help="also render the root scatter to this SVG path")

    pv = sub.add_parser("verify", parents=[common],
                        help="brute-force frequency sweep of the full "
                             "system to CSV")
    pv.add_argument("--system")
    pv.add_argument("--eps", type=float, help="forcing amplitude")
    pv.add_argument("--omega", help="frequency grid start:stop:n "
                    "(inclusive ends)")
    pv.add_argument("--monitor", help="comma-separated position coordinates "
                    "to measure; 'drive'/'tip' = the forced coordinate "
                    "(default)")
    pv.add_argument("--sweep", choices=("up", "down"),
                    help="sweep direction (default up)")
    pv.add_argument("--cold", action=argparse.BooleanOptionalAction,
                    help="start every grid point from rest instead of "
                         "warm-starting from the previous steady state")
    pv.add_argument("--transient-time", type=float, dest="transient_time",
                    help="override the transient burn-off horizon (time "
                         "units; default 5 / |slowest decay rate|)")
    pv.add_argument("--min-periods", type=int, dest="min_periods",
                    help="minimum measured periods per point (default 20)")
    pv.add_argument("--max-periods", type=int, dest="max_periods",
                    help="measured-period budget per point (default 100)")
    pv.add_argument("--out", help="CSV output path")

    pb = sub.add_parser("beam", parents=[common],
                        help="build the cantilever model and emit a system "
                             "file")
    pb.add_argument("--params", help="beam parameter file")
    pb.add_argument("--elements", type=int,
                    help="finite-element count (default: the parameter "
                         "file's value, else 25)")
    pb.add_argument("--out", help="system file output path")

    return p


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    file_cfg: dict = {}
    if getattr(args, "config", None):
        try:
            with open(args.config) as fh:
                file_cfg = json.load(fh)
        except OSError as exc:
            raise ValidationError(f"cannot read config file: {exc}")
        except json.JSONDecodeError as exc:
            raise ValidationError(f"config file is not valid JSON: {exc}")
        if not isinstance(file_cfg, dict):
            raise ValidationError("config file must hold a JSON object")
    kwargs = {}
    for f in fields(RunConfig):
        if f.name == "command":
            continue
        value = getattr(args, f.name, None)
        if value is None and f.name in file_cfg:
            value = file_cfg[f.name]
        if value is None:
            continue  # keep the dataclass default
        kwargs[f.name] = value
    unknown = set(file_cfg) - {f.name for f in fields(RunConfig)}
    if unknown:
        raise ValidationError(
            f"unknown config file keys: {', '.join(sorted(unknown))}")
    return RunConfig(command=args.command, **kwargs)


# ---------------------------------------------------------------------------
# artifact plumbing


def _utcnow() -> str:
    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def _config_hash(cfg: RunConfig) -> str:
    """SHA-256 over the resolved settings that can influence artifact
    content; verbosity, the unread --jobs, and the config file path (whose
    contents are already resolved in) are excluded, so equal hashes mean
    equal expected bodies."""
    payload = {k: v for k, v in asdict(cfg).items()
               if k not in ("quiet", "jobs", "config")}
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _meta_lines(cfg: RunConfig, eig_summary: str) -> list[str]:
    """Header lines for text artifacts; the timestamp gets its own line so
    byte-identity of reruns holds for everything else."""
    return [f"{TOOL} {__version__}",
            f"config sha256 {_config_hash(cfg)}",
            f"eigenvalues: {eig_summary}",
            f"timestamp: {_utcnow()}"]


def _csv_text(meta: list[str], columns: list[str],
              rows: list[list[str]]) -> str:
    lines = [f"# {ln}" for ln in meta]
    lines.append(",".join(columns))
    lines.extend(",".join(cells) for cells in rows)
    return "\n".join(lines) + "\n"


def _write_artifacts(items: list[tuple[str, str]]) -> None:
    """Write each (path, text) atomically; on any failure remove everything
    this call already produced so no partial artifact set survives."""
    written = []
    try:
        for path, text in items:
            tmp = f"{path}.part"
            try:
                with open(tmp, "w") as fh:
                    fh.write(text)
                os.replace(tmp, path)
            finally:
                with contextlib.suppress(OSError):
                    os.unlink(tmp)
            written.append(path)
    except BaseException:
        for p in written:
            with contextlib.suppress(OSError):
                os.unlink(p)
        raise


def _say(cfg: RunConfig, message: str) -> None:
    if not cfg.quiet:
        print(message)


def _jsonable(value):
    """Recursively make a value JSON-encodable; non-finite floats -> None."""
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (np.ndarray,)):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, (complex, np.complexfloating)):
        return [_jsonable(value.real), _jsonable(value.imag)]
    if isinstance(value, (float, np.floating)):
        v = float(value)
        return v if math.isfinite(v) else None
    if isinstance(value, (int, np.integer)):
        return int(value)
    return value


# ---------------------------------------------------------------------------
# shared pipeline pieces


def _load_system(cfg: RunConfig):
    sys_ = read_system(cfg.system)
    return sys_, to_first_order(sys_)


def _modal(cfg: RunConfig, sys_, fos):
    norm = cfg.normalization or sys_.normalization or "first-position"
    return modal_decompose(fos, master=cfg.mode, normalization=norm)


# ---------------------------------------------------------------------------
# commands


def _cmd_analyze(cfg: RunConfig) -> None:
    sys_, fos = _load_system(cfg)
    mm = _modal(cfg, sys_, fos)
    ssm = compute_autonomous_ssm(mm, cfg.order)

    lines = [f"{TOOL} {__version__}",
             f"config sha256 {_config_hash(cfg)}",
             f"system: {cfg.system} (n={sys_.n} dof, {2 * sys_.n} states, "
             f"{len(sys_.g)} nonlinear terms)",
             f"normalization: {mm.normalization}",
             "mode pairs (by decreasing real part):"]
    pairs = sorted((lam for lam in mm.eigenvalues if lam.imag > 0),
                   key=lambda z: -z.real)
    for k, lam in enumerate(pairs):
        tag = "  [master]" if k == cfg.mode else ""
        lines.append(f"  mode {k}: {complex(lam)!r}{tag}")
    if len(pairs) < len(mm.eigenvalues) / 2:
        lines.append("  (remaining modes are overdamped)")
    lines.append(f"spectral quotient: {spectral_quotient(mm)}")
    lines.append(f"non-resonance: satisfied through order "
                 f"{min(spectral_quotient(mm), cfg.order + 1)}")
    lines.append(f"order: {cfg.order}")
    lines.append(f"smallest enslaved denominator: "
                 f"{ssm.min_enslaved_den:.1e} (guard {RESONANCE_GUARD:.0e})")
    lines.append("drift coefficients (by odd power of the reduced "
                 "amplitude):")
    for j, gam in enumerate(ssm.gamma):
        lines.append(f"  power {2 * j + 3}: {complex(gam)!r}")
    lines.append(f"leading forcing coefficient: "
                 f"{complex(leading_forcing_coefficient(mm))!r}")

    rng = np.random.default_rng(cfg.seed)
    angles = rng.uniform(0.0, 2 * np.pi, CHECK_SAMPLES)
    samples = CHECK_RADIUS * np.exp(1j * angles)
    res0 = invariance_residual(ssm, mm, samples)
    lines.append(f"unforced invariance defect: max relative "
                 f"{res0['max_relative']:.3e} over {CHECK_SAMPLES} samples "
                 f"at radius {CHECK_RADIUS:g} (seed {cfg.seed})")
    fr = compute_nonautonomous_ssm(ssm, mm.lambda_master.imag)
    res1 = forced_residual(ssm, fr, samples)
    lines.append(f"forced invariance defect at resonance: max relative "
                 f"{res1['max_relative']:.3e}")
    print("\n".join(lines))

    if cfg.dump_ssm:
        eig = f"lambda_master = {complex(mm.lambda_master)!r}"
        _write_artifacts([(cfg.dump_ssm, _dump_text(cfg, ssm, mm, eig))])
        _say(cfg, f"wrote {cfg.dump_ssm}")


def _dump_text(cfg: RunConfig, ssm, mm, eig_summary: str) -> str:
    """All embedding and drift coefficients, multi-indices in graded-lex
    order (ascending total degree, then descending first exponent)."""
    out = [f"# {ln}" for ln in _meta_lines(cfg, eig_summary)]
    L = ssm.w0_dense.shape[0]
    out.append("ssm-dump v1")
    out.append(f"states {L}")
    out.append(f"order {ssm.order}")
    out.append(f"lambda {float(mm.lambda_master.real)!r} "
               f"{float(mm.lambda_master.imag)!r}")
    for ell in range(L):
        for d in range(ssm.order + 1):
            for p in range(d, -1, -1):
                q = d - p
                c = complex(ssm.w0_dense[ell, p, q])
                out.append(f"w0 {ell} {p} {q} {c.real!r} {c.imag!r}")
    for j, gam in enumerate(ssm.gamma):
        c = complex(gam)
        out.append(f"gamma {2 * j + 3} {c.real!r} {c.imag!r}")
    return "\n".join(out) + "\n"


def _cmd_frc(cfg: RunConfig) -> None:
    sys_, fos = _load_system(cfg)
    mm = _modal(cfg, sys_, fos)
    coord = _resolve_coord(cfg.coord, sys_)
    window = _parse_window(cfg.omega_window) if cfg.omega_window else None
    ssm = compute_autonomous_ssm(mm, cfg.order)
    curve = trace_frc(ssm, mm, cfg.eps, cfg.rho_max, cfg.n_rho,
                      omega_window=window)
    amps = physical_amplitudes(ssm, curve, coord).tolist()

    meta = _meta_lines(cfg,
                       f"lambda_master = {complex(mm.lambda_master)!r}")
    meta.insert(3, f"components: {len(curve.components)}; fold rho: "
                + " ".join(repr(float(r)) for r in curve.folds))
    meta.insert(4, f"amplitude coordinate: {coord}")
    rows = []
    for ci, members in enumerate(curve.components):
        for i in members:
            p = curve.points[i]
            rows.append([str(ci), p.branch, repr(p.omega), repr(p.rho),
                         repr(p.psi), p.stability, repr(amps[i])])
    columns = ["component", "branch", "Omega", "rho", "psi", "stability",
               "physical_amplitude"]
    artifacts = [(cfg.out, _csv_text(meta, columns, rows))]
    if cfg.svg:
        artifacts.append((cfg.svg, frc_svg(curve, amps, header=meta[:3])))
    _write_artifacts(artifacts)
    _say(cfg, f"wrote {cfg.out}" + (f" and {cfg.svg}" if cfg.svg else ""))
    dens = curve.forced.min_enslaved_den
    _say(cfg, "smallest forced denominator: "
         + (f"{dens.min():.1e}" if dens.size else "none (no accepted points)"))
    _say(cfg, _skip_summary(curve.skipped))


def _skip_summary(skipped) -> str:
    """One line counting a trace's skipped points by reason."""
    counts = Counter(reason for _, _, reason in skipped)
    detail = "; ".join(f"{reason}: {n}" for reason, n in sorted(counts.items()))
    return f"skipped points: {len(skipped)}" + (f" ({detail})" if detail else "")


def _cmd_isola(cfg: RunConfig) -> None:
    sys_, fos = _load_system(cfg)
    mm = _modal(cfg, sys_, fos)
    orders = _parse_orders(cfg.orders)
    rt, report = isola_report(mm, orders, cfg.eps, check=cfg.check,
                              cauchy_tol=cfg.tol_cauchy,
                              radius_fraction=cfg.tol_radius_frac)

    doc = {
        "meta": {
            "tool": TOOL,
            "version": __version__,
            "config_sha256": _config_hash(cfg),
            "eigenvalues": {"lambda_master": _jsonable(mm.lambda_master)},
            "timestamp": _utcnow(),
        },
        "root_track": {
            "orders": list(rt.orders),
            "roots": {str(m): _jsonable(rt.roots[m]) for m in rt.orders},
            "radius": {str(m): _jsonable(rt.radius[m]) for m in rt.orders},
            "trajectories": [
                {str(m): _jsonable(z) for m, z in t.items()}
                for t in rt.trajectories],
            "labels": report.labels,
        },
        "report": {
            "eps": cfg.eps,
            "nonspurious_roots": _jsonable(report.nonspurious_roots),
            "leading": _jsonable({
                "exists": report.leading.exists,
                "rho1": report.leading.rho1,
                "eps_m": report.leading.eps_m,
                "disconnected_at_eps": report.leading.disconnected_at_eps,
            }),
            "fold_rho": _jsonable(report.fold_rho),
        },
    }
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    artifacts = [(cfg.out, text)]
    if cfg.roots_svg:
        eig = f"lambda_master = {complex(mm.lambda_master)!r}"
        artifacts.append((cfg.roots_svg,
                          roots_svg(rt, header=_meta_lines(cfg, eig)[:3])))
    _write_artifacts(artifacts)
    _say(cfg, f"wrote {cfg.out}"
         + (f" and {cfg.roots_svg}" if cfg.roots_svg else ""))


def _cmd_verify(cfg: RunConfig) -> None:
    sys_, fos = _load_system(cfg)
    grid = _parse_omega(cfg.omega)
    if cfg.sweep == "down":
        grid = grid[::-1]
    monitor = _resolve_monitor(cfg.monitor, sys_)
    control = IntegratorControl(rel_tol=cfg.tol_rel, abs_tol=cfg.tol_abs)
    result = oracle_sweep(fos, cfg.eps, grid, monitor,
                          warm_start=not cfg.cold, control=control,
                          transient_time=cfg.transient_time,
                          min_measure_periods=cfg.min_periods,
                          max_measure_periods=cfg.max_periods,
                          settle_rel=cfg.tol_settle)

    meta = _meta_lines(cfg, f"slowest pair = {fos.slowest_eigenvalue()!r}")
    meta.insert(3, f"sweep: direction={cfg.sweep} eps={cfg.eps!r} "
                f"monitor={','.join(str(c) for c in monitor)} "
                f"start={'rest' if cfg.cold else 'warm'}")
    columns = (["omega"] + [f"amplitude_{c}" for c in monitor]
               + ["converged", "periods"])
    rows = []
    for i, om in enumerate(result.omega):
        rows.append([repr(float(om))]
                    + [repr(float(a)) for a in result.amplitude[i]]
                    + ["true" if result.converged[i] else "false",
                       str(int(result.periods[i]))])
    _write_artifacts([(cfg.out, _csv_text(meta, columns, rows))])
    n_bad = int((~result.converged).sum())
    _say(cfg, f"wrote {cfg.out} ({result.omega.size} points, "
         f"{n_bad} unconverged)")
    _say(cfg, f"integrator steps: {int(result.steps_accepted.sum())} "
         f"accepted, {int(result.steps_rejected.sum())} rejected")


def _cmd_beam(cfg: RunConfig) -> None:
    spec = read_beam_params(cfg.params)
    if cfg.elements is not None:
        spec = replace(spec, elements=cfg.elements)
    sys_ = build_beam(spec)
    fos = to_first_order(sys_)
    meta = _meta_lines(cfg, f"slowest pair = {fos.slowest_eigenvalue()!r}")
    meta.insert(3, f"beam: elements={spec.elements} (n={sys_.n} dof)")
    _write_artifacts([(cfg.out, format_system(sys_, header_lines=meta))])
    _say(cfg, f"wrote {cfg.out} ({sys_.n} dof)")


_DISPATCH = {
    "analyze": _cmd_analyze,
    "frc": _cmd_frc,
    "isola": _cmd_isola,
    "verify": _cmd_verify,
    "beam": _cmd_beam,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse usage errors already exit with 2
        code = exc.code
        return code if isinstance(code, int) else EXIT_USAGE
    try:
        cfg = _resolve_config(args)
        cfg.validate()
        _DISPATCH[cfg.command](cfg)
        return EXIT_OK
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NonResonanceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NONRESONANCE
    except (SemisimplicityError, InternalResonanceError,
            SingularChartError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_EXISTENCE
    except IntegrationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTEGRATION
    except SsmResolveError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNEXPECTED
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
