"""Command-line front end: reproducible analysis runs with CSV/JSON/SVG output.

``_build_parser`` is the one table of settings: each option is declared
once, with its type, default and help, and options that several commands
share come from parent parsers.  A config file's keys enter as the same
flags in front of the typed ones, so they get the same conversion and
checks, and flags win over the file, the file over the defaults.  Every run
stamps the SHA-256 hash of its command's resolved settings into each
artifact header and writes artifacts atomically, so identical settings
reproduce byte-identical bodies (only the timestamp header line differs
between runs).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from collections import Counter
from dataclasses import replace
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .beam import build_beam, read_beam_params
from .errors import (DivergenceError, InternalResonanceError,
                     NonResonanceError, SemisimplicityError,
                     SingularChartError, SsmResolveError, ValidationError)
from .frc import physical_amplitude, trace_frc
from .isola import isola_report
from .model import (NONRESONANCE_TOL, check_nonresonance, modal_decompose,
                    spectral_quotient, to_first_order)
from .oracle import (MAX_MEASURE_PERIODS, MIN_MEASURE_PERIODS, SETTLE_REL,
                     sweep as oracle_sweep)
from .ssm_auto import (RESONANCE_GUARD, compute_autonomous_ssm,
                       invariance_residual)
from .ssm_forced import (compute_nonautonomous_ssm, forced_residual,
                         leading_forcing_coefficient)
from .svgplot import frc_svg, roots_svg
from .sysio import format_system, read_system, write_artifacts

TOOL = "ssm-resolve"

EXIT_OK = 0
EXIT_USAGE = 2
#: exit code of each error ``main`` reports, the first match in this order:
#: 2 bad input, 3 a decay-rate resonance, 4 failed existence premises of
#: the manifold, 5 failed brute-force integration, 1 any other package error
EXIT_CODES = {
    ValidationError: EXIT_USAGE,
    NonResonanceError: 3,
    SemisimplicityError: 4,
    InternalResonanceError: 4,
    SingularChartError: 4,
    DivergenceError: 5,
    SsmResolveError: 1,
    OSError: EXIT_USAGE,
}

#: sample radius and count for the analyze command's invariance spot check
CHECK_RADIUS = 1e-3
CHECK_SAMPLES = 24


#: the settings each command cannot run without, checked once flags and
#: config file are resolved
REQUIRED = {"analyze": ("system",), "frc": ("system", "eps", "out"),
            "isola": ("system", "eps", "out"),
            "verify": ("system", "omega", "out"), "beam": ("params", "out")}


# ---------------------------------------------------------------------------
# the option table: argument parsing and config resolution


def _typed(casts, ok=None, need="finite", form="a number", sep=":"):
    """An argparse ``type``: split the text at ``sep``, cast field i with
    ``casts[i]``, and refuse non-finite fields and, given ``ok``, fields it
    rejects (``need`` says what is wanted).  One field gives a scalar."""
    def convert(text: str):
        try:
            values = tuple(cast(v) for cast, v
                           in zip(casts, text.split(sep), strict=True))
        except ValueError:
            raise argparse.ArgumentTypeError(f"expects {form}, got {text!r}")
        if not all(map(math.isfinite, values)) or (ok and not ok(*values)):
            raise argparse.ArgumentTypeError(f"must be {need}, got {text!r}")
        return values if len(values) > 1 else values[0]
    return convert


FINITE = _typed((float,))
POSITIVE = _typed((float,), lambda v: v > 0, "> 0")
COUNT = _typed((int,), lambda v: v >= 0, ">= 0", "an integer")
AT_LEAST_ONE = _typed((int,), lambda v: v >= 1, ">= 1", "an integer")


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
    """The one table of settings: every option with its type, default and
    help; options that several commands share sit in parent parsers."""
    common, system, modal, order, forced = (
        argparse.ArgumentParser(add_help=False) for _ in range(5))
    g = common.add_argument_group("global options")
    g.add_argument("--config", help="JSON file of option defaults "
                   "(flags win over the file, the file over built-ins)")
    g.add_argument("--jobs", type=AT_LEAST_ONE, default=1, help="accepted "
                   "for compatibility and checked to be >= 1; nothing reads "
                   "it (default 1)")
    g.add_argument("--quiet", action=argparse.BooleanOptionalAction,
                   default=False, help="suppress informational output")
    system.add_argument("--system", help="system definition file")
    modal.add_argument("--mode", type=COUNT, default=0, help="master mode "
                       "pair index (0 = slowest decaying, the default)")
    modal.add_argument("--normalization",
                       choices=("first-position", "largest"),
                       help="eigenvector scaling (default: the system "
                            "file's preference, else first-position)")
    order.add_argument("--order", default=3,
                       type=_typed((int,), lambda v: v >= 3 and v % 2 == 1,
                                   "odd and >= 3", "an integer"),
                       help="expansion order (odd, >= 3)")
    forced.add_argument("--eps", type=POSITIVE, help="forcing amplitude")

    p = argparse.ArgumentParser(
        prog=TOOL,
        description="Reduce a periodically forced mechanical system to two "
                    "ODEs on its slowest invariant manifold; read response "
                    "curves, folds, and detached branches off the reduced "
                    "coefficients; verify by brute-force integration.")
    p.add_argument("--version", action="version",
                   version=f"{TOOL} {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", parents=[common, system, modal, order],
                        help="reduce a system and report its coefficients")
    pa.add_argument("--dump-ssm", dest="dump_ssm",
                    help="write all embedding and drift coefficients to "
                         "this file")
    pa.add_argument("--seed", type=COUNT, default=0, help="seed of the "
                    "invariance spot check's sample angles (default 0)")

    pf = sub.add_parser("frc", parents=[common, system, modal, order, forced],
                        help="trace the forced response curve to CSV/SVG")
    pf.add_argument("--rho-max", type=FINITE, default=1.0, dest="rho_max",
                    help="upper end of the reduced amplitude grid")
    pf.add_argument("--n-rho", type=int, default=2000, dest="n_rho",
                    help="number of amplitude grid points")
    pf.add_argument("--omega-window", dest="omega_window",
                    type=_typed((float, float), lambda lo, hi: hi > lo,
                                "lo:hi with hi > lo", "lo:hi"),
                    help="keep only responses with frequency in lo:hi")
    pf.add_argument("--coord", default="drive", help="physical coordinate "
                    "for the amplitude column: an index or 'drive' (default)")
    pf.add_argument("--out", help="CSV output path")
    pf.add_argument("--svg", help="also render the curve to this SVG path")

    pi = sub.add_parser("isola", parents=[common, system, modal, forced],
                        help="track drift-polynomial roots and report "
                             "detached-branch structure to JSON/SVG")
    pi.add_argument("--orders", default="1..25",
                    type=_typed((int, int), lambda lo, hi: 1 <= lo <= hi,
                                "lo..hi with 1 <= lo <= hi", "lo..hi", ".."),
                    help="truncation order range lo..hi (default 1..25)")
    pi.add_argument("--check", action=argparse.BooleanOptionalAction,
                    default=True, help="refuse spectra that fail the "
                    "real-part non-resonance check (default on)")
    pi.add_argument("--out", help="JSON output path")
    pi.add_argument("--roots-svg", dest="roots_svg",
                    help="also render the root scatter to this SVG path")

    pv = sub.add_parser("verify", parents=[common, system],
                        help="brute-force frequency sweep of the full "
                             "system to CSV")
    pv.add_argument("--eps", type=_typed((float,), lambda v: v >= 0, ">= 0"),
                    default=0.0, help="forcing amplitude")
    pv.add_argument("--omega", help="frequency grid start:stop:n "
                    "(inclusive ends)",
                    type=_typed((float, float, int),
                                lambda a, b, n: n == 1 or (n > 1 and b > a),
                                "start:stop:n with stop > start and n >= 1",
                                "start:stop:n"))
    pv.add_argument("--monitor", default="drive", help="comma-separated "
                    "position coordinates to measure; 'drive'/'tip' = the "
                    "forced coordinate (default)")
    pv.add_argument("--sweep", choices=("up", "down"), default="up",
                    help="sweep direction (default up)")
    pv.add_argument("--cold", action=argparse.BooleanOptionalAction,
                    default=False, help="start every grid point from rest "
                    "instead of warm-starting from the previous steady state")
    pv.add_argument("--transient-time", type=FINITE, dest="transient_time",
                    help="override the transient burn-off horizon (time "
                         "units; default 5 / |slowest decay rate|)")
    pv.add_argument("--min-periods", type=int, default=MIN_MEASURE_PERIODS,
                    dest="min_periods", help="minimum measured periods per "
                    "point (default %(default)s)")
    pv.add_argument("--max-periods", type=int, default=MAX_MEASURE_PERIODS,
                    dest="max_periods", help="measured-period budget per "
                    "point (default %(default)s)")
    pv.add_argument("--tol-settle", type=POSITIVE, default=SETTLE_REL,
                    dest="tol_settle", help="sweep settle threshold, relative "
                    "per-period change (default %(default)s)")
    pv.add_argument("--out", help="CSV output path")

    pb = sub.add_parser("beam", parents=[common],
                        help="build the cantilever model and emit a system "
                             "file")
    pb.add_argument("--params", help="beam parameter file")
    pb.add_argument("--elements", type=AT_LEAST_ONE,
                    help="finite-element count (default: the parameter "
                         "file's value, else 25)")
    pb.add_argument("--out", help="system file output path")

    return p


def _commands(parser: argparse.ArgumentParser) -> dict:
    """Command name -> its subparser."""
    sub, = (a for a in parser._actions
            if isinstance(a, argparse._SubParsersAction))
    return sub.choices


def _options(command: argparse.ArgumentParser) -> dict:
    """Setting name (the option's dest) -> its action, help excluded."""
    return {a.dest: a for a in command._actions
            if a.option_strings and a.dest != "help"}


def _file_flags(path: str, parser: argparse.ArgumentParser,
                command: str) -> list[str]:
    """A config file's keys as flags of ``command``, so that each value
    converts and is checked exactly as the same text typed after the flag.
    Numbers keep their JSON text; keys that only other commands read are
    dropped, keys that no command reads or that repeat are refused, and so
    is ``config``: the file it named would never be read."""
    def unique(pairs: list) -> dict:
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise ValidationError(f"config file repeats key {key!r}")
            seen.add(key)
        return dict(pairs)

    try:
        with open(path) as fh:
            data = json.load(fh, parse_int=str, parse_float=str,
                             parse_constant=str, object_pairs_hook=unique)
    except OSError as exc:
        raise ValidationError(f"cannot read config file: {exc}")
    except json.JSONDecodeError as exc:
        raise ValidationError(f"config file is not valid JSON: {exc}")
    if not isinstance(data, dict):
        raise ValidationError("config file must hold a JSON object")
    if "config" in data:
        raise ValidationError("a config file cannot name another one")
    commands = _commands(parser)
    unknown = set(data).difference(*map(_options, commands.values()))
    if unknown:
        raise ValidationError(
            f"unknown config file keys: {', '.join(sorted(unknown))}")
    own = _options(commands[command])
    flags = []
    for key, value in data.items():
        action = own.get(key)
        if action is None:
            continue
        if isinstance(action, argparse.BooleanOptionalAction):
            if not isinstance(value, bool):
                raise ValidationError(f"config file key {key!r} must be "
                                      "true or false")
            flags.append(action.option_strings[0 if value else 1])
        elif isinstance(value, str):
            flags.append(f"{action.option_strings[0]}={value}")
        else:
            raise ValidationError(f"config file key {key!r} must be a "
                                  "number or a string")
    return flags


def _resolve(parser: argparse.ArgumentParser,
             argv: list[str]) -> argparse.Namespace:
    """The running command's settings: flags over config file over
    defaults.  The file's keys enter as flags in front of the typed ones,
    so the later, typed flag wins."""
    cfg = parser.parse_args(argv)
    if cfg.config:
        cut = argv.index(cfg.command) + 1
        cfg = parser.parse_args(
            argv[:cut] + _file_flags(cfg.config, parser, cfg.command)
            + argv[cut:])
    missing = [f"--{name}" for name in REQUIRED[cfg.command]
               if not getattr(cfg, name)]
    if missing:
        raise ValidationError(f"{cfg.command} requires {', '.join(missing)}")
    return cfg


# ---------------------------------------------------------------------------
# artifact plumbing


def _utcnow() -> str:
    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def _config_hash(cfg: argparse.Namespace) -> str:
    """SHA-256 over the running command's resolved settings, which can
    influence artifact content; verbosity, the unread --jobs, and the config
    file path (whose contents are already resolved in) are excluded, so
    equal hashes mean equal expected bodies."""
    payload = {k: v for k, v in vars(cfg).items()
               if k not in ("quiet", "jobs", "config")}
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _meta_lines(cfg: argparse.Namespace, eig_summary: str,
                *extra: str) -> list[str]:
    """Header lines for text artifacts: tool, config hash, eigenvalues, the
    command's own ``extra`` lines, and last the timestamp, on its own line
    so byte-identity of reruns holds for everything else."""
    return [f"{TOOL} {__version__}",
            f"config sha256 {_config_hash(cfg)}",
            f"eigenvalues: {eig_summary}", *extra,
            f"timestamp: {_utcnow()}"]


def _master_summary(mm) -> str:
    """The eigenvalue summary of the commands that reduce a system."""
    return f"lambda_master = {complex(mm.lambda_master)!r}"


def _csv_text(meta: list[str], columns: list[str],
              rows: list[list[str]]) -> str:
    lines = [f"# {ln}" for ln in meta]
    lines.append(",".join(columns))
    lines.extend(",".join(cells) for cells in rows)
    return "\n".join(lines) + "\n"


def _say(cfg: argparse.Namespace, message: str) -> None:
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


def _load_system(cfg: argparse.Namespace):
    sys_ = read_system(cfg.system)
    return sys_, to_first_order(sys_)


def _modal(cfg: argparse.Namespace, sys_, fos):
    norm = cfg.normalization or sys_.normalization or "first-position"
    return modal_decompose(fos, master=cfg.mode, normalization=norm)


# ---------------------------------------------------------------------------
# commands


def _cmd_analyze(cfg: argparse.Namespace) -> None:
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
    sigma = min(spectral_quotient(mm), cfg.order + 1)
    nonres = f"non-resonance: satisfied through order {sigma}"
    if sigma >= 2:
        nonres += (f"; smallest relative margin "
                   f"{check_nonresonance(mm, sigma):.1e} "
                   f"(tolerance {NONRESONANCE_TOL:.0e})")
    lines.append(nonres)
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
    res0 = invariance_residual(ssm, samples)
    lines.append(f"unforced invariance defect: max relative "
                 f"{res0['max_relative']:.3e} over {CHECK_SAMPLES} samples "
                 f"at radius {CHECK_RADIUS:g} (seed {cfg.seed})")
    fr = compute_nonautonomous_ssm(ssm, mm.lambda_master.imag)
    res1 = forced_residual(ssm, fr, samples)
    lines.append(f"forced invariance defect at resonance: max relative "
                 f"{res1['max_relative']:.3e}")
    print("\n".join(lines))

    if cfg.dump_ssm:
        write_artifacts([(cfg.dump_ssm, _dump_text(cfg, ssm, mm))])
        _say(cfg, f"wrote {cfg.dump_ssm}")


def _dump_text(cfg: argparse.Namespace, ssm, mm) -> str:
    """All embedding and drift coefficients, multi-indices in graded-lex
    order (ascending total degree, then descending first exponent)."""
    out = [f"# {ln}" for ln in _meta_lines(cfg, _master_summary(mm))]
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


def _cmd_frc(cfg: argparse.Namespace) -> None:
    sys_, fos = _load_system(cfg)
    mm = _modal(cfg, sys_, fos)
    coord = _resolve_coord(cfg.coord, sys_)
    ssm = compute_autonomous_ssm(mm, cfg.order)
    curve = trace_frc(ssm, mm, cfg.eps, cfg.rho_max, cfg.n_rho,
                      omega_window=cfg.omega_window)
    amps = physical_amplitude(ssm, curve.forced, curve.points, coord,
                              curve.eps).tolist()

    meta = _meta_lines(cfg, _master_summary(mm),
                       f"components: {len(curve.components)}; fold rho: "
                       + " ".join(repr(float(r)) for r in curve.folds),
                       f"amplitude coordinate: {coord}")
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
    write_artifacts(artifacts)
    _say(cfg, f"wrote {cfg.out}" + (f" and {cfg.svg}" if cfg.svg else ""))
    dens = curve.forced.min_enslaved_den
    _say(cfg, "smallest forced denominator: "
         + (f"{dens.min():.1e} (guard {RESONANCE_GUARD:.0e})" if dens.size
            else "none (no accepted points)"))
    _say(cfg, _reason_summary("skipped points",
                              [reason for _, _, reason in curve.skipped]))
    unresolved = int(np.isnan(curve.folds).sum())
    if unresolved:
        _say(cfg, f"unresolved folds: {unresolved}")


def _reason_summary(label: str, reasons) -> str:
    """One line counting points by reason."""
    counts = Counter(reasons)
    detail = "; ".join(f"{reason}: {n}" for reason, n in sorted(counts.items()))
    return f"{label}: {len(reasons)}" + (f" ({detail})" if detail else "")


def _cmd_isola(cfg: argparse.Namespace) -> None:
    sys_, fos = _load_system(cfg)
    mm = _modal(cfg, sys_, fos)
    lo, hi = cfg.orders
    rt, report = isola_report(mm, range(lo, hi + 1), cfg.eps,
                              check=cfg.check)

    doc = {
        "meta": {
            "tool": TOOL,
            "version": __version__,
            "config_sha256": _config_hash(cfg),
            "eigenvalues": {"lambda_master": mm.lambda_master},
            "timestamp": _utcnow(),
        },
        "root_track": {
            "orders": rt.orders,
            "roots": rt.roots,
            "radius": rt.radius,
            "trajectories": rt.trajectories,
            "labels": report.labels,
        },
        "report": {
            "eps": cfg.eps,
            "nonspurious_roots": report.nonspurious_roots,
            "leading": vars(report.leading),
            "fold_rho": report.fold_rho,
        },
    }
    text = json.dumps(_jsonable(doc), indent=2, sort_keys=True) + "\n"
    artifacts = [(cfg.out, text)]
    if cfg.roots_svg:
        header = _meta_lines(cfg, _master_summary(mm))[:3]
        artifacts.append((cfg.roots_svg, roots_svg(rt, header=header)))
    write_artifacts(artifacts)
    _say(cfg, f"wrote {cfg.out}"
         + (f" and {cfg.roots_svg}" if cfg.roots_svg else ""))


def _cmd_verify(cfg: argparse.Namespace) -> None:
    sys_, fos = _load_system(cfg)
    grid = np.linspace(*cfg.omega)
    if cfg.sweep == "down":
        grid = grid[::-1]
    monitor = _resolve_monitor(cfg.monitor, sys_)
    result = oracle_sweep(fos, cfg.eps, grid, monitor,
                          warm_start=not cfg.cold,
                          transient_time=cfg.transient_time,
                          min_measure_periods=cfg.min_periods,
                          max_measure_periods=cfg.max_periods,
                          settle_rel=cfg.tol_settle)

    meta = _meta_lines(cfg, f"slowest pair = {fos.slowest_eigenvalue()!r}",
                       f"sweep: direction={cfg.sweep} eps={cfg.eps!r} "
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
    write_artifacts([(cfg.out, _csv_text(meta, columns, rows))])
    n_bad = int((~result.converged).sum())
    _say(cfg, f"wrote {cfg.out} ({result.omega.size} points, "
         f"{n_bad} unconverged)")
    _say(cfg, _reason_summary("unconverged points",
                              [f for f in result.failure.tolist() if f]))
    _say(cfg, f"integrator steps: {int(result.steps.sum())}")


def _cmd_beam(cfg: argparse.Namespace) -> None:
    spec = read_beam_params(cfg.params)
    if cfg.elements is not None:
        spec = replace(spec, elements=cfg.elements)
    sys_ = build_beam(spec)
    fos = to_first_order(sys_)
    meta = _meta_lines(cfg, f"slowest pair = {fos.slowest_eigenvalue()!r}",
                       f"beam: elements={spec.elements} (n={sys_.n} dof)")
    write_artifacts([(cfg.out, format_system(sys_, header_lines=meta))])
    _say(cfg, f"wrote {cfg.out} ({sys_.n} dof)")


_DISPATCH = {
    "analyze": _cmd_analyze,
    "frc": _cmd_frc,
    "isola": _cmd_isola,
    "verify": _cmd_verify,
    "beam": _cmd_beam,
}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        cfg = _resolve(_build_parser(), argv)
        _DISPATCH[cfg.command](cfg)
        return EXIT_OK
    except SystemExit as exc:  # argparse usage errors already exit with 2
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    except (SsmResolveError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in EXIT_CODES.items()
                    if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
