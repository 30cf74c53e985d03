"""The benchmark workloads: fixtures, ops and per-op reference checks.

An op is one ``ssm_resolve.cli.main`` call.  Each op carries a check that
returns the worst error as a fraction of its tolerance (0 is exact, above 1
fails) and the artifact paths whose bodies must repeat exactly from pass to
pass.  Fixtures are generated at set-up from the seed: the same seed gives
the same inputs, and seed 0 gives the acceptance-suite values unjittered.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from ssm_resolve import cli
from ssm_resolve.frc import physical_amplitude, trace_frc
from ssm_resolve.model import (MechanicalSystem, PolyTerm, modal_decompose,
                               to_first_order)
from ssm_resolve.oracle import linear_frc_closed_form
from ssm_resolve.ssm_auto import compute_autonomous_ssm
from ssm_resolve.ssm_forced import compute_nonautonomous_ssm
from ssm_resolve.sysio import read_system, write_system

HERE = Path(__file__).resolve().parent
REFERENCES = json.loads((HERE / "references.json").read_text())

#: two-mass benchmark parameters, as in tests/conftest.py
SP = dict(m=1.0, c1=0.03, c2=math.sqrt(3) * 0.03, k=3.0,
          kappa=0.4, alpha=-0.6, P=3.0)

#: the cantilever parameter file of README.md's walkthrough
BEAM_PARAMS = """\
length 2700.0
height 10.0
width 10.0
density 1.78e-6
modulus 4.5e7
cubic_spring 6.0
cubic_damper -0.02
mass_damping 1.25e-4
stiffness_damping 2.5e-4
tip_force 0.1
elements 25
"""

#: systems each workload reads (set-up builds their modal models and
#: order-3 manifolds)
SYSTEMS = {
    "reduced-path": ("cubic", "quintic", "beam25", "beam100", "linear"),
    "oracle-verify": ("cubic", "beam2"),
}

EPS_JITTER = 0.02
#: cold/warm frequencies keep this distance from unstable points (as
#: acceptance check 7(b) does)
UNSTABLE_GAP = 4e-3


class CheckFailed(Exception):
    """An op ran but its output disagrees with the reference."""


def two_mass(kappa=SP["kappa"], alpha=SP["alpha"], quintic=0.0
             ) -> MechanicalSystem:
    m, c1, c2, k = SP["m"], SP["c1"], SP["c2"], SP["k"]
    g = []
    if kappa:
        g.append(PolyTerm(0, kappa, (3, 0, 0, 0)))
    if alpha:
        g.append(PolyTerm(0, alpha, (0, 0, 3, 0)))
    if quintic:
        g.append(PolyTerm(0, quintic, (0, 0, 5, 0)))
    return MechanicalSystem(
        M=np.eye(2) * m, C=np.array([[c1 + c2, -c2], [-c2, c1 + c2]]),
        K=np.array([[2 * k, -k], [-k, 2 * k]]), g=g,
        f=np.array([SP["P"], 0.0]))


def load_modal(path):
    """Read a system file and build its modal model as the CLI does."""
    sys_ = read_system(path)
    return modal_decompose(to_first_order(sys_), normalization=(
        sys_.normalization or "first-position"))


@dataclass
class Op:
    label: str
    argv: list[str]
    check: Callable[[str], float]
    artifacts: tuple[str, ...] = ()
    category: str = ""
    points: int = 1


@dataclass
class Workload:
    name: str
    seed: int
    fixtures: Path
    systems: dict[str, str]
    ops: list[Op] = field(default_factory=list)
    refs: dict = field(default_factory=dict)
    inputs: dict = field(default_factory=dict)


def _rel(got: float, ref: float, tol: float) -> float:
    return abs(got - ref) / abs(ref) / tol


def _exact(got, want, what: str) -> float:
    if got != want:
        raise CheckFailed(f"{what}: got {got!r}, expected {want!r}")
    return 0.0


def _csv(path: str) -> tuple[list[str], list[dict]]:
    lines = Path(path).read_text().splitlines()
    meta = [ln[2:] for ln in lines if ln.startswith("# ")]
    body = [ln for ln in lines if not ln.startswith("#")]
    cols = body[0].split(",")
    return meta, [dict(zip(cols, ln.split(","))) for ln in body[1:]]


def _components(meta: list[str]) -> int:
    line = next(m for m in meta if m.startswith("components: "))
    return int(line.split(";")[0].split()[1])


def _make_fixtures(wl: Workload) -> None:
    d = wl.fixtures
    params = d / "beam.params"
    params.write_text(BEAM_PARAMS)
    makers = {"cubic": lambda: two_mass(),
              "quintic": lambda: two_mass(quintic=1.2),
              "linear": lambda: two_mass(kappa=0.0, alpha=0.0)}
    for name in SYSTEMS[wl.name]:
        path = str(d / f"{name}.txt")
        wl.systems[name] = path
        if name in makers:
            write_system(makers[name](), path)
            continue
        elements = name[len("beam"):]
        code = cli.main(["beam", "--params", str(params), "--elements",
                         elements, "--out", path, "--quiet"])
        if code != 0:
            raise RuntimeError(f"beam fixture {name} failed with exit {code}")


def _eps(wl: Workload, rng: np.random.Generator, key: str, base: float
         ) -> float:
    """Seeded forcing amplitude: ``base`` within +-2 %; seed 0 keeps it."""
    jitter = rng.uniform(-EPS_JITTER, EPS_JITTER)
    eps = base if wl.seed == 0 else base * (1.0 + jitter)
    wl.inputs[f"eps.{key}"] = eps
    return eps


def build(name: str, seed: int, fixtures: Path) -> Workload:
    """Generate the fixtures of workload ``name`` and its op list."""
    fixtures.mkdir(parents=True, exist_ok=True)
    wl = Workload(name=name, seed=seed, fixtures=fixtures, systems={})
    rng = np.random.default_rng(seed)
    _make_fixtures(wl)
    parts = {"reduced-path": (_frc_ops, _isola_ops),
             "oracle-verify": (_oracle_ops,)}[name]
    for add_ops in parts:
        add_ops(wl, rng)
    return wl


# ---------------------------------------------------------------------------
# reduced-path, first half: the frc-trace ops


def _frc_ops(wl: Workload, rng) -> None:
    curves = [
        # name, system, order, eps, rho_max, n_rho, window, components
        ("cubic", "cubic", 3, 0.0027, 0.13, 260, None, 2),
        ("quintic", "quintic", 5, 0.001, 0.26, 400, "1.58:1.82", 3),
        ("beam25", "beam25", 3, 0.002, 0.5, 300, None, 1),
        ("linear", "linear", 3, 0.001, 0.0145, 220, None, 1),
    ]
    wl.refs["components"] = {c[0]: c[7] for c in curves}
    lin_mm = load_modal(wl.systems["linear"])
    for name, system, order, base, rho_max, n_rho, window, _ in curves:
        eps = _eps(wl, rng, name, base)
        out = str(wl.fixtures / f"frc_{name}.csv")
        svg = str(wl.fixtures / f"frc_{name}.svg")
        argv = ["frc", "--system", wl.systems[system], "--order", str(order),
                "--eps", repr(eps), "--rho-max", repr(rho_max),
                "--n-rho", str(n_rho), "--out", out, "--svg", svg,
                "--jobs", "1", "--quiet"]
        if window:
            argv += ["--omega-window", window]

        def check(_stdout, name=name, out=out, eps=eps):
            meta, rows = _csv(out)
            worst = _exact(_components(meta), wl.refs["components"][name],
                           f"{name} component count")
            if name == "linear":
                if len(rows) < 200:
                    raise CheckFailed(f"linear curve has {len(rows)} points")
                om = np.array([float(r["Omega"]) for r in rows])
                rho = np.array([float(r["rho"]) for r in rows])
                err = np.abs(rho - linear_frc_closed_form(lin_mm, eps, om))
                worst = max(worst, float(err.max()) / 1e-10)
            return worst

        wl.ops.append(Op(label=f"frc:{name}", argv=argv, check=check,
                         artifacts=(out, svg), category="frc"))


# ---------------------------------------------------------------------------
# reduced-path, second half: the isola-track ops


def _isola_ops(wl: Workload, rng) -> None:
    d = wl.fixtures
    wl.refs.update(REFERENCES["isola"])
    for elements in (25, 100):
        out = str(d / f"op_beam{elements}.txt")

        def check(_stdout, out=out, elements=elements):
            return _exact(read_system(out).n, 2 * elements,
                          f"beam{elements} degrees of freedom")

        wl.ops.append(Op(label=f"beam:{elements}", argv=[
            "beam", "--params", str(d / "beam.params"), "--elements",
            str(elements), "--out", out, "--quiet"], check=check,
            artifacts=(out,), category="beam"))

    runs = [("beam25", "1..25", 0.002), ("beam100", "1..25", 0.002),
            ("cubic", "1..25", 0.0027), ("quintic", "1..12", 0.001)]
    for name, orders, base in runs:
        eps = _eps(wl, rng, f"isola.{name}", base)
        out = str(d / f"isola_{name}.json")
        svg = str(d / f"roots_{name}.svg")

        def check(_stdout, name=name, out=out):
            doc = json.loads(Path(out).read_text())
            report = doc["report"]
            ref = wl.refs[name]
            worst = 0.0
            if "eps_m" in ref:
                worst = max(worst, _rel(report["leading"]["eps_m"],
                                        *ref["eps_m"]))
            if "rho1" in ref:
                worst = max(worst, _rel(report["leading"]["rho1"],
                                        *ref["rho1"]))
            if "roots" in ref:
                # acceptance check 5: the degree-five truncation's positive
                # root pair, both confirmed non-spurious by the deeper track
                want, tol = ref["roots"]
                order2 = (complex(*z) for z in doc["root_track"]["roots"]["2"])
                got = sorted(z.real for z in order2 if z.real > 1e-12
                             and abs(z.imag) <= 1e-9 * abs(z))
                _exact(len(got), len(want), f"{name} positive order-2 roots")
                _exact(len(report["nonspurious_roots"]), len(want),
                       f"{name} non-spurious roots")
                # relative to the computed root, as the acceptance test has it
                worst = max([worst] + [abs(g - w) / g / tol
                                       for g, w in zip(got, want)])
            return worst

        wl.ops.append(Op(label=f"isola:{name}", argv=[
            "isola", "--system", wl.systems[name], "--orders", orders,
            "--eps", repr(eps), "--out", out, "--roots-svg", svg,
            "--jobs", "1", "--quiet"], check=check, artifacts=(out, svg),
            category="isola"))

    for name, order, dump in (("beam25", 7, True), ("beam100", 3, False)):
        argv = ["analyze", "--system", wl.systems[name], "--order",
                str(order), "--jobs", "1", "--quiet"]
        artifacts = ()
        if dump:
            artifacts = (str(d / f"dump_{name}.txt"),)
            argv += ["--dump-ssm", artifacts[0]]

        def check(stdout, name=name):
            line = next(ln for ln in stdout.splitlines()
                        if ln.endswith("[master]"))
            lam = complex(line.split(":", 1)[1].split()[0])
            (re_ref, im_ref), tol = wl.refs["master_pair"]
            return max(_rel(lam.real, re_ref, tol), _rel(lam.imag, im_ref, tol))

        wl.ops.append(Op(label=f"analyze:{name}", argv=argv, check=check,
                         artifacts=artifacts, category="analyze"))


# ---------------------------------------------------------------------------
# oracle-verify


def _pick_frequencies(wl: Workload, rng, eps: float):
    """Seeded (low, mid, high) frequencies on the stable attached branch of
    the traced cubic curve, with the reduced model's predicted amplitude of
    coordinate 0 at each."""
    mm = load_modal(wl.systems["cubic"])
    ssm = compute_autonomous_ssm(mm, 3)
    curve = trace_frc(ssm, mm, eps, rho_max=0.13, n_rho=260)
    i_tail = min(range(len(curve.points)), key=lambda i: curve.points[i].rho)
    main = [curve.points[i] for i in curve.components[curve.component_of(i_tail)]]
    unstable = [p.omega for p in main if p.stability == "unstable"]
    stable = sorted((p for p in main if p.stability == "stable"
                     and all(abs(p.omega - u) >= UNSTABLE_GAP for u in unstable)),
                    key=lambda p: p.omega)
    amps = np.array([physical_amplitude(
        ssm, compute_nonautonomous_ssm(ssm, p.omega), p, 0, eps=eps)
        for p in stable])
    oms = np.array([p.omega for p in stable])
    # the lower flank of the resonance band (amplitude at least a tenth of
    # the peak); points near the peak take two to three times as many RK
    # steps to settle, and how many varies from seed to seed
    band = np.flatnonzero(amps >= 0.1 * amps.max())
    n = band.size
    spread = max(1, n // 100)
    lo = band[int(round(0.05 * (n - 1))) + rng.integers(-spread, spread + 1)]
    hi = band[int(round(0.40 * (n - 1))) + rng.integers(-spread, spread + 1)]
    grid = [float(x) for x in np.linspace(oms[lo], oms[hi], 3)]
    # the midpoint lies between two traced stable points of the same branch
    j = int(np.searchsorted(oms, grid[1]))
    w = (grid[1] - oms[j - 1]) / (oms[j] - oms[j - 1])
    pred = [amps[lo], (1 - w) * amps[j - 1] + w * amps[j], amps[hi]]
    return grid, pred


def _oracle_ops(wl: Workload, rng) -> None:
    d = wl.fixtures
    eps = _eps(wl, rng, "sweep", 0.0027)
    grid, pred = _pick_frequencies(wl, rng, eps)
    wl.inputs["omega"] = grid
    wl.refs["predicted"] = [float(x) for x in pred]
    wl.refs.update(REFERENCES["oracle-verify"])
    settle = ["--tol-settle", "1e-4", "--max-periods", "900"]

    def amp_check(out, predicted):
        _, rows = _csv(out)
        worst = 0.0
        for row, want in zip(rows, predicted, strict=True):
            if row["converged"] != "true":
                raise CheckFailed(f"omega {row['omega']} did not settle")
            worst = max(worst, _rel(float(row["amplitude_0"]), want,
                                    wl.refs["amplitude_tol"]))
        return worst

    for i, om in enumerate(grid):
        out = str(d / f"cold_{i}.csv")
        wl.ops.append(Op(label=f"verify:cold{i}", argv=[
            "verify", "--system", wl.systems["cubic"], "--eps", repr(eps),
            "--omega", f"{om!r}:{om!r}:1", "--monitor", "0", "--cold",
            *settle, "--out", out, "--jobs", "1", "--quiet"],
            check=lambda _s, out=out, i=i: amp_check(
                out, wl.refs["predicted"][i:i + 1]),
            artifacts=(out,), category="cold"))

    out = str(d / "warm.csv")
    wl.ops.append(Op(label="verify:warm", argv=[
        "verify", "--system", wl.systems["cubic"], "--eps", repr(eps),
        "--omega", f"{grid[0]!r}:{grid[-1]!r}:3", "--monitor", "0",
        "--sweep", "up", *settle, "--out", out, "--jobs", "1", "--quiet"],
        check=lambda _s: amp_check(out, wl.refs["predicted"]),
        artifacts=(out,), category="warm", points=3))

    stiff = wl.refs["stiff"]
    out_s = str(d / "stiff.csv")

    def stiff_check(_stdout):
        _, rows = _csv(out_s)
        (row,) = rows
        amp = next(v for k, v in row.items() if k.startswith("amplitude_"))
        return _rel(float(amp), stiff["amplitude"], stiff["tol"])

    wl.ops.append(Op(label="verify:stiff", argv=[
        "verify", "--system", wl.systems["beam2"], *stiff["argv"],
        "--out", out_s, "--jobs", "1", "--quiet"], check=stiff_check,
        artifacts=(out_s,), category="stiff"))
