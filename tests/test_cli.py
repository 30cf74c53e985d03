"""Command-line driver: artifact contents, reproducibility, exit codes."""

import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ssm_resolve import cli, errors, oracle, sysio
from ssm_resolve.beam import BeamSpec, build_beam
from ssm_resolve.cli import (REQUIRED, _build_parser, _commands,
                             _config_hash, _options, _resolve, main)
from ssm_resolve.frc import trace_frc
from ssm_resolve.model import (MechanicalSystem, to_first_order,
                               modal_decompose)
from ssm_resolve.oracle import sweep
from ssm_resolve.ssm_auto import compute_autonomous_ssm
from ssm_resolve.sysio import write_system

from conftest import two_mass_system, write_beam_params

# cantilever reference parameters (mm / kg / s), as in test_beam
BEAM = dict(length=2700.0, height=10.0, width=10.0, density=1780e-9,
            modulus=45e6, cubic_spring=6.0, cubic_damper=-0.02,
            mass_damping=1.25e-4, stiffness_damping=2.5e-4, tip_force=0.1)


def sp_file(tmp_path, name="two_mass.txt", **kw) -> str:
    path = tmp_path / name
    write_system(two_mass_system(**kw), path)
    return str(path)


def drop_timestamps(text: str) -> str:
    return "\n".join(ln for ln in text.splitlines() if "timestamp" not in ln)


def body_lines(text: str) -> list[str]:
    return [ln for ln in text.splitlines() if not ln.startswith("# ")]


# ---------------------------------------------------------------------------
# round trips and reproducibility


def test_beam_output_reingested_by_analyze_reproduces_master_pair(tmp_path,
                                                                  capsys):
    params = tmp_path / "beam.params"
    write_beam_params(BeamSpec(elements=25, **BEAM), params)
    sysfile = tmp_path / "beam_sys.txt"
    assert main(["beam", "--params", str(params), "--elements", "5",
                 "--out", str(sysfile)]) == 0
    assert "wrote" in capsys.readouterr().out

    assert main(["analyze", "--system", str(sysfile), "--order", "3"]) == 0
    out = capsys.readouterr().out
    lam = modal_decompose(to_first_order(build_beam(BeamSpec(elements=5,
                                                             **BEAM))),
                          normalization="largest").lambda_master
    # bit-identical eigenvalue after the file round trip
    assert f"  mode 0: {complex(lam)!r}  [master]" in out.splitlines()
    assert "normalization: largest" in out


def test_rerun_is_byte_identical_outside_the_timestamp(tmp_path, capsys):
    sysfile = sp_file(tmp_path)
    out = tmp_path / "frc.csv"
    texts = []
    for _ in range(2):
        assert main(["frc", "--system", sysfile, "--eps", "0.0027",
                     "--order", "3", "--rho-max", "0.08", "--n-rho", "60",
                     "--out", str(out)]) == 0
        texts.append(out.read_text())
    assert re.search(r"^# timestamp: \d{4}-\d{2}-\d{2}T\d{2}:\d{2}:\d{2}Z$",
                     texts[0], re.M)
    assert drop_timestamps(texts[0]) == drop_timestamps(texts[1])

    out = tmp_path / "isola.json"
    docs = []
    for _ in range(2):
        assert main(["isola", "--system", sysfile, "--orders", "1..6",
                     "--eps", "0.0027", "--out", str(out)]) == 0
        docs.append(out.read_text())
    assert drop_timestamps(docs[0]) == drop_timestamps(docs[1])
    capsys.readouterr()


def test_frc_worker_count_does_not_change_artifacts(tmp_path, capsys):
    sysfile = sp_file(tmp_path)
    out = tmp_path / "frc.csv"
    svg = tmp_path / "frc.svg"
    texts = []
    for jobs in ("1", "2"):
        assert main(["frc", "--system", sysfile, "--eps", "0.0027",
                     "--order", "3", "--rho-max", "0.13", "--n-rho", "80",
                     "--out", str(out), "--svg", str(svg),
                     "--jobs", jobs]) == 0
        texts.append((out.read_text(), svg.read_text()))
    capsys.readouterr()
    for one, two in zip(*texts):
        assert drop_timestamps(one) == drop_timestamps(two)


def test_verify_worker_count_does_not_change_artifacts(tmp_path, capsys):
    sysfile = sp_file(tmp_path)
    out = tmp_path / "sweep.csv"
    texts = []
    for jobs in ("1", "2"):
        assert main(["verify", "--system", sysfile, "--eps", "0.0027",
                     "--omega", "1.72:1.75:2", "--cold",
                     "--transient-time", "20", "--min-periods", "4",
                     "--max-periods", "4", "--out", str(out),
                     "--jobs", jobs]) == 0
        texts.append(out.read_text())
    capsys.readouterr()
    assert len(body_lines(texts[0])) == 3
    assert drop_timestamps(texts[0]) == drop_timestamps(texts[1])


def test_frc_curve_agrees_across_blas_thread_counts(tmp_path, capsys):
    """The byte-for-byte claim holds at one BLAS thread count; across one
    and two OpenBLAS threads, beam25's curve keeps its structure (rows,
    components, branches, labels, skips) and its values within 1e-12
    relative.  Each count runs in a fresh interpreter, with the thread
    variables set explicitly, since BLAS reads them when NumPy loads."""
    params, sysfile = tmp_path / "beam.params", tmp_path / "beam_sys.txt"
    write_beam_params(BeamSpec(elements=25, **BEAM), params)
    assert main(["beam", "--params", str(params), "--out", str(sysfile)]) == 0
    capsys.readouterr()
    src = str(Path(cli.__file__).parents[1])

    def run_frc(threads: str):
        """(structure, values, folds) of the curve traced at that count."""
        out = tmp_path / f"frc{threads}.csv"
        argv = ["frc", "--system", str(sysfile), "--eps", "0.002",
                "--rho-max", "0.5", "--n-rho", "300", "--out", str(out)]
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "OMP_NUM_THREADS": threads, "MKL_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(
                   [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
        run = subprocess.run(
            [sys.executable, "-c",
             f"from ssm_resolve import cli\nassert cli.main({argv!r}) == 0\n"],
            env=env, capture_output=True, text=True, timeout=300)
        assert run.returncode == 0, run.stderr
        text = out.read_text()
        head, folds = next(ln for ln in text.splitlines()
                           if "fold rho:" in ln).split("fold rho:")
        rows = [ln.split(",") for ln in body_lines(text)[1:]]
        skips = [ln for ln in run.stdout.splitlines()
                 if ln.startswith("skipped points:")]
        # component, branch and stability label of every row
        structure = (head, skips, [(r[0], r[1], r[5]) for r in rows])
        # Omega, rho, psi and physical amplitude of every row
        values = np.array([r[2:5] + r[6:] for r in rows], dtype=float)
        return structure, values, np.array(folds.split(), dtype=float)

    one, two = run_frc("1"), run_frc("2")
    assert len(one[1]) > 500 and len(one[2]) > 0 and one[0][1]
    assert one[0] == two[0]
    for got, want in zip(two[1:], one[1:]):
        assert got.shape == want.shape
        assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))


# ---------------------------------------------------------------------------
# artifact contents


def test_frc_reports_detached_branch_as_second_component(tmp_path, capsys):
    sysfile = sp_file(tmp_path)
    out = tmp_path / "frc.csv"
    assert main(["frc", "--system", sysfile, "--eps", "0.0027",
                 "--order", "3", "--rho-max", "0.13", "--n-rho", "260",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    lines = out.read_text().splitlines()
    meta = [ln for ln in lines if ln.startswith("# ")]
    body = [ln for ln in lines if not ln.startswith("# ")]
    assert any(ln.startswith("# components: 2; fold rho: ") for ln in meta)
    assert body[0] == ("component,branch,Omega,rho,psi,stability,"
                       "physical_amplitude")
    rows = [ln.split(",") for ln in body[1:]]
    assert {r[0] for r in rows} == {"0", "1"}
    assert {r[1] for r in rows} <= {"K+", "K-"}
    assert {r[5] for r in rows} <= {"stable", "unstable", "fold-degenerate"}
    assert all(len(r) == 7 and float(r[6]) > 0 for r in rows)
    fold_line = next(ln for ln in meta if "fold rho:" in ln)
    folds = [float(tok) for tok in fold_line.split("fold rho:")[1].split()]
    assert folds == pytest.approx([0.0507057, 0.0704741, 0.1211798],
                                  rel=1e-3)


def test_commands_run_without_scipy(tmp_path):
    """A fresh interpreter imports the CLI, traces a curve with folds,
    analyzes the system and runs a short sweep, whose exponential
    integrator needs a matrix exponential, without loading SciPy: its
    import alone costs more than half a second."""
    sysfile, out = sp_file(tmp_path), tmp_path / "frc.csv"
    frc = ["frc", "--system", sysfile, "--eps", "0.0027", "--rho-max", "0.13",
           "--n-rho", "60", "--out", str(out), "--quiet"]
    analyze = ["analyze", "--system", sysfile, "--quiet"]
    verify = ["verify", "--system",
              sp_file(tmp_path, "linear.txt", kappa=0.0, alpha=0.0),
              "--eps", "0.001", "--omega", "1.72:1.72:1",
              "--transient-time", "20", "--min-periods", "4",
              "--max-periods", "4", "--out", str(tmp_path / "sweep.csv"),
              "--quiet"]
    probe = ("import sys\nfrom ssm_resolve import cli\n"
             f"assert cli.main({frc!r}) == 0\n"
             f"assert cli.main({analyze!r}) == 0\n"
             f"assert cli.main({verify!r}) == 0\n"
             "assert 'scipy' not in sys.modules, 'SciPy was imported'\n")
    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    run = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    fold_line = next(ln for ln in out.read_text().splitlines()
                     if "fold rho:" in ln)
    assert len(fold_line.split("fold rho:")[1].split()) == 3


def test_isola_reports_reference_rest_radius_and_merger(tmp_path, capsys):
    params = tmp_path / "beam.params"
    write_beam_params(BeamSpec(elements=25, **BEAM), params)
    sysfile = tmp_path / "beam_sys.txt"
    assert main(["beam", "--params", str(params), "--out", str(sysfile)]) == 0
    out = tmp_path / "isola.json"
    assert main(["isola", "--system", str(sysfile), "--orders", "1..3",
                 "--eps", "0.002", "--out", str(out)]) == 0
    capsys.readouterr()
    doc = json.loads(out.read_text())
    lead = doc["report"]["leading"]
    assert lead["exists"] is True
    assert lead["rho1"] == pytest.approx(0.413, rel=0.01)
    assert lead["eps_m"] == pytest.approx(0.0018, rel=0.05)
    assert lead["disconnected_at_eps"] is False  # 0.002 exceeds the merger
    assert doc["meta"]["config_sha256"] and doc["meta"]["version"]
    assert doc["root_track"]["orders"] == [1, 2, 3]
    assert len(doc["root_track"]["labels"]) \
        == len(doc["root_track"]["trajectories"])


def test_analyze_reports_smallest_enslaved_denominator(tmp_path, capsys):
    sysfile = sp_file(tmp_path)
    dump = tmp_path / "ssm.txt"
    assert main(["analyze", "--system", sysfile, "--order", "5", "--quiet",
                 "--dump-ssm", str(dump)]) == 0
    out = capsys.readouterr().out.splitlines()
    ssm = compute_autonomous_ssm(
        modal_decompose(to_first_order(two_mass_system())), 5)
    want = (f"smallest enslaved denominator: {ssm.min_enslaved_den:.1e} "
            "(guard 1e-08)")
    assert out.count(want) == 1
    # the real-part check through order min(4, 5 + 1): the enslaved pair's
    # margin |4 Re lambda_1 - Re lambda_2| / |Re lambda_2|
    lam = ssm.mm.eigenvalues.real
    margin = abs(4 * lam[0] - lam[2]) / abs(lam[2])
    assert out.count(f"non-resonance: satisfied through order 4; smallest "
                     f"relative margin {margin:.1e} (tolerance 1e-08)") == 1
    # a stdout line only: the dump artifact does not carry it
    assert "enslaved" not in dump.read_text()


def test_dump_lists_coefficients_in_graded_lex_order(tmp_path, capsys):
    sysfile = sp_file(tmp_path)
    dump = tmp_path / "ssm.txt"
    assert main(["analyze", "--system", sysfile, "--order", "3",
                 "--dump-ssm", str(dump)]) == 0
    capsys.readouterr()
    body = body_lines(dump.read_text())
    assert body[0] == "ssm-dump v1"
    assert body[1] == "states 4"
    assert body[2] == "order 3"
    assert body[3].startswith("lambda ")
    w0 = [ln.split() for ln in body if ln.startswith("w0 ")]
    ell0 = [(int(t[2]), int(t[3])) for t in w0 if t[1] == "0"]
    assert ell0 == [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2),
                    (3, 0), (2, 1), (1, 2), (0, 3)]
    # the chart is tangent: the (1, 0) slot of state 0 is exactly one
    t10 = next(t for t in w0 if t[1] == "0" and (t[2], t[3]) == ("1", "0"))
    assert float(t10[4]) == 1.0 and float(t10[5]) == 0.0
    gammas = [ln for ln in body if ln.startswith("gamma ")]
    assert len(gammas) == 1 and gammas[0].startswith("gamma 3 ")


def test_verify_emits_convergence_flags_per_frequency(tmp_path, capsys):
    sysfile = sp_file(tmp_path, kappa=0.0, alpha=0.0)
    out = tmp_path / "sweep.csv"
    assert main(["verify", "--system", sysfile, "--eps", "0.001",
                 "--omega", "1.70:1.76:3", "--out", str(out)]) == 0
    assert "(3 points, 0 unconverged)" in capsys.readouterr().out
    lines = out.read_text().splitlines()
    assert any(ln.startswith("# sweep: direction=up eps=0.001 monitor=0 "
                             "start=warm") for ln in lines)
    body = [ln for ln in lines if not ln.startswith("# ")]
    assert body[0] == "omega,amplitude_0,converged,periods"
    rows = [ln.split(",") for ln in body[1:]]
    assert [float(r[0]) for r in rows] == pytest.approx([1.70, 1.73, 1.76])
    assert all(r[2] == "true" for r in rows)
    assert all(float(r[1]) > 0 and int(r[3]) >= 20 for r in rows)


def test_verify_reports_integrator_steps(tmp_path, capsys):
    sysfile = sp_file(tmp_path, kappa=0.0, alpha=0.0)
    out = tmp_path / "sweep.csv"
    argv = ["verify", "--system", sysfile, "--eps", "0.001",
            "--omega", "1.72:1.75:2", "--cold", "--transient-time", "20",
            "--min-periods", "4", "--max-periods", "4", "--out", str(out)]
    assert main(argv) == 0
    line = capsys.readouterr().out.splitlines()[-1]
    sr = sweep(to_first_order(two_mass_system(kappa=0.0, alpha=0.0)), 0.001,
               [1.72, 1.75], [0], warm_start=False, transient_time=20.0,
               min_measure_periods=4, max_measure_periods=4)
    assert line == f"integrator steps: {sr.steps.sum()}"
    body = body_lines(out.read_text())
    assert main(argv + ["--quiet"]) == 0
    assert capsys.readouterr().out == ""
    assert body_lines(out.read_text()) == body


def test_verify_counts_unconverged_points_by_reason(tmp_path, capsys):
    # forced past the unstable cycle, the cubic damper blows the response
    # up after the one-period burn-off; a four-period cap cannot settle
    out = tmp_path / "sweep.csv"
    base = ["verify", "--system", sp_file(tmp_path), "--eps", "0.01",
            "--omega", "1.73:1.74:2", "--transient-time", "3.7",
            "--out", str(out)]
    for extra, want in (([], "unconverged points: 2 (diverged: 2)"),
                        (["--eps", "0.001", "--min-periods", "4",
                          "--max-periods", "4"],
                         "unconverged points: 2 (unsettled: 2)")):
        assert main(base + extra) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-2] == want
        assert lines[-1].startswith("integrator steps: ")
        body = body_lines(out.read_text())
        assert main(base + extra + ["--quiet"]) == 0
        assert capsys.readouterr().out == ""
        assert body_lines(out.read_text()) == body


def test_verify_rejects_impossible_sweep_settings(tmp_path, capsys):
    sysfile = sp_file(tmp_path)
    out = tmp_path / "sweep.csv"
    base = ["verify", "--system", sysfile, "--eps", "0.0027",
            "--omega", "1.5:1.5:1", "--out", str(out)]
    for extra, word in ((["--max-periods", "5"], "max_measure_periods"),
                        (["--transient-time", "-1"], "transient_time")):
        assert main(base + extra) == 2, extra
        # the message names the library setting and the flag that sets it
        err = capsys.readouterr().err
        assert word in err and f"verify {extra[0]}" in err, err
        assert not out.exists()


def test_verify_names_the_measuring_floor_it_refuses(tmp_path, capsys):
    """Too few measured periods to detect a settle: the message names the
    library setting and the flag that sets it."""
    out = tmp_path / "sweep.csv"
    assert main(["verify", "--system", sp_file(tmp_path), "--eps", "0.0027",
                 "--omega", "1.5:1.5:1", "--min-periods", "2",
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "min_measure_periods" in err and "--min-periods" in err
    assert not out.exists()


def test_frc_reports_skipped_points_by_reason(tmp_path, capsys):
    sysfile = sp_file(tmp_path)
    out = tmp_path / "frc.csv"
    argv = ["frc", "--system", sysfile, "--eps", "0.0027",
            "--rho-max", "0.06", "--n-rho", "60", "--out", str(out)]
    assert main(argv) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "skipped points: 0"
    body = out.read_text()

    assert main(argv + ["--omega-window", "1.71:1.75"]) == 0
    line = capsys.readouterr().out.splitlines()[-1]
    mm = modal_decompose(to_first_order(two_mass_system()))
    fc = trace_frc(compute_autonomous_ssm(mm, 3), mm, 0.0027, rho_max=0.06,
                   n_rho=60, omega_window=(1.71, 1.75))
    n = len(fc.skipped)
    assert n > 0
    assert {reason for _, _, reason in fc.skipped} == {"omega outside window"}
    assert line == f"skipped points: {n} (omega outside window: {n})"

    # the report goes to the console only: artifact bodies are unchanged
    assert main(argv) == 0
    capsys.readouterr()
    assert drop_timestamps(out.read_text()) == drop_timestamps(body)


def test_frc_reports_smallest_forced_denominator(tmp_path, capsys):
    sysfile = sp_file(tmp_path)
    out = tmp_path / "frc.csv"
    assert main(["frc", "--system", sysfile, "--eps", "0.0027",
                 "--rho-max", "0.06", "--n-rho", "60", "--out", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    mm = modal_decompose(to_first_order(two_mass_system()))
    fc = trace_frc(compute_autonomous_ssm(mm, 3), mm, 0.0027, rho_max=0.06,
                   n_rho=60)
    # the smallest enslaved |lambda_i - <k, lambda_master> -/+ i*Omega| of
    # any point's kept forced row, relative to max(|lambda_i|, |Omega|) as
    # the guard it is read against
    smallest = fc.forced.min_enslaved_den.min()
    assert 0 < smallest < 1
    assert lines[-2] == (f"smallest forced denominator: {smallest:.1e} "
                         "(guard 1e-08)")
    assert "denominator" not in out.read_text()

    assert main(["frc", "--system", sysfile, "--eps", "0.0027",
                 "--rho-max", "0.06", "--n-rho", "20", "--out", str(out),
                 "--omega-window", "10:11"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-2] == "smallest forced denominator: none (no accepted points)"


def test_frc_svg_of_an_empty_curve_writes_both_files(tmp_path, capsys):
    """A window that keeps no point is a result, not an input error: the
    CSV holds its header alone and the SVG a note."""
    out, svg = tmp_path / "e.csv", tmp_path / "e.svg"
    assert main(["frc", "--system", sp_file(tmp_path), "--eps", "0.0027",
                 "--rho-max", "0.06", "--n-rho", "20", "--out", str(out),
                 "--omega-window", "10:11", "--svg", str(svg)]) == 0
    assert body_lines(out.read_text()) == [
        "component,branch,Omega,rho,psi,stability,physical_amplitude"]
    assert ">no accepted points</text>" in svg.read_text()


def test_quiet_silences_informational_output(tmp_path, capsys):
    sysfile = sp_file(tmp_path)
    out = tmp_path / "q.csv"
    svg = tmp_path / "q.svg"
    assert main(["frc", "--system", sysfile, "--eps", "0.0027", "--quiet",
                 "--rho-max", "0.05", "--n-rho", "10", "--out", str(out),
                 "--svg", str(svg)]) == 0
    assert capsys.readouterr().out == ""
    assert out.exists()
    assert svg.read_text().lstrip().startswith("<svg")


# ---------------------------------------------------------------------------
# configuration precedence


def test_config_file_defaults_yield_to_flags(tmp_path, capsys):
    sysfile = sp_file(tmp_path)
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"order": 5}))
    assert main(["analyze", "--system", sysfile,
                 "--config", str(cfgfile)]) == 0
    assert "order: 5" in capsys.readouterr().out
    assert main(["analyze", "--system", sysfile, "--config", str(cfgfile),
                 "--order", "3"]) == 0
    assert "order: 3" in capsys.readouterr().out
    cfgfile.write_text(json.dumps({"ordre": 5}))
    assert main(["analyze", "--system", sysfile,
                 "--config", str(cfgfile)]) == 2
    assert "unknown config file keys" in capsys.readouterr().err


def _sample(action) -> str | bool:
    """A value for an option that differs from its default: the other state
    of an on/off option, another choice, or the first candidate text that
    the option's type accepts."""
    if isinstance(action, argparse.BooleanOptionalAction):
        return not action.default
    candidates = action.choices or ["5", "0.5", "1.5:2.5", "1.5:2.5:3",
                                    "2..4"]
    for text in candidates:
        try:
            value = action.type(text) if action.type else text
        except (argparse.ArgumentTypeError, ValueError):
            continue
        if value != action.default:
            return text
    raise AssertionError(f"no sample value for {action.option_strings}")


def _as_flags(action, value) -> list[str]:
    if isinstance(value, bool):
        return [action.option_strings[0 if value else 1]]
    return [action.option_strings[0], value]


def _as_json(name: str, value) -> str:
    """A config file setting ``name``; a numeric text stays a JSON number
    with the same digits."""
    try:
        number = json.loads(value) if isinstance(value, str) else None
    except json.JSONDecodeError:
        number = None
    literal = value if isinstance(number, (int, float)) else json.dumps(value)
    return f'{{"{name}": {literal}}}'


def test_flag_and_config_file_are_one_route(tmp_path, capsys):
    parser = _build_parser()
    cfgfile = tmp_path / "cfg.json"

    def resolve(argv, text="{}"):
        cfgfile.write_text(text)
        return _resolve(parser, argv + ["--config", str(cfgfile)])

    checked = 0
    for command, sub in _commands(parser).items():
        options = _options(sub)
        for name, action in options.items():
            if name == "config":  # the file route itself
                continue
            value = _sample(action)
            base = [command]
            for need in REQUIRED[command]:
                if need != name:
                    base += _as_flags(options[need], _sample(options[need]))
            by_flag = resolve(base + _as_flags(action, value))
            by_file = resolve(base, _as_json(name, value))
            assert vars(by_flag) == vars(by_file), (command, name)
            assert _config_hash(by_flag) == _config_hash(by_file)
            default = parser.parse_args(base)
            assert getattr(by_file, name) != getattr(default, name)
            checked += 1
    # every setting of the table but --config: --jobs and --quiet on each
    # of the five commands, plus analyze's 6 own (system, mode,
    # normalization, order, dump_ssm, seed), frc's 11, isola's 8,
    # verify's 11 and beam's 3
    assert checked == 5 * 2 + 6 + 11 + 8 + 11 + 3

    frc = ["frc", "--system", "s.txt", "--out", "c.csv", "--eps", "0.002"]
    # a key that only another command reads changes nothing for frc
    assert (_config_hash(resolve(frc, '{"tol_settle": 0, "orders": "1..3"}'))
            == _config_hash(resolve(frc)))
    # a typed flag beats the file
    assert resolve(frc, '{"eps": 0.001, "n_rho": 7}').eps == 0.002
    assert resolve(frc, '{"eps": 0.001, "n_rho": 7}').n_rho == 7
    # a key that no command reads is refused
    cfgfile.write_text('{"ordre": 5}')
    assert main(frc + ["--config", str(cfgfile)]) == 2
    assert "unknown config file keys: ordre" in capsys.readouterr().err


@pytest.mark.parametrize("argv, config, word", [
    (["frc", "--eps", "nan"], None, "--eps"),
    (["frc", "--eps", "0.0027", "--rho-max", "nan"], None, "--rho-max"),
    (["frc", "--eps", "0.0027", "--rho-max", "inf"], None, "--rho-max"),
    (["isola", "--eps", "nan", "--orders", "1..4"], None, "--eps"),
    (["verify", "--eps", "nan"], None, "--eps"),
    (["verify", "--eps", "0.001", "--tol-settle", "nan"], None,
     "--tol-settle"),
    (["analyze"], {"order": 5.0}, "--order"),
    (["analyze"], {"order": "x"}, "--order"),
    (["verify", "--eps", "0.001"], {"cold": "no"}, "'cold'"),
    (["frc", "--eps", "0.0027"], {"rho_max": None}, "'rho_max'"),
    (["frc", "--eps", "0.0027"], {"svg": ["a.svg"]}, "'svg'"),
], ids=["frc-eps-nan", "frc-rho-max-nan", "frc-rho-max-inf",
        "isola-eps-nan", "verify-eps-nan", "verify-tol-settle-nan",
        "config-order-float", "config-order-text", "config-cold-text",
        "config-null", "config-list"])
def test_non_finite_and_mistyped_inputs_are_refused(tmp_path, capsys, argv,
                                                    config, word):
    out = tmp_path / ("o.json" if argv[0] == "isola" else "o.csv")
    out_flag = "--dump-ssm" if argv[0] == "analyze" else "--out"
    argv = argv + ["--system", sp_file(tmp_path), out_flag, str(out)]
    if argv[0] == "frc":
        argv += ["--n-rho", "10"]
    if argv[0] == "verify":
        argv += ["--omega", "1.7:1.7:1", "--transient-time", "10",
                 "--min-periods", "4", "--max-periods", "5"]
    if config is not None:
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps(config))
        argv += ["--config", str(cfgfile)]
    assert main(argv) == 2
    assert word in capsys.readouterr().err
    assert not out.exists()


def test_config_keys_of_other_commands_are_not_checked(tmp_path, capsys):
    # verify's tolerance is refused there, yet frc never reads it
    sysfile = sp_file(tmp_path)
    out = tmp_path / "c.csv"
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"tol_settle": 0}))
    assert main(["frc", "--system", sysfile, "--eps", "0.0027", "--rho-max",
                 "0.05", "--n-rho", "10", "--out", str(out), "--quiet",
                 "--config", str(cfgfile)]) == 0
    assert out.exists()


def test_verify_refuses_repeated_monitor_coordinates(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    assert main(["verify", "--system", sp_file(tmp_path), "--eps", "0.001",
                 "--omega", "1.7:1.7:1", "--monitor", "drive,0",
                 "--out", str(out)]) == 2
    assert "monitor indices must be distinct" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# failure modes


def test_analyze_refuses_resonant_decay_ratio(tmp_path, capsys):
    # second modal damper exactly twice the first: decay ratio 2
    sysfile = sp_file(tmp_path, c2=0.015)
    assert main(["analyze", "--system", sysfile]) == 3
    err = capsys.readouterr().err
    assert "resonance" in err
    assert re.search(r"Re\(lam_\d+\) = \d+\*Re\(lam_0\) "
                     r"\+ \d+\*Re\(lam_1\)", err)


def test_analyze_reports_defective_master_pair(tmp_path, capsys):
    critical = MechanicalSystem(M=np.eye(1), C=np.array([[2.0]]),
                                K=np.eye(1), g=[], f=np.ones(1))
    path = tmp_path / "critical.txt"
    write_system(critical, path)
    assert main(["analyze", "--system", str(path)]) == 4
    assert "error:" in capsys.readouterr().err


def test_usage_errors_exit_with_code_two(tmp_path, capsys):
    sysfile = sp_file(tmp_path)
    cases = [
        ["frc", "--system", sysfile, "--out", str(tmp_path / "x.csv")],
        ["analyze", "--system", sysfile, "--order", "4"],
        ["verify", "--system", sysfile, "--out", str(tmp_path / "v.csv")],
        ["analyze", "--system", str(tmp_path / "missing.txt")],
        ["frc", "--system", sysfile, "--eps", "0.001", "--coord", "9",
         "--rho-max", "0.01", "--n-rho", "5",
         "--out", str(tmp_path / "x.csv")],
        ["isola", "--system", sysfile, "--eps", "0.001", "--orders", "5..2",
         "--out", str(tmp_path / "i.json")],
        ["bogus"],
    ]
    for argv in cases:
        assert main(argv) == 2, argv
        capsys.readouterr()
    assert main(["--version"]) == 0
    assert "ssm-resolve" in capsys.readouterr().out


@pytest.mark.parametrize("error, code", [
    (errors.ValidationError, 2), (errors.NonResonanceError, 3),
    (errors.SemisimplicityError, 4), (errors.InternalResonanceError, 4),
    (errors.SingularChartError, 4), (errors.DivergenceError, 5),
    (errors.SsmResolveError, 1), (OSError, 2)])
def test_each_error_exits_with_its_documented_code(tmp_path, capsys,
                                                   monkeypatch, error, code):
    """The exit codes of README.md's table, one error class at a time,
    through the whole of ``main``."""
    def fail(cfg):
        raise error("probe")

    monkeypatch.setitem(cli._DISPATCH, "analyze", fail)
    assert main(["analyze", "--system", sp_file(tmp_path)]) == code
    assert capsys.readouterr().err == "error: probe\n"


def test_failed_run_leaves_no_partial_artifacts(tmp_path, capsys):
    sysfile = sp_file(tmp_path)
    out = tmp_path / "ok.csv"
    svg = tmp_path / "missing_dir" / "curve.svg"
    assert main(["frc", "--system", sysfile, "--eps", "0.0027",
                 "--rho-max", "0.05", "--n-rho", "10",
                 "--out", str(out), "--svg", str(svg)]) == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()



def test_frc_draws_branches_far_below_the_grid_step(tmp_path):
    """At eps 1e-7 no equal row meets the curve; the rows added inside the
    leading-order intervals give both components, so the curve has points
    to draw."""
    out, svg = tmp_path / "narrow.csv", tmp_path / "narrow.svg"
    assert main(["frc", "--system", sp_file(tmp_path), "--eps", "1e-7",
                 "--rho-max", "0.13", "--n-rho", "260", "--quiet",
                 "--out", str(out), "--svg", str(svg)]) == 0
    assert "# components: 2;" in out.read_text()
    assert svg.read_text().startswith("<svg")


# ---------------------------------------------------------------------------
# master pair selection


def test_mode_selects_the_master_pair(tmp_path, capsys):
    """--mode 1 makes the faster pair of the two-mass system the master:
    analyze tags it and finds no slower decay rate to resolve (spectral
    quotient 1), and frc writes it as lambda_master."""
    sysfile = sp_file(tmp_path)
    lam = complex(modal_decompose(to_first_order(two_mass_system()),
                                  master=1).lambda_master)
    assert lam == pytest.approx(-0.06696 + 2.99925j, abs=1e-5)
    assert main(["analyze", "--system", sysfile, "--mode", "1"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert [ln for ln in out if ln.endswith("[master]")] \
        == [f"  mode 1: {lam!r}  [master]"]
    assert "spectral quotient: 1" in out
    csv = tmp_path / "frc.csv"
    assert main(["frc", "--system", sysfile, "--mode", "1", "--eps", "0.001",
                 "--rho-max", "0.05", "--n-rho", "20", "--quiet",
                 "--out", str(csv)]) == 0
    assert (f"# eigenvalues: lambda_master = {lam!r}"
            in csv.read_text().splitlines())


@pytest.mark.parametrize("command", [
    ["analyze"], ["frc", "--eps", "0.001", "--out", "o.csv"],
    ["isola", "--eps", "0.001", "--out", "o.json"]])
def test_mode_beyond_the_underdamped_pairs_is_refused(tmp_path, capsys,
                                                      monkeypatch, command):
    monkeypatch.chdir(tmp_path)
    assert main(command + ["--system", sp_file(tmp_path), "--mode", "2"]) == 2
    assert capsys.readouterr().err == ("error: master pair index 2 out of "
                                       "range (2 underdamped pairs found)\n")
    assert not list(tmp_path.glob("o.*"))


# ---------------------------------------------------------------------------
# option placement


def test_tolerance_flags_sit_only_on_the_commands_that_read_them():
    shared = {"--config", "--jobs", "--quiet", "--no-quiet"}
    own = {"verify": {"--tol-settle"}}
    # the sweep steps a fixed count a period: no command takes the
    # integrator's tolerances; isola's root classification reads its
    # constants
    tolerances = set().union(*own.values(), {"--tol-rel", "--tol-abs",
                                             "--tol-cauchy",
                                             "--tol-radius-frac"})
    sub, = (a for a in _build_parser()._actions
            if isinstance(a, argparse._SubParsersAction))
    assert set(sub.choices) == {"analyze", "frc", "isola", "verify", "beam"}
    for name, parser in sub.choices.items():
        flags = set(parser._option_string_actions)
        assert shared <= flags, name
        assert flags & tolerances == own.get(name, set()), name
        # only analyze draws random sample points
        assert ("--seed" in flags) == (name == "analyze"), name


def test_tolerance_and_period_defaults_are_the_library_constants():
    # one home per default: the flag reads the constant the library
    # defaults to, and its help prints it
    want = {"verify": {"min_periods": oracle.MIN_MEASURE_PERIODS,
                       "max_periods": oracle.MAX_MEASURE_PERIODS,
                       "tol_settle": oracle.SETTLE_REL}}
    commands = _commands(_build_parser())
    for command, defaults in want.items():
        options = _options(commands[command])
        for dest, constant in defaults.items():
            assert options[dest].default is constant, (command, dest)
            assert options[dest].help.endswith("(default %(default)s)")


def test_tolerance_flags_are_refused_where_nothing_reads_them(tmp_path,
                                                              capsys):
    sysfile = sp_file(tmp_path)
    frc = ["frc", "--system", sysfile, "--eps", "0.0027", "--rho-max",
           "0.05", "--n-rho", "10", "--out", str(tmp_path / "c.csv"),
           "--quiet"]
    assert main(frc + ["--tol-settle", "0"]) == 2
    assert "unrecognized arguments: --tol-settle" in capsys.readouterr().err
    # nothing reads an integrator tolerance, verify included
    verify = ["verify", "--system", sysfile, "--eps", "0.001", "--omega",
              "1.7:1.7:1", "--out", str(tmp_path / "v.csv")]
    for cmd in (frc, verify):
        assert main(cmd + ["--tol-rel", "1e-11"]) == 2
        assert ("unrecognized arguments: --tol-rel"
                in capsys.readouterr().err)
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"tol_abs": 1e-13}))
    assert main(verify + ["--config", str(cfgfile)]) == 2
    assert ("unknown config file keys: tol_abs"
            in capsys.readouterr().err)
    # isola's root classification reads its constants: neither its
    # flags nor its config keys exist
    isola_argv = ["isola", "--system", sysfile, "--eps", "0.001",
                  "--orders", "1..3", "--out", str(tmp_path / "i.json")]
    assert main(isola_argv + ["--tol-cauchy", "1e-3"]) == 2
    assert ("unrecognized arguments: --tol-cauchy"
            in capsys.readouterr().err)
    cfgfile.write_text(json.dumps({"tol_cauchy": 1e-3}))
    assert main(isola_argv + ["--config", str(cfgfile)]) == 2
    assert ("unknown config file keys: tol_cauchy"
            in capsys.readouterr().err)
    # one config file still serves every command: frc ignores the keys
    # only verify and isola read
    cfgfile.write_text(json.dumps({"tol_settle": 1e-4, "check": False}))
    assert main(frc + ["--config", str(cfgfile)]) == 0
    # and the command that reads one still checks it
    assert main(verify + ["--tol-settle", "0"]) == 2
    assert "argument --tol-settle: must be > 0" in capsys.readouterr().err
    assert not (tmp_path / "v.csv").exists()
    assert not (tmp_path / "i.json").exists()


def test_seed_sits_only_on_analyze(tmp_path, capsys):
    """Only analyze draws random sample points: the other commands refuse
    --seed as a flag, and one config file holding it still serves them."""
    sysfile = sp_file(tmp_path)
    params = tmp_path / "beam.params"
    write_beam_params(BeamSpec(elements=2, **BEAM), params)
    out = str(tmp_path / "out")
    commands = {
        "frc": ["frc", "--system", sysfile, "--eps", "0.0027", "--rho-max",
                "0.05", "--n-rho", "10", "--out", out],
        "isola": ["isola", "--system", sysfile, "--eps", "0.001",
                  "--orders", "1..3", "--out", out],
        "verify": ["verify", "--system", sysfile, "--eps", "0.001",
                   "--omega", "1.7:1.7:1", "--out", out],
        "beam": ["beam", "--params", str(params), "--out", out]}
    for name, argv in commands.items():
        assert main(argv + ["--seed", "1"]) == 2, name
        assert ("unrecognized arguments: --seed"
                in capsys.readouterr().err), name
        assert not os.path.exists(out), name
    analyze = ["analyze", "--system", sysfile]
    assert main(analyze + ["--seed", "1"]) == 0
    assert "(seed 1)" in capsys.readouterr().out
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"seed": 1}))
    assert main(analyze + ["--config", str(cfgfile)]) == 0
    assert "(seed 1)" in capsys.readouterr().out
    assert main(commands["beam"] + ["--config", str(cfgfile)]) == 0
    # the seed is not part of the settings of a command that ignores it
    frc = commands["frc"]
    assert (_config_hash(_resolve(_build_parser(),
                                  frc + ["--config", str(cfgfile)]))
            == _config_hash(_build_parser().parse_args(frc)))


# ---------------------------------------------------------------------------
# non-finite system data


def _two_mass_text(M="1 0", K="6 -3", f="1 0", coeff=None) -> str:
    """The two-mass file: M = I, C = 0.03 I, K = [[6, -3], [-3, 6]], f =
    [1, 0], with a replaced first row of M or K, a replaced f, and given
    ``coeff`` one cubic term of that coefficient."""
    terms = "g 0" if coeff is None else f"g 1\n0 {coeff} 3 0 0 0"
    return (f"{sysio.MAGIC}\nn 2\nM\n{M}\n0 1\nC\n0.03 0\n0 0.03\n"
            f"K\n{K}\n-3 6\n{terms}\nf\n{f}\n")


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("where, text, name", [
    ("M", lambda v: _two_mass_text(M=f"{v} 0"), "M"),
    ("K", lambda v: _two_mass_text(K=f"6 {v}"), "K"),
    ("f", lambda v: _two_mass_text(f=f"{v} 0"), "f"),
    ("coeff", lambda v: _two_mass_text(coeff=v), "the coefficients of g"),
], ids=lambda x: x if isinstance(x, str) else "")
@pytest.mark.parametrize("argv", [
    ["analyze", "--dump-ssm", "OUT"],
    ["frc", "--eps", "0.001", "--rho-max", "0.05", "--n-rho", "10",
     "--out", "OUT", "--svg", "OUT.svg"],
    ["isola", "--eps", "0.001", "--orders", "1..3", "--out", "OUT"],
    ["verify", "--omega", "1.7:1.7:1", "--out", "OUT"],
], ids=lambda argv: argv[0])
def test_non_finite_system_data_exits_two(tmp_path, capsys, argv, where,
                                          text, name, value):
    sysfile = tmp_path / "sys.txt"
    sysfile.write_text(text(value))
    out = str(tmp_path / "out")
    argv = [a.replace("OUT", out) for a in argv] + ["--system", str(sysfile)]
    assert main(argv) == 2
    assert (capsys.readouterr().err
            == f"error: non-finite entry in {name}\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["sys.txt"]


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("field", ["modulus", "length", "cubic_spring",
                                   "tip_force"])
def test_non_finite_beam_parameters_exit_two(tmp_path, capsys, field, value):
    with pytest.raises(errors.ValidationError,
                       match=f"beam parameter {field} must be finite"):
        BeamSpec(**{**BEAM, field: value})
    params = tmp_path / "beam.params"
    params.write_text("".join(f"{k} {v!r}\n"
                              for k, v in {**BEAM, field: value}.items()))
    out = tmp_path / "beam.txt"
    assert main(["beam", "--params", str(params), "--out", str(out)]) == 2
    assert (capsys.readouterr().err
            == f"error: beam parameter {field} must be finite\n")
    assert not out.exists()


def test_repeated_keys_exit_two(tmp_path, capsys):
    """A key given twice is refused, in a beam parameter file and in a
    config file, rather than the last one silently winning."""
    params = tmp_path / "beam.params"
    write_beam_params(BeamSpec(elements=2, **BEAM), params)
    lines = params.read_text().splitlines()
    params.write_text("\n".join(lines + ["length 1.0"]) + "\n")
    first = 1 + next(i for i, ln in enumerate(lines)
                     if ln.startswith("length "))
    out = tmp_path / "beam.txt"
    assert main(["beam", "--params", str(params), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: line {len(lines) + 1}: repeated key 'length' "
        f"(first on line {first})\n")
    assert not out.exists()
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text('{"order": 5, "order": 3}')
    assert main(["analyze", "--system", sp_file(tmp_path),
                 "--config", str(cfgfile)]) == 2
    assert ("config file repeats key 'order'"
            in capsys.readouterr().err)


def test_config_file_naming_another_exits_two(tmp_path, capsys):
    """A config file's ``config`` key is refused rather than ignored: the
    file it names would never be read."""
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text('{"config": "nothere.json"}')
    assert main(["analyze", "--system", sp_file(tmp_path),
                 "--config", str(cfgfile)]) == 2
    assert (capsys.readouterr().err
            == "error: a config file cannot name another one\n")


# ---------------------------------------------------------------------------
# paths no other test runs


def test_cold_sweep_down_writes_the_up_rows_in_reverse(tmp_path, capsys):
    """From rest, each point forgets its neighbours: the downward sweep's
    rows are the upward sweep's, byte for byte, in reverse order."""
    base = ["verify", "--system", sp_file(tmp_path), "--eps", "0.001",
            "--omega", "1.6:1.8:3", "--max-periods", "40", "--cold"]
    rows = {}
    for direction in ("up", "down"):
        out = tmp_path / f"{direction}.csv"
        assert main(base + ["--sweep", direction, "--out", str(out)]) == 0
        body = body_lines(out.read_text())
        assert body[0] == "omega,amplitude_0,converged,periods"
        rows[direction] = body[1:]
    assert len(rows["up"]) == 3
    assert rows["down"] == rows["up"][::-1]
    assert ([float(r.split(",")[0]) for r in rows["down"]]
            == np.linspace(1.6, 1.8, 3)[::-1].tolist())


def test_isola_roots_svg_carries_the_run_header(tmp_path, capsys):
    sysfile = sp_file(tmp_path)
    svg = tmp_path / "roots.svg"
    argv = ["isola", "--system", sysfile, "--eps", "0.001", "--orders",
            "1..4", "--out", str(tmp_path / "i.json"), "--roots-svg",
            str(svg)]
    assert main(argv) == 0
    assert capsys.readouterr().out == f"wrote {argv[-3]} and {svg}\n"
    text = svg.read_text()
    doc = json.loads((tmp_path / "i.json").read_text())["meta"]
    comments = re.findall(r"^<!-- (.*) -->$", text, re.M)
    assert comments == [f"{cli.TOOL} {doc['version']}",
                        f"config sha256 {doc['config_sha256']}",
                        "eigenvalues: lambda_master = "
                        + repr(complex(*doc["eigenvalues"]["lambda_master"]))]
    assert text.startswith("<svg ") and text.endswith("</svg>\n")
    # no timestamp in the SVG: a rerun writes the same bytes
    assert main(argv) == 0
    assert svg.read_text() == text


def test_verify_refuses_an_unstable_linear_part(tmp_path, capsys):
    """With negative damping no transient dies out: the sweep needs an
    explicit burn-off horizon and refuses to guess one."""
    base = two_mass_system()
    path = tmp_path / "unstable.txt"
    write_system(MechanicalSystem(M=base.M, C=-base.C, K=base.K, g=base.g,
                                  f=base.f), path)
    out = tmp_path / "sweep.csv"
    assert main(["verify", "--system", str(path), "--eps", "0.001",
                 "--omega", "1.7:1.7:1", "--out", str(out)]) == 2
    assert ("the linear part is not asymptotically stable"
            in capsys.readouterr().err)
    assert not out.exists()
