"""README.md's library sketch runs and its walkthrough parses as written."""

import re
import shlex
from pathlib import Path

from ssm_resolve.cli import _build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_sketch_runs(capsys):
    text = README.read_text()
    section = text.split("\n## Library sketch\n", 1)[1].split("\n## ", 1)[0]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, f"{README.name}: Library sketch", "exec"), {})
    # the sketch ends by printing the component count, rho_1 and eps_m
    components, rho1, eps_m = capsys.readouterr().out.split()
    assert int(components) == 2
    assert float(rho1) > 0 and float(eps_m) > 0


def test_walkthrough_commands_parse():
    """Every ``ssm-resolve`` line of the command-line walkthrough parses;
    parsing reads no file, so nothing has to exist."""
    section = README.read_text().split(
        "\n## Command-line walkthrough\n", 1)[1].split("\n## ", 1)[0]
    script = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    lines = script.replace("\\\n", " ").splitlines()
    commands = [shlex.split(ln)[1:] for ln in lines
                if ln.startswith("ssm-resolve ")]
    assert [argv[0] for argv in commands] == ["beam", "analyze", "frc",
                                              "isola", "beam", "verify"]
    parser = _build_parser()
    for argv in commands:
        parser.parse_args(argv)
