"""README.md's library sketch runs as written."""

import re
from pathlib import Path

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
