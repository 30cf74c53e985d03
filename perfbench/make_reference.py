"""Recompute the stored stiff-op reference amplitude in references.json.

The stiff op of ``oracle-verify`` integrates a fixed horizon, so its
amplitude is a property of the trajectory, not of a settled orbit.  The
reference is the same command at integrator tolerances 1000x tighter than
the defaults.  Run from the repository root:

    python3 perfbench/make_reference.py
"""

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from ssm_resolve import cli  # noqa: E402
from workloads import BEAM_PARAMS, REFERENCES, _csv  # noqa: E402

TIGHT = ["--tol-rel", "1e-11", "--tol-abs", "1e-13"]


def main() -> int:
    stiff = REFERENCES["oracle-verify"]["stiff"]
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        params, system, out = (str(Path(tmp, f)) for f in
                               ("beam.params", "beam2.txt", "stiff.csv"))
        Path(params).write_text(BEAM_PARAMS)
        for argv in (["beam", "--params", params, "--elements", "2",
                      "--out", system, "--quiet"],
                     ["verify", "--system", system, *stiff["argv"], *TIGHT,
                      "--out", out, "--quiet"]):
            if cli.main(argv) != 0:
                return 1
        _, rows = _csv(out)
    (row,) = rows
    stiff["amplitude"] = float(next(v for k, v in row.items()
                                    if k.startswith("amplitude_")))
    (HERE / "references.json").write_text(
        json.dumps(REFERENCES, indent=2) + "\n")
    print(f"stiff reference amplitude {stiff['amplitude']!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
