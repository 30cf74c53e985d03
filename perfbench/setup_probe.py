"""One set-up from a fresh interpreter; run.py times it from outside.

Imports ``ssm_resolve.cli``, reads each given system file, and builds its
modal model and order-3 manifold, which is the state every op starts from.

    python3 perfbench/setup_probe.py SYSTEM_FILE...
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import ssm_resolve.cli  # noqa: E402,F401
from ssm_resolve.ssm_auto import compute_autonomous_ssm  # noqa: E402
from workloads import load_modal  # noqa: E402

if __name__ == "__main__":
    for path in sys.argv[1:]:
        compute_autonomous_ssm(load_modal(path), 3)
