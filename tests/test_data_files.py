"""Every golden file in ``data/`` is read by a test and documented in
``data/README.md``, and the README documents no file that is gone."""

import re
from pathlib import Path

TESTS = Path(__file__).resolve().parent
DATA = TESTS / "data"


def _readme_sections():
    text = (DATA / "README.md").read_text()
    return re.findall(r"^## (\S+)\s*$", text, re.M)


def test_every_golden_file_is_read_and_documented():
    sources = "\n".join(p.read_text() for p in TESTS.glob("test_*.py"))
    sections = set(_readme_sections())
    files = sorted(p.name for p in DATA.glob("*.npz"))
    assert files
    unread = [f for f in files if f not in sources]
    undocumented = [f for f in files if f not in sections]
    assert not unread, f"no tests/test_*.py names {unread}"
    assert not undocumented, f"no '## <file>' section in data/README.md " \
                             f"for {undocumented}"


def test_every_documented_golden_file_exists():
    sections = _readme_sections()
    assert sections
    missing = [s for s in sections if not (DATA / s).is_file()]
    assert not missing, f"data/README.md documents missing files {missing}"
