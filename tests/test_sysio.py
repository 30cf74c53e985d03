"""System file format: bit-exact round trips and strict parsing."""

import numpy as np
import pytest

from ssm_resolve import sysio
from ssm_resolve.beam import BeamSpec, build_beam
from ssm_resolve.errors import ValidationError
from ssm_resolve.model import MechanicalSystem, PolyTerm
from ssm_resolve.sysio import read_system, write_artifacts, write_system, MAGIC

from conftest import BEAM, MIXED_TERMS, two_mass_system, with_terms


def test_round_trip_is_exact(tmp_path):
    sys = two_mass_system(quintic=1.2)
    path = tmp_path / "sys.txt"
    write_system(sys, path, header_lines=["benchmark system", "unit test"])
    back = read_system(path)
    assert np.array_equal(back.M, sys.M)
    assert np.array_equal(back.C, sys.C)
    assert np.array_equal(back.K, sys.K)
    assert np.array_equal(back.f, sys.f)
    assert back.g == sys.g
    assert back.normalization is None


def test_entries_are_written_as_float_reprs(tmp_path):
    """Signed zeros and extreme magnitudes keep their repr text, and an
    integer coefficient is written as a float."""
    sys = MechanicalSystem(M=np.eye(2), C=np.array([[-0.0, 0.0], [0.0, -0.0]]),
                           K=np.diag([1e-300, 5e-324]),
                           g=[PolyTerm(0, 3, (3, 0, 0, 0))],
                           f=np.array([-0.0, 1e308]))
    text = sysio.format_system(sys)
    assert "\nC\n-0.0 0.0\n0.0 -0.0\nK\n1e-300 0.0\n0.0 5e-324\n" in text
    assert text.endswith("\ng 1\n0 3.0 3 0 0 0\nf\n-0.0 1e+308\n")
    path = tmp_path / "sys.txt"
    write_system(sys, path)
    back = read_system(path)
    assert np.signbit(back.C).tolist() == [[True, False], [False, True]]
    assert back.K[1, 1] == 5e-324 and back.f[1] == 1e308


def test_normalization_field_round_trips(tmp_path):
    sys = two_mass_system()
    sys.normalization = "largest"
    path = tmp_path / "sys.txt"
    write_system(sys, path)
    assert read_system(path).normalization == "largest"


def test_comments_and_blank_lines_ignored(tmp_path):
    sys = two_mass_system()
    path = tmp_path / "sys.txt"
    write_system(sys, path)
    text = path.read_text()
    noisy = "\n# leading comment\n\n" + text.replace("M\n", "M\n# inside\n\n")
    path.write_text(noisy)
    back = read_system(path)
    assert np.array_equal(back.M, sys.M)


@pytest.mark.parametrize("mutate,what", [
    (lambda t: t.replace(MAGIC, "some-other-format v9"), "magic"),
    (lambda t: t.replace("n 2", "n two"), "bad n"),
    (lambda t: "\n".join(t.splitlines()[:-1]), "truncated"),
    (lambda t: t + "extra junk\n", "trailing junk"),
    (lambda t: t.replace("g 2", "g 5"), "wrong term count"),
    # no term lines: a negative count must not read as zero terms
    (lambda t: t.split("g 2")[0] + "g -2\nf" + t.split("\nf")[1],
     "negative term count"),
])
def test_parse_errors(tmp_path, mutate, what):
    sys = two_mass_system()
    path = tmp_path / "sys.txt"
    write_system(sys, path)
    path.write_text(mutate(path.read_text()))
    with pytest.raises(ValidationError) as err:
        read_system(path)
    if what == "negative term count":
        assert str(err.value) == "line 12: g must be >= 0"


def test_row_width_checked(tmp_path):
    sys = two_mass_system()
    path = tmp_path / "sys.txt"
    write_system(sys, path)
    lines = path.read_text().splitlines()
    # find first K row and drop an entry
    k_at = lines.index("K")
    lines[k_at + 1] = lines[k_at + 1].rsplit(" ", 1)[0]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValidationError) as err:
        read_system(path)
    assert "expected 2 entries" in str(err.value)


def _entries_one_by_one(text: str, n: int) -> dict:
    """M, C, K and f of a system file without comments, each entry read by
    ``float``: the parse ``read_system`` made before it converted a row at
    a time."""
    lines = [ln.strip() for ln in text.splitlines()]
    out = {}
    for label in ("M", "C", "K", "f"):
        at = lines.index(label) + 1
        rows = lines[at:at + (1 if label == "f" else n)]
        out[label] = np.array([[float(v) for v in row.split()]
                               for row in rows])
    out["f"] = out["f"][0]
    return out


@pytest.mark.parametrize("name", ["cubic", "quintic", "linear", "mixed",
                                  "beam2", "beam25", "beam100", "spelled"])
def test_matrices_read_bit_for_bit_as_entry_by_entry(tmp_path, name):
    path = tmp_path / "sys.txt"
    if name == "spelled":
        # valid float spellings that repr never writes
        path.write_text(f"{MAGIC}\nn 2\nM\n1 0\n-0 +2.\nC\n.5 1_0e-3\n"
                        "1_0e-3 5e-324\nK\n 1e308   3\n3  \t4.0E2\n"
                        "g 0\nf\n-0.0 1\n")
    else:
        system = {"cubic": two_mass_system(),
                  "quintic": two_mass_system(quintic=1.2),
                  "linear": two_mass_system(kappa=0.0, alpha=0.0),
                  "mixed": with_terms(MIXED_TERMS)}.get(name)
        if system is None:
            system = build_beam(BeamSpec(**{**BEAM,
                                            "elements": int(name[4:])}))
        write_system(system, path)
    back = read_system(path)
    want = _entries_one_by_one(path.read_text(), back.n)
    for label, got in (("M", back.M), ("C", back.C), ("K", back.K),
                       ("f", back.f)):
        assert got.dtype == want[label].dtype, label
        assert got.shape == want[label].shape, label
        assert got.tobytes() == want[label].tobytes(), label


@pytest.mark.parametrize("rows, line, message", [
    # a bad number in the first row outranks the short second row
    (["1.0 x", "2.0"], 10, "bad number in K row"),
    (["1.0 2.0", "2.0 1..0"], 11, "bad number in K row"),
    (["1.0 2.0", "2.0"], 11, "expected 2 entries in row of K, got 1"),
    # and the end of the file
    (["1.0 x"], 10, "bad number in K row"),
    (["1.0 2.0"], 10, "unexpected end of file while reading row of K"),
])
def test_matrix_errors_name_the_first_bad_line(tmp_path, rows, line,
                                               message):
    # K's rows are lines 10 and 11
    head = [MAGIC, "n 2", "M", "1 0", "0 1", "C", "0 0", "0 0", "K"]
    tail = ["g 0", "f", "1.0 0.0"] if len(rows) == 2 else []
    path = tmp_path / "sys.txt"
    path.write_text("\n".join(head + rows + tail) + "\n")
    with pytest.raises(ValidationError) as err:
        read_system(path)
    want = message if message.startswith("unexpected") else \
        f"line {line}: {message}"
    assert str(err.value) == want


@pytest.mark.parametrize("writer", ["system", "artifacts"])
def test_failed_replace_leaves_neither_target_nor_part_file(writer, tmp_path,
                                                            monkeypatch):
    """Every writer goes through ``write_artifacts``: when the final rename
    fails, no target and no ``.part`` file remain, and an artifact set
    loses the members it had already written."""
    first, path = tmp_path / "first.txt", tmp_path / "out.txt"
    calls = []
    real_replace = sysio.os.replace

    def replace(src, dst):
        calls.append(str(dst))
        if str(dst) == str(path):
            raise OSError("disk full")
        real_replace(src, dst)

    monkeypatch.setattr(sysio.os, "replace", replace)
    with pytest.raises(OSError, match="disk full"):
        if writer == "system":
            write_system(two_mass_system(), path)
        else:
            write_artifacts([(str(first), "a\n"), (str(path), "b\n")])
    assert calls[-1] == str(path)
    assert sorted(tmp_path.iterdir()) == []
