"""Reading and writing system files (the ``ssm-resolve-system v1`` format).

The format is plain text, '#' comments allowed anywhere, described
field-by-field in docs/formats.md.  Floats are written with ``repr`` so a
write/read round trip reproduces every value bit-exactly.  Every file the
package writes goes through ``write_artifacts``.
"""

from __future__ import annotations

import contextlib
import os

import numpy as np

from .errors import ValidationError
from .model import MechanicalSystem, PolyTerm

MAGIC = "ssm-resolve-system v1"


def format_system(sys: MechanicalSystem, header_lines=()) -> str:
    """System file text; ``header_lines`` become leading '#' comments."""
    lines = [f"# {line}" for line in header_lines] + [MAGIC, f"n {sys.n}"]
    if sys.normalization is not None:
        lines.append(f"normalization {sys.normalization}")
    for name, mat in (("M", sys.M), ("C", sys.C), ("K", sys.K)):
        lines.append(name)
        lines.extend(" ".join(map(repr, row)) for row in mat.tolist())
    lines.append(f"g {len(sys.g)}")
    lines.extend(f"{t.row} {float(t.coeff)!r} "
                 + " ".join(str(e) for e in t.exponents) for t in sys.g)
    lines += ["f", " ".join(map(repr, sys.f.tolist()))]
    return "\n".join(lines) + "\n"


def write_artifacts(items) -> None:
    """Write each (path, text) atomically, through ``<path>.part`` and
    ``os.replace``; on any failure remove everything this call already
    produced, so no partial file or artifact set survives."""
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


def write_system(sys: MechanicalSystem, path, header_lines=()) -> None:
    """Write a system file atomically; ``header_lines`` become leading '#'
    comments."""
    write_artifacts([(path, format_system(sys, header_lines))])


class Lines:
    """The non-comment, non-blank lines of a text file, stripped, each with
    its ``str.splitlines`` number for error messages, read in order."""

    def __init__(self, path):
        with open(path) as fh:
            text = fh.read()
        self.items = [(no, ln.strip()) for no, ln in enumerate(text.splitlines(), 1)
                      if ln.strip() and not ln.strip().startswith("#")]
        self.pos = 0

    def next(self, what: str) -> tuple[int, str]:
        if self.pos >= len(self.items):
            raise ValidationError(f"unexpected end of file while reading {what}")
        item = self.items[self.pos]
        self.pos += 1
        return item

    def peek(self) -> str:
        """The next line without reading it; '' at the end."""
        return self.items[self.pos][1] if self.pos < len(self.items) else ""

    def count(self, key: str, form: str, noun: str) -> tuple[int, int]:
        """A ``key <integer>`` line: its number and the integer."""
        no, line = self.next(key)
        parts = line.split()
        if len(parts) != 2 or parts[0] != key:
            raise ValidationError(f"line {no}: expected '{key} <{form}>', got {line!r}")
        try:
            return no, int(parts[1])
        except ValueError as exc:
            raise ValidationError(f"line {no}: bad {noun} {parts[1]!r}") from exc

    def section(self, label: str) -> None:
        """A line holding the section label alone."""
        no, line = self.next(label)
        if line != label:
            raise ValidationError(f"line {no}: expected section {label!r}, got {line!r}")

    def row(self, n: int, what: str, within: str) -> np.ndarray:
        """A line of exactly ``n`` floats, one conversion for the row (NumPy
        reads each string as ``float()`` does); ``within`` names a bad one's
        place."""
        no, line = self.next(what)
        fields = line.split()
        if len(fields) != n:
            raise ValidationError(
                f"line {no}: expected {n} entries in {what}, got {len(fields)}")
        try:
            return np.array(fields, dtype=float)
        except ValueError as exc:
            raise ValidationError(f"line {no}: bad number in {within}") from exc


def read_system(path) -> MechanicalSystem:
    """Parse a system file.  Raises ValidationError with line numbers on junk."""
    lines = Lines(path)

    no, magic = lines.next("format line")
    if magic != MAGIC:
        raise ValidationError(
            f"line {no}: expected format line {MAGIC!r}, got {magic!r}")

    no, n = lines.count("n", "count", "DOF count")
    if n < 1:
        raise ValidationError(f"line {no}: n must be >= 1")

    normalization = None
    if lines.peek().startswith("normalization"):
        no, line = lines.next("normalization")
        parts = line.split()
        if len(parts) != 2:
            raise ValidationError(f"line {no}: expected 'normalization <policy>'")
        normalization = parts[1]

    mats = {}
    for label in ("M", "C", "K"):
        lines.section(label)
        mats[label] = np.array([lines.row(n, f"row of {label}", f"{label} row")
                                for _ in range(n)])

    no, nterms = lines.count("g", "nterms", "term count")
    if nterms < 0:
        raise ValidationError(f"line {no}: g must be >= 0")
    terms = []
    for _ in range(nterms):
        no, tline = lines.next("nonlinear term")
        vals = tline.split()
        if len(vals) != 2 + 2 * n:
            raise ValidationError(
                f"line {no}: nonlinear term needs row, coeff and {2*n} exponents "
                f"(got {len(vals)} fields)")
        try:
            row = int(vals[0])
            coeff = float(vals[1])
            exps = tuple(int(v) for v in vals[2:])
        except ValueError as exc:
            raise ValidationError(f"line {no}: bad number in nonlinear term") from exc
        terms.append(PolyTerm(row, coeff, exps))

    lines.section("f")
    f = lines.row(n, "forcing vector", "forcing vector")

    if lines.peek():
        no, junk = lines.next("")
        raise ValidationError(f"line {no}: unexpected trailing content {junk!r}")

    return MechanicalSystem(**mats, g=terms, f=f, normalization=normalization)
