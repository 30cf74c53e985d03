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


class _Lines:
    """Non-comment, non-blank lines with original numbers for error messages."""

    def __init__(self, text: str):
        self.items = [(no, ln.strip()) for no, ln in enumerate(text.splitlines(), 1)
                      if ln.strip() and not ln.strip().startswith("#")]
        self.pos = 0

    def next(self, what: str) -> tuple[int, str]:
        if self.pos >= len(self.items):
            raise ValidationError(f"unexpected end of file while reading {what}")
        item = self.items[self.pos]
        self.pos += 1
        return item

    def done(self) -> bool:
        return self.pos >= len(self.items)


def read_system(path) -> MechanicalSystem:
    """Parse a system file.  Raises ValidationError with line numbers on junk."""
    with open(path) as fh:
        text = fh.read()
    lines = _Lines(text)

    no, magic = lines.next("format line")
    if magic != MAGIC:
        raise ValidationError(
            f"line {no}: expected format line {MAGIC!r}, got {magic!r}")

    no, nline = lines.next("n")
    parts = nline.split()
    if len(parts) != 2 or parts[0] != "n":
        raise ValidationError(f"line {no}: expected 'n <count>', got {nline!r}")
    try:
        n = int(parts[1])
    except ValueError as exc:
        raise ValidationError(f"line {no}: bad DOF count {parts[1]!r}") from exc
    if n < 1:
        raise ValidationError(f"line {no}: n must be >= 1")

    normalization = None
    no, nxt = lines.next("M")
    if nxt.startswith("normalization"):
        parts = nxt.split()
        if len(parts) != 2:
            raise ValidationError(f"line {no}: expected 'normalization <policy>'")
        normalization = parts[1]
        no, nxt = lines.next("M")

    def read_matrix(label: str, first_line: tuple[int, str]) -> np.ndarray:
        no, head = first_line
        if head != label:
            raise ValidationError(f"line {no}: expected section {label!r}, got {head!r}")
        rows = []
        for _ in range(n):
            no, row = lines.next(f"row of {label}")
            vals = row.split()
            if len(vals) != n:
                raise ValidationError(
                    f"line {no}: expected {n} entries in row of {label}, got {len(vals)}")
            try:
                # one conversion a row: NumPy reads each string as float()
                # does
                rows.append(np.array(vals, dtype=float))
            except ValueError as exc:
                raise ValidationError(f"line {no}: bad number in {label} row") from exc
        return np.array(rows)

    M = read_matrix("M", (no, nxt))
    C = read_matrix("C", lines.next("C"))
    K = read_matrix("K", lines.next("K"))

    no, ghead = lines.next("g")
    parts = ghead.split()
    if len(parts) != 2 or parts[0] != "g":
        raise ValidationError(f"line {no}: expected 'g <nterms>', got {ghead!r}")
    try:
        nterms = int(parts[1])
    except ValueError as exc:
        raise ValidationError(f"line {no}: bad term count {parts[1]!r}") from exc
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

    no, fhead = lines.next("f")
    if fhead != "f":
        raise ValidationError(f"line {no}: expected section 'f', got {fhead!r}")
    no, frow = lines.next("forcing vector")
    vals = frow.split()
    if len(vals) != n:
        raise ValidationError(f"line {no}: forcing vector needs {n} entries")
    try:
        f = np.array(vals, dtype=float)
    except ValueError as exc:
        raise ValidationError(f"line {no}: bad number in forcing vector") from exc

    if not lines.done():
        no, junk = lines.next("")
        raise ValidationError(f"line {no}: unexpected trailing content {junk!r}")

    return MechanicalSystem(M=M, C=C, K=K, g=terms, f=f,
                            normalization=normalization)
