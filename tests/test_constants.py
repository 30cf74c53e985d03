"""Every module-level UPPER_CASE constant and every private function or
class of the package is read by the package itself: a tolerance or limit
that no code reads only looks like a setting, and a private helper that
only the tests call is dead code that the tests keep alive.  Every field
of a dataclass is read somewhere too, or it only hands a caller back what
it passed.  Every public function, class and method is read by the
package or the benchmark, or it is API that only the tests keep alive.  And
a private name stays inside its module: no module of the package imports or
reads another one's."""

import ast
import re
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "ssm_resolve"
PERFBENCH = SRC.parents[1] / "perfbench"
CONSTANT = re.compile(r"[A-Z][A-Z0-9_]*")
DOTTED = re.compile(r"\w+(\.\w+)*")


def _defined(tree: ast.Module) -> list[str]:
    names = []
    for node in tree.body:
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign)
                   else [])
        names += [t.id for t in targets if isinstance(t, ast.Name)
                  and CONSTANT.fullmatch(t.id)]
    return names


def _private(tree: ast.Module) -> list[str]:
    """Functions and classes named ``_x`` (not ``__x__``), at any depth."""
    return [node.name for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))
            and node.name.startswith("_") and not node.name.endswith("__")]


def _read(tree: ast.Module) -> set[str]:
    """Names loaded bare (``G_TOL``) or as an attribute (``frc.G_TOL``)."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
    return out


def _unread(names) -> list[str]:
    """``module:name`` for each name that ``names(tree)`` gives and no module
    of the package reads."""
    trees = {p.name: ast.parse(p.read_text(), str(p))
             for p in sorted(SRC.glob("*.py"))}
    assert "frc.py" in trees
    read = set().union(*(_read(t) for t in trees.values()))
    return [f"{name}:{c}" for name, tree in trees.items()
            for c in names(tree) if c not in read]


def test_every_module_constant_is_read_in_src():
    unread = _unread(_defined)
    assert not unread, f"module constants that src/ never reads: {unread}"


def test_every_private_function_and_class_is_read_in_src():
    unread = _unread(_private)
    assert not unread, f"private names that src/ never reads: {unread}"


def _public(tree: ast.Module) -> list[str]:
    """Functions, classes and methods not named ``_x``, at any depth."""
    return [node.name for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))
            and not node.name.startswith("_")]


def _imported(tree: ast.Module) -> set[str]:
    """Each name an import statement names, and each part of a dotted one."""
    return {part for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names for part in alias.name.split(".")}


def _dotted_strings(tree: ast.Module) -> set[str]:
    """Each part of a string constant spelled as a dotted name: the trace
    targets name the functions they wrap as strings."""
    return {part for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and DOTTED.fullmatch(node.value)
            for part in node.value.split(".")}


def test_every_public_function_class_and_method_is_read_in_src_or_the_benchmark():
    src = {p.name: ast.parse(p.read_text(), str(p))
           for p in sorted(SRC.glob("*.py"))}
    bench = [ast.parse(p.read_text(), str(p))
             for p in sorted(PERFBENCH.glob("*.py"))]
    named = set().union(*(_dotted_strings(t) for t in bench))
    assert "compute_nonautonomous_ssm" in named
    read = named.union(*(_read(t) | _imported(t)
                         for t in [*src.values(), *bench]))
    unread = [f"{name}:{f}" for name, tree in src.items()
              for f in _public(tree) if f not in read]
    assert not unread, f"public names nothing but the tests reads: {unread}"


def _foreign_private(tree: ast.Module) -> list[str]:
    """Another package module's ``_x`` (not ``__x__``) that ``tree``
    reaches: as ``from .mod import _x``, or as ``mod._x`` on a package
    module it imported."""
    def private(name: str) -> bool:
        return name.startswith("_") and not name.endswith("__")

    stems = {p.stem for p in SRC.glob("*.py")}
    modules, out = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").startswith(SRC.name)):
            out += [a.name for a in node.names if private(a.name)]
            modules |= {a.asname or a.name for a in node.names
                        if a.name in stems}
        elif isinstance(node, ast.Import):
            modules |= {a.asname for a in node.names if a.asname
                        and a.name.startswith(SRC.name + ".")}
    out += [f"{node.value.id}.{node.attr}" for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and private(node.attr)
            and isinstance(node.value, ast.Name) and node.value.id in modules]
    return out


def test_no_module_reads_another_modules_private_names():
    foreign = {p.name: _foreign_private(ast.parse(p.read_text(), str(p)))
               for p in sorted(SRC.glob("*.py"))}
    foreign = {name: found for name, found in foreign.items() if found}
    assert not foreign, f"private names read across modules: {foreign}"


#: dataclass fields that no attribute read reaches, each with its reason
UNREAD_FIELDS = {
    # the public inverse of T, which tests/data/modal_golden.npz pins; the
    # tests map physical vectors to modal ones with it
    "ModalModel.T_inv",
    # cli writes the isola report's leading summary with vars(), so each
    # field becomes a JSON key of the artifact
    "LeadingIsola.exists", "LeadingIsola.rho1", "LeadingIsola.eps_m",
    "LeadingIsola.disconnected_at_eps",
}


def _dataclass_fields(tree: ast.Module) -> list[str]:
    """``Class.field`` for each annotated field of a ``@dataclass``."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and any(
                getattr(d.func if isinstance(d, ast.Call) else d, "id", None)
                == "dataclass" for d in node.decorator_list):
            out += [f"{node.name}.{item.target.id}" for item in node.body
                    if isinstance(item, ast.AnnAssign)
                    and isinstance(item.target, ast.Name)]
    return out


def test_every_dataclass_field_is_read_in_src_or_the_benchmark():
    src = [ast.parse(p.read_text(), str(p)) for p in sorted(SRC.glob("*.py"))]
    bench = [ast.parse(p.read_text(), str(p))
             for p in sorted(PERFBENCH.glob("*.py"))]
    read = {node.attr for tree in src + bench for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}
    fields = [f for tree in src for f in _dataclass_fields(tree)]
    assert "ForcedReduction.min_enslaved_den" in fields
    assert UNREAD_FIELDS <= set(fields)
    unread = [f for f in fields if f.split(".")[1] not in read
              and f not in UNREAD_FIELDS]
    assert not unread, f"dataclass fields nothing reads: {unread}"
