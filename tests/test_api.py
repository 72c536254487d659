"""The package defines no API that nothing uses: every top-level function
and class of ``src/matroidlab``, and every public method of a top-level
class, is named somewhere in the program, its benchmark or its tools, or is
a command of the command line interface."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _is_command(node: ast.AST) -> bool:
    # @click.group() and @main.command(...) make a function part of the CLI
    return any(
        isinstance(dec, ast.Call) and isinstance(dec.func, ast.Attribute) and dec.func.attr in ("group", "command")
        for dec in getattr(node, "decorator_list", ())
    )


def _is_property(node: ast.FunctionDef) -> bool:
    # @property and @functools.cached_property are read, not called
    return any(getattr(dec, "id", getattr(dec, "attr", "")).endswith("property") for dec in node.decorator_list)


def unreferenced_api(root: Path = ROOT) -> set[str]:
    """The top-level functions and classes of src/matroidlab that are not
    CLI commands and that no name or attribute in src/, perfbench/ or
    tools/ refers to, and the public methods of its top-level classes, as
    ``Class.method``, that nothing there calls by name (or, for a property,
    refers to): an attribute of the same name that is only read, such as
    a table's ``loops``, does not reach a method."""
    defined = {}  # the name reported -> (the name a reference must use, whether it must be a call)
    for path in sorted((root / "src" / "matroidlab").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not _is_command(node):
                defined[node.name] = (node.name, False)
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        defined[f"{node.name}.{item.name}"] = (item.name, not _is_property(item))
    referenced, called = set(), set()
    for top in ("src", "perfbench", "tools"):
        for path in sorted((root / top).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    referenced.add(node.id)
                elif isinstance(node, ast.Attribute):
                    referenced.add(node.attr)
                elif isinstance(node, ast.Call):
                    called.add(getattr(node.func, "id", getattr(node.func, "attr", None)))
    return {shown for shown, (name, call) in defined.items() if name not in (called if call else referenced)}


def test_no_dead_api():
    # forbidden_scan and LinearMatroid.delete stay for the acceptance
    # criteria, which import the one and call the other
    assert unreferenced_api() == {"forbidden_scan", "LinearMatroid.delete"}
