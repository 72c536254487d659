"""The package defines no API that nothing uses: every top-level function
and class of ``src/matroidlab`` is named somewhere in the program, its
benchmark or its tools, or is a command of the command line interface."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _is_command(node: ast.AST) -> bool:
    # @click.group() and @main.command(...) make a function part of the CLI
    return any(
        isinstance(dec, ast.Call) and isinstance(dec.func, ast.Attribute) and dec.func.attr in ("group", "command")
        for dec in getattr(node, "decorator_list", ())
    )


def unreferenced_api(root: Path = ROOT) -> set[str]:
    """The top-level functions and classes of src/matroidlab that are not
    CLI commands and that no name or attribute in src/, perfbench/ or tools/
    refers to."""
    defined = set()
    for path in sorted((root / "src" / "matroidlab").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not _is_command(node):
                defined.add(node.name)
    referenced = set()
    for top in ("src", "perfbench", "tools"):
        for path in sorted((root / top).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    referenced.add(node.id)
                elif isinstance(node, ast.Attribute):
                    referenced.add(node.attr)
    return defined - referenced


def test_no_dead_api():
    # forbidden_scan stays for the acceptance criteria, which import it
    assert unreferenced_api() == {"forbidden_scan"}
