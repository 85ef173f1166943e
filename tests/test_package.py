import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "koszulcone"


def test_no_assert_statements_in_the_package():
    # python -O strips assert, so every check in the package must raise
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
