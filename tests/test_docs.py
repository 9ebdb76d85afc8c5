import ast
import io
import re
import tokenize
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src" / "smm"

# a wall time or a machine: these belong with a measurement's record, not in
# the program's prose, where they go stale
MEASUREMENT = re.compile(r"\d\s?(us|ms)\b|vCPU|\bVM\b|AVX")


def prose(path):
    """(line, text) of every comment and docstring line of a module."""
    text = path.read_text()
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type == tokenize.COMMENT:
            yield token.start[0], token.string
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            doc = ast.get_docstring(node, clean=False)
            if doc is not None:
                for offset, line in enumerate(doc.splitlines()):
                    yield node.body[0].lineno + offset, line


def test_prose_carries_no_wall_time_or_machine():
    found = [
        f"{path.name}:{line}: {text.strip()}"
        for path in sorted(SOURCE.rglob("*.py"))
        for line, text in prose(path)
        if MEASUREMENT.search(text)
    ]
    assert not found, "\n".join(found)
