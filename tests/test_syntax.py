"""Every Python file of the project parses under the Python 3.10 grammar,
the oldest version that ``pyproject.toml`` and CI support.

This checks syntax only: ``ast.parse(..., feature_version=(3, 10))`` rejects
newer grammar such as ``except*``, but not calls to standard-library APIs
added after 3.10 (``tomllib``, say), which only a 3.10 interpreter catches.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DIRS = ("src/evalbench", "tests", "scripts", "perfbench")


def _parses_as_3_10(source: str, filename: str = "<string>") -> bool:
    try:
        ast.parse(source, filename=filename, feature_version=(3, 10))
    except SyntaxError:
        return False
    return True


@pytest.mark.parametrize("folder", DIRS)
def test_sources_parse_as_python_3_10(folder):
    files = sorted((ROOT / folder).rglob("*.py"))
    assert files
    bad = [str(path.relative_to(ROOT)) for path in files
           if not _parses_as_3_10(path.read_text(encoding="utf-8"), str(path))]
    assert bad == []


def test_newer_syntax_is_rejected():
    assert not _parses_as_3_10("try:\n    pass\nexcept* ValueError:\n    pass\n")
    assert _parses_as_3_10("try:\n    pass\nexcept ValueError:\n    pass\n")
