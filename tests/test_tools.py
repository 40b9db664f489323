"""The repository's tools count what they say they count."""

import importlib.util
from pathlib import Path

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", _TOOL)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)


def test_code_lines_skip_blanks_comments_and_docstrings(tmp_path):
    source = tmp_path / "sample.py"
    source.write_text(
        '"""Module\ndocstring."""\n\n# a comment\nimport sys  # a trailing comment\n\n\n'
        'def f(a,\n      b):\n    """One line."""\n    text = """not a\n    docstring"""\n'
        "    return a + b\n",
        encoding="utf-8",
    )
    # import, both lines of the def, both lines of the string assignment, return
    assert code_lines.code_lines(source) == 6
