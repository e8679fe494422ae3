import subprocess
import sys
from pathlib import Path

CODE_LINES = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"


def test_code_lines_skips_comments_blanks_and_docstrings(tmp_path):
    module = tmp_path / "m.py"
    module.write_text('''"""Module docstring,
over two lines."""

# a comment
import math  # a trailing comment


class A:
    """Class docstring."""

    def f(self, x):
        """Function docstring."""
        text = """a string
that is code"""
        return (math.sqrt(x),
                text)
''', encoding="utf-8")
    out = subprocess.run([sys.executable, str(CODE_LINES), str(module)],
                         capture_output=True, text=True, check=True).stdout
    # import, class, def, the 2-line string, the 2-line return
    assert out.split() == ["7", str(module), "7", "total"]
