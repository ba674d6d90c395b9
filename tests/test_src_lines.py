"""tools/src_lines.py counts raw lines and code lines: non-blank lines that
hold a token other than a comment or a docstring."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

FIXTURE = '''"""A module docstring
over two lines."""

# a comment on its own line
import os  # a comment after code


class Thing:
    """A class docstring."""

    def method(self):
        """A function docstring,

        with a blank line inside it.
        """
        text = """a string literal
that is not a docstring"""
        return (os.sep,
                text)
'''


def test_counts_a_fixture_module(tmp_path):
    (tmp_path / "mod.py").write_text(FIXTURE)
    (tmp_path / "empty.py").write_text("")
    out = subprocess.run([sys.executable, str(ROOT / "tools" / "src_lines.py"), str(tmp_path)],
                         capture_output=True, text=True, check=True).stdout
    # code: import, class, def, the two lines of the literal, the two of return
    assert out.splitlines() == ["empty.py 0 0", "mod.py 19 7", "total 19 7"]
