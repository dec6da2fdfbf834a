"""The README's Python examples run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def python_block(heading):
    """The first ```python block under the given markdown heading."""
    section = README.read_text(encoding="utf-8").split(heading + "\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_quick_start_and_line_search_examples_run(capsys):
    # the line-search block reuses the quick start's prob and imports
    scope = {}
    exec(python_block("## Quick start"), scope)
    exec(python_block("### Curves and the line search"), scope)
    capsys.readouterr()  # the quick start prints its report
    assert scope["rep"].stop_reason in ("ResidualRel", "WindowedMeans")
    assert scope["evals"] >= 1
    assert scope["f_new"] <= scope["f"]
