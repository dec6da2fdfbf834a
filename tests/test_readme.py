"""The README's Python examples run as written."""

import re
from pathlib import Path

import pytest
import scipy.linalg

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


def test_choosing_a_scheme_block_configures_a_solve(capsys):
    # the scheme block's cfg solves the quick start's problem
    scope = {}
    exec(python_block("## Quick start"), scope)
    exec(python_block("### Choosing a scheme"), scope)
    capsys.readouterr()
    cfg = scope["cfg"]
    assert (cfg.scheme, cfg.gtau) == ("new", "expdamped")
    rep = scope["solve"](scope["prob"], scope["random_stiefel"](300, 5, seed=1), cfg)
    assert rep.stop_reason in ("ResidualRel", "WindowedMeans")
    assert rep.feasi <= 1e-13


def test_generalized_constraint_block_projects_and_solves(capsys):
    scope = {}
    exec(python_block("### Generalized constraint"), scope)
    capsys.readouterr()
    gc = scope["GeneralizedConstraint"](scope["h"], scope["k"])
    assert gc.feasibility(scope["x0"]) > 1.0  # the start is projected, not given feasible
    rep = scope["rep"]
    assert rep.stop_reason == "ResidualRel"
    assert gc.feasibility(rep.x_final) <= 1e-12
    top = scipy.linalg.eigh(scope["prob"].a, scope["h"], eigvals_only=True)[-3:]
    assert rep.f_final == pytest.approx(-top.sum(), rel=1e-8)
