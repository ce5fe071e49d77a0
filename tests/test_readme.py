"""The README's library example of a user set and a user map, run as README shows it."""

import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parents[1] / "README.md"


def section_code(heading: str) -> str:
    """The first python code block after ``heading`` in README."""
    text = README.read_text()
    return re.search(r"```python\n(.*?)```", text[text.index(heading):], re.S).group(1)


def test_the_custom_set_and_map_example_runs(capsys):
    names = {}
    exec(section_code("### Custom constraint sets"), names)
    problem, trace = names["problem"], names["trace"]
    assert problem.rho == 0.5 and problem.nu == 1.0
    assert np.allclose(trace.final, [1.0, 0.25], atol=2e-3)  # the point of the square nearest b
    assert capsys.readouterr().out.startswith("[0.99")
