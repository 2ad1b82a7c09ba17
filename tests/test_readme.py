"""README's library example runs as printed: every name it imports exists and
every `# value` comment on an expression line is what the line evaluates to."""

import ast
import re
from pathlib import Path

import numpy as np
import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
COMMENTED_LINE = re.compile(r"^(?P<expr>\S.*?)\s+# (?P<value>\S.*)$")


def library_example():
    """The first python block under the "## Library example" heading."""
    section = README.read_text().split("\n## Library example\n", 1)[1]
    return section.split("```python\n", 1)[1].split("\n```", 1)[0]


def test_library_example_runs_and_prints_its_comments():
    source = library_example()
    namespace = {}
    exec(compile(source, "README.md", "exec"), namespace)
    exact = []
    for line in source.splitlines():
        match = COMMENTED_LINE.match(line)
        if match is None:
            continue
        got = np.asarray(eval(match["expr"], namespace)).tolist()
        value = match["value"]
        if value.startswith("~"):
            assert got == pytest.approx(float(value[1:]), rel=0.01), line
        else:
            exact.append(ast.literal_eval(value))
            assert got == exact[-1], line
    assert exact == [[8.0, 6.0, 4.0, 2.0], 0.5, 17.0]
