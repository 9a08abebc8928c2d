"""The README's Python examples run as written, each in a fresh interpreter.

A documented signature that changes leaves a stale example behind; this
catches it.
"""

import re
from pathlib import Path

import pytest

from reference import fresh_output

README = Path(__file__).resolve().parents[1] / "README.md"
EXAMPLES = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.DOTALL | re.MULTILINE)


def test_readme_has_examples():
    assert EXAMPLES


@pytest.mark.parametrize("code", EXAMPLES, ids=[f"example{k}" for k in range(len(EXAMPLES))])
def test_example_runs(code):
    fresh_output(code)  # raises unless the example exits 0
