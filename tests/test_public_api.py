"""The package's public surface: every exported name exists, once, and the
README's examples run."""

import re
from pathlib import Path

import softki


def test_every_exported_name_resolves():
    assert [name for name in softki.__all__ if not hasattr(softki, name)] == []


def test_exported_names_are_unique():
    assert sorted(softki.__all__) == sorted(set(softki.__all__))


def test_readme_python_examples_run():
    # the blocks build on each other, as a reader runs them: in order, in one
    # namespace
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```", readme, re.DOTALL | re.MULTILINE)
    assert len(blocks) >= 3
    namespace = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)
    assert namespace["post"].hp is namespace["hp"]
