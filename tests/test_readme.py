"""Every Python code block in README.md runs as written.

A block that names a function the package no longer has fails here, so
the README cannot drift from the library.
"""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.DOTALL | re.MULTILINE)


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_block_runs(index, tmp_path, monkeypatch):
    # a block that writes files writes them under tmp_path
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("RAMSEY_PODS_CACHE", str(tmp_path / "cache.jsonl"))
    exec(compile(BLOCKS[index], f"README.md block {index + 1}", "exec"), {})
