"""The README's library example runs as written and gives the values its comments state."""

from __future__ import annotations

import os
import re

ROOT = os.path.join(os.path.dirname(__file__), "..")


def _library_example() -> str:
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as handle:
        text = handle.read()
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    (block,) = re.findall(r"```python\n(.*?)```", section, re.S)
    return block


def test_library_example_gives_the_stated_values(monkeypatch):
    monkeypatch.chdir(ROOT)  # the example opens fixtures/ relative to the repository root
    scope: dict = {}
    exec(compile(_library_example(), "README.md", "exec"), scope)
    assert len(scope["paths"]) == 36
    assert len({p.estimate for p in scope["paths"]}) == 7
    assert scope["bound"].exact == 96
    assert scope["truth"] == 78
    assert scope["est"].exact < scope["truth"] <= scope["bound"].exact
