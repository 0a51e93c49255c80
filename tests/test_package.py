"""The package's export list, and the README code that uses it."""
from __future__ import annotations

import re
from pathlib import Path

import ccopf


def test_every_export_resolves_once():
    assert len(ccopf.__all__) == len(set(ccopf.__all__))
    missing = [name for name in ccopf.__all__ if not hasattr(ccopf, name)]
    assert missing == []
    assert "scenario_offsets" in ccopf.__all__


def test_readme_library_code_runs(capsys):
    # README's Python blocks run in order in one namespace, so a public
    # name that is removed or renamed but still used there fails here
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", readme, flags=re.MULTILINE | re.DOTALL)
    assert len(blocks) == 2
    namespace: dict = {}
    for i, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {i + 1}", "exec"), namespace)
    assert namespace["sol"].status == "optimal"
    assert namespace["ratios"].shape == (1000,)
    assert "coverage" in capsys.readouterr().out
