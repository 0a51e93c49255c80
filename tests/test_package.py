"""The package's export list."""
from __future__ import annotations

import ccopf


def test_every_export_resolves_once():
    assert len(ccopf.__all__) == len(set(ccopf.__all__))
    missing = [name for name in ccopf.__all__ if not hasattr(ccopf, name)]
    assert missing == []
    assert "scenario_offsets" in ccopf.__all__
