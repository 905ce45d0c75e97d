"""The benchmark's hooks look up every traced name with getattr, even in
untraced runs, so a refactor that removes or renames one breaks the benchmark."""

import importlib
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_every_traced_name_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    instrument = importlib.import_module("instrument")
    missing = [f"{name} ({attr})" for name, owner, attr in instrument.TRACED if not hasattr(owner, attr)]
    assert instrument.TRACED and not missing
