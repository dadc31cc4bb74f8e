import pytest

from tflow import dynamics


@pytest.fixture(autouse=True)
def _no_reused_propagation(monkeypatch):
    """Each test starts with no stored propagation, so one test's passing
    propagation (possibly through a patched kernel) is not another's."""
    monkeypatch.setattr(dynamics, "_last", None)
