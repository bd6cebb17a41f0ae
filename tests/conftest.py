import pytest

from hnhn import autodiff


@pytest.fixture
def restricted_steps(monkeypatch):
    """One entry per backward step that looked for its reached rows: True
    where the step took the row-restricted path, False where it ran dense."""
    steps = []
    original = autodiff._reached_rows

    def recorded(g):
        rows = original(g)
        steps.append(rows is not None)
        return rows

    monkeypatch.setattr(autodiff, "_reached_rows", recorded)
    return steps
