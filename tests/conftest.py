"""Fixtures shared by the test modules."""

import pytest

from rodd import encoder


@pytest.fixture
def body_rows(monkeypatch):
    """A list that collects the row count of every encoder body pass."""
    rows = []
    body_forward = encoder._body_forward

    def counted(layers, x, keep=False):
        rows.append(x.shape[0])
        return body_forward(layers, x, keep)

    monkeypatch.setattr(encoder, "_body_forward", counted)
    return rows
