import pytest


@pytest.fixture
def split_every_block(monkeypatch):
    """Give worker threads ranges as short as one block, so small runs still fan out."""
    from prefield import random_field

    monkeypatch.setattr(random_field, "_WORKER_BLOCKS", 1)
