import pytest


@pytest.fixture
def split_every_chunk(monkeypatch):
    """Give worker threads shares as short as one chunk, so small runs still fan out."""
    from prefield import random_field

    monkeypatch.setattr(random_field, "_WORKER_CHUNKS", 1)
