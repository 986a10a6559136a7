import pytest

from aoilab import scheme


@pytest.fixture
def fills(monkeypatch):
    """``(first_session, rows, width)`` of every fill ``_run_batches`` makes."""
    calls = []
    fill = scheme.fill_stream_rows

    def recording(master_seed, base_stream_index, first_session, rows, width):
        calls.append((first_session, rows, width))
        return fill(master_seed, base_stream_index, first_session, rows, width)

    monkeypatch.setattr(scheme, "fill_stream_rows", recording)
    return calls
