import pytest

from skillnet.traces import StoreDims, TraceStore


@pytest.fixture
def fresh_store():
    """Makes empty in-memory stores for a net config; test_streamed_stores.py
    runs the tests that take this fixture again on streamed stores."""
    return lambda cfg: TraceStore(StoreDims.from_net_config(cfg))
