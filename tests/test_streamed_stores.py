"""The ES search and curriculum tests that take `fresh_store`, run again on
stores streamed to a file: collected here too, they get this module's
`fresh_store`, not the in-memory one of conftest.py."""

import inspect

import pytest

import test_curriculum
import test_evolve
from skillnet.traces import StoreDims, TraceStore

globals().update(
    (name, test) for module in (test_evolve, test_curriculum)
    for name, test in vars(module).items()
    if name.startswith("test_") and "fresh_store" in inspect.signature(test).parameters
)


@pytest.fixture
def fresh_store(tmp_path):
    """Makes empty stores for a net config, each streamed to its own file
    under tmp_path and closed however the test ends."""
    stores = []

    def make(cfg):
        path = tmp_path / f"store{len(stores)}.bin"
        stores.append(TraceStore.create(path, StoreDims.from_net_config(cfg)))
        return stores[-1]

    yield make
    for store in stores:
        store.close()
