import pytest

from pathevac import PackingInstance, PackingItem, bundled_examples
from ref_items import packing_instance


@pytest.fixture(scope="session")
def fixtures():
    return bundled_examples()


@pytest.fixture
def abd() -> PackingInstance:
    """Capacity 10, ratios 2 / 1 / 0.5: greedy 26, optimum 24, fractional 21."""
    return packing_instance(10, (
        PackingItem(id="A", size=5, weight=10, ready=1),
        PackingItem(id="B", size=6, weight=6, ready=1),
        PackingItem(id="D", size=4, weight=2, ready=1),
    ))


@pytest.fixture
def ready_pair() -> PackingInstance:
    """Capacity 4; the even ready time pushes G1 to bin 3: greedy 10, opt 7."""
    return packing_instance(4, (
        PackingItem(id="G1", size=3, weight=3, ready=2),
        PackingItem(id="G2", size=2, weight=1, ready=1),
    ))
