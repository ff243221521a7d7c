import pytest

import ellfrob.verify as verify
from ellfrob.errors import InvalidModulus
from ellfrob.verify import parallel_map, verify_pair


def test_verify_pair_refuses_other_moduli():
    with pytest.raises(InvalidModulus):
        verify_pair(13, 1, 1, 3)


class FakePool:
    """Stands in for ProcessPoolExecutor: records max_workers and maps in
    this process, so no worker is ever started."""

    sizes = []

    def __init__(self, max_workers):
        FakePool.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


@pytest.mark.parametrize("workers, items, cpus, size", [
    (10 ** 6, 3, 8, 3),      # no more workers than items
    (10 ** 6, 50, 4, 4),     # nor than CPUs
    (2, 50, 4, 2),
    (10 ** 6, 50, None, None),  # unknown CPU count: serial
    (10 ** 6, 1, 8, None),   # one item: serial
    (None, 5, 8, None),
    (4, 0, 8, None),
])
def test_parallel_map_clamps_pool_size(monkeypatch, workers, items, cpus,
                                       size):
    FakePool.sizes = []
    monkeypatch.setattr(verify, "_process_pool", FakePool)
    monkeypatch.setattr(verify.os, "cpu_count", lambda: cpus)
    data = list(range(items))
    assert parallel_map(abs, data, workers) == data
    assert FakePool.sizes == ([] if size is None else [size])


@pytest.mark.parametrize("workers", [2, 3])
def test_parallel_map_keeps_item_order_across_chunks(monkeypatch, workers):
    """Up to 4 * workers strided chunks go to the pool; results come back in
    item order for every item count, including counts that do not divide
    evenly and counts beyond the chunk count."""
    monkeypatch.setattr(verify, "_process_pool", FakePool)
    monkeypatch.setattr(verify.os, "cpu_count", lambda: 8)
    for n in range(4 * workers + 4):
        items = [(7 * i) % 11 - 5 for i in range(n)]
        assert parallel_map(repr, items, workers) == [repr(x) for x in items]
