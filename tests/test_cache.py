"""The one store of tables and plans: its budget, its eviction order, its lock."""

import numpy as np

from trigspec import _cache


def _build(nbytes, fill=0.0):
    return (np.full(nbytes // 8, fill),)


def test_least_recently_used_entries_leave_first(cache_patch):
    cache_patch.setattr(_cache, "_BUDGET", 3 * 800)
    first = _cache.get(_build, 800)
    _cache.get(_build, 800, 1.0)
    _cache.get(_build, 800, 2.0)
    assert _cache.get(_build, 800) is first         # a hit, now the most recent
    _cache.get(_build, 800, 3.0)                    # room for it: (800, 1.0) leaves
    assert [key for _, key in _cache._entries] == [(800, 2.0), (800,), (800, 3.0)]
    assert _cache.stored_bytes() == 3 * 800


def test_an_entry_over_the_budget_is_built_on_every_call(cache_patch):
    cache_patch.setattr(_cache, "_BUDGET", 1000)
    assert _cache.fits(1000) and not _cache.fits(1001)
    _cache.get(_build, 800)
    big = _cache.get(_build, 1600, 1.0)
    again = _cache.get(_build, 1600, 1.0)
    assert again is not big and np.array_equal(again[0], big[0])
    assert not (big[0].flags.writeable or again[0].flags.writeable)
    assert [key for _, key in _cache._entries] == [(800,)]
    assert _cache.stored_bytes() == 800


def test_a_builder_may_read_other_entries(cache_patch):
    # Only the dict is locked, so a builder that reads another entry
    # neither deadlocks nor hides it; each entry counts its own arrays.
    def outer(nbytes):
        return (*_cache.get(_build, nbytes), np.zeros(1))

    value = _cache.get(outer, 80, key="outer")
    assert value[0] is _cache.get(_build, 80)[0]
    assert _cache.stored_bytes() == 80 + 88
    _cache.clear()
    assert _cache.stored_bytes() == 0 and not _cache._entries
