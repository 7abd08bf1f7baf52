"""One store for every table and plan the package keeps between calls.

The Lerch expansion tables, the class tables, the DFT's stacked matrix
of ones, cos and sin rows, the grid evaluator's phase tables, the signed
spline's phase shift and the spline's coefficient-law and grid plans
depend only on a configuration. Each is kept here under (builder, key),
least recently used out first, within one byte budget ``_BUDGET`` read at
each call. An entry's size is the bytes of its arrays, which the store
makes read-only; an entry larger than the budget is built the same way on
every call and not stored, so it has the same bits. Only the dict is
locked: a builder may read other entries, and two threads that miss one
key both build it. Builders call private bodies only, so an entry built on
a miss adds no public calls: the benchmark's traced counts must not
depend on the store.
"""

import threading
from collections import OrderedDict

import numpy as np

# Bytes of arrays the store holds at most, over all entries: 32 MiB.
_BUDGET = 32 << 20

_entries = OrderedDict()        # (build, key) -> (value, bytes)
_lock = threading.Lock()
_stored = 0


def get(build, *args, key=None):
    """``build(*args)``, kept under (build, key); `key` defaults to `args`.

    The value is a tuple of arrays (or None) or an object whose attributes
    are; its arrays are read-only whether it is stored or not.
    """
    global _stored
    slot = (build, args if key is None else key)
    with _lock:
        entry = _entries.get(slot)
        if entry is not None:
            _entries.move_to_end(slot)
            return entry[0]
    value = build(*args)
    parts = value if isinstance(value, tuple) else vars(value).values()
    arrays = [part for part in parts if isinstance(part, np.ndarray)]
    for arr in arrays:
        arr.setflags(write=False)
    size = sum(arr.nbytes for arr in arrays)
    if fits(size):
        with _lock:
            _stored += size - _entries.pop(slot, (None, 0))[1]
            _entries[slot] = (value, size)
            while _stored > _BUDGET:
                _stored -= _entries.popitem(last=False)[1][1]
    return value


def fits(size):
    """Whether an entry of `size` bytes would be stored."""
    return size <= _BUDGET


def stored_bytes():
    """Bytes of the arrays stored now."""
    return _stored


def clear():
    """Drop every entry."""
    global _stored
    with _lock:
        _entries.clear()
        _stored = 0
