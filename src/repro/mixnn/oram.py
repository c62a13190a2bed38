"""Oblivious list storage (ZeroTrace-style access-pattern hiding).

§4.3 notes that when a model does not fit the EPC, ORAM mechanisms such as
ZeroTrace can hide which list slot the proxy touches.  This module provides a
functional simulation: an :class:`ObliviousList` whose insert, take and read
operations *touch every slot* — each scans the whole occupancy bitmap in one
numpy call (``argmin`` for the first free slot, ``flatnonzero`` for the
occupied ones) — so the work per operation is independent of the selected
index, and which counts the touches so tests can verify obliviousness.
"""

from __future__ import annotations

from typing import Generic, TypeVar

import numpy as np

T = TypeVar("T")

__all__ = ["ObliviousList"]


class ObliviousList(Generic[T]):
    """Fixed-capacity list with index-oblivious access patterns."""

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._slots: list[T | None] = [None] * capacity
        #: occupancy bitmap, scanned whole by every operation
        self._used = np.zeros(capacity, dtype=bool)
        #: occupied slots, kept by insert and take so size queries scan nothing
        self._occupied = 0
        #: total slot touches, used to assert access-pattern uniformity
        self.touch_count = 0

    def __len__(self) -> int:
        return self._occupied

    @property
    def full(self) -> bool:
        return self._occupied == self.capacity

    def insert(self, item: T) -> None:
        """Place ``item`` in the first free slot, scanning every slot."""
        self.touch_count += self.capacity
        slot = int(np.argmin(self._used))
        if self._used[slot]:
            raise OverflowError("oblivious list is full")
        self._slots[slot] = item
        self._used[slot] = True
        self._occupied += 1

    def take(self, index: int) -> T:
        """Remove and return the item in the ``index``-th occupied slot.

        Scans all slots regardless of ``index`` so the physical access
        pattern leaks nothing about which element was selected.
        """
        self.touch_count += self.capacity
        occupied = np.flatnonzero(self._used)
        if not 0 <= index < len(occupied):
            raise IndexError(f"occupied index {index} out of range (have {len(occupied)})")
        slot = int(occupied[index])
        taken = self._slots[slot]
        self._slots[slot] = None
        self._used[slot] = False
        self._occupied -= 1
        return taken

    def items(self) -> list[T]:
        """Snapshot of occupied items in slot order (touches every slot)."""
        self.touch_count += self.capacity
        return [self._slots[slot] for slot in np.flatnonzero(self._used).tolist()]
