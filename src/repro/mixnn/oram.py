"""Oblivious list storage (ZeroTrace-style access-pattern hiding).

§4.3 notes that when a model does not fit the EPC, ORAM mechanisms such as
ZeroTrace can hide which list slot the proxy touches.  This module provides a
functional simulation: an :class:`ObliviousList` whose read/remove operations
*touch every slot* (linear scan with constant work per slot) so the memory
access pattern is independent of the selected index, and which counts the
touches so tests can verify obliviousness.
"""

from __future__ import annotations

from typing import Generic, TypeVar

T = TypeVar("T")

__all__ = ["ObliviousList"]


class ObliviousList(Generic[T]):
    """Fixed-capacity list with index-oblivious access patterns."""

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._slots: list[T | None] = [None] * capacity
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
        placed = False
        for i in range(self.capacity):
            self.touch_count += 1
            if self._slots[i] is None and not placed:
                self._slots[i] = item
                placed = True
        if not placed:
            raise OverflowError("oblivious list is full")
        self._occupied += 1

    def take(self, index: int) -> T:
        """Remove and return the item in the ``index``-th occupied slot.

        Scans all slots regardless of ``index`` so the physical access
        pattern leaks nothing about which element was selected.
        """
        occupied = -1
        taken: T | None = None
        for i in range(self.capacity):
            self.touch_count += 1
            slot = self._slots[i]
            if slot is not None:
                occupied += 1
                if occupied == index:
                    taken = slot
                    self._slots[i] = None
        if taken is None:
            raise IndexError(f"occupied index {index} out of range (have {occupied + 1})")
        self._occupied -= 1
        return taken

    def items(self) -> list[T]:
        """Snapshot of occupied items in slot order (touches every slot)."""
        out: list[T] = []
        for i in range(self.capacity):
            self.touch_count += 1
            if self._slots[i] is not None:
                out.append(self._slots[i])
        return out
