"""Oblivious list storage: semantics and access-pattern uniformity."""

import pytest

from repro.mixnn.oram import ObliviousList


class TestBasics:
    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            ObliviousList(0)

    def test_insert_and_len(self):
        lst = ObliviousList(3)
        lst.insert("a")
        lst.insert("b")
        assert len(lst) == 2
        assert not lst.full
        lst.insert("c")
        assert lst.full

    def test_overflow(self):
        lst = ObliviousList(1)
        lst.insert("a")
        with pytest.raises(OverflowError):
            lst.insert("b")

    def test_take_returns_occupied_item(self):
        lst = ObliviousList(4)
        for item in "abc":
            lst.insert(item)
        assert lst.take(1) == "b"
        assert len(lst) == 2

    def test_take_out_of_range(self):
        lst = ObliviousList(2)
        lst.insert("a")
        with pytest.raises(IndexError):
            lst.take(1)

    def test_items_snapshot(self):
        lst = ObliviousList(3)
        lst.insert("x")
        lst.insert("y")
        assert lst.items() == ["x", "y"]

    def test_reuse_of_freed_slots(self):
        lst = ObliviousList(2)
        lst.insert("a")
        lst.insert("b")
        lst.take(0)
        lst.insert("c")
        assert sorted(lst.items()) == ["b", "c"]


    def test_len_follows_every_operation(self):
        """The running count matches the occupied slots after inserts, takes,
        a refused insert and a refused take, in any order."""
        lst = ObliviousList(4)
        for step, op in enumerate("iiitiiitttti"):
            if op == "i":
                try:
                    lst.insert(step)
                except OverflowError:
                    assert lst.full
            else:
                try:
                    lst.take(step % 3)
                except IndexError:
                    pass
            occupied = sum(slot is not None for slot in lst._slots)
            assert len(lst) == occupied
            assert lst.full == (occupied == lst.capacity)


class TestObliviousness:
    def test_every_operation_touches_all_slots(self):
        """Touch count depends only on operation count, never on indices."""
        capacity = 8

        def touches(indices):
            lst = ObliviousList(capacity)
            for i in range(capacity):
                lst.insert(i)
            for index in indices:
                lst.take(index)
            return lst.touch_count

        assert touches([0, 0, 0]) == touches([4, 2, 1]) == touches([7, 6, 5])

    def test_insert_touch_count_constant(self):
        lst = ObliviousList(5)
        counts = []
        for i in range(5):
            before = lst.touch_count
            lst.insert(i)
            counts.append(lst.touch_count - before)
        assert len(set(counts)) == 1
