"""Oblivious list storage: semantics and access-pattern uniformity."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mixnn.oram import ObliviousList


class PlainSlots:
    """The oblivious list's contract on a plain list of slots, ``None`` free."""

    def __init__(self, capacity: int) -> None:
        self.slots = [None] * capacity

    def insert(self, item) -> None:
        if None not in self.slots:
            raise OverflowError("oblivious list is full")
        self.slots[self.slots.index(None)] = item

    def take(self, index: int):
        occupied = [slot for slot, item in enumerate(self.slots) if item is not None]
        if not 0 <= index < len(occupied):
            raise IndexError(f"occupied index {index} out of range (have {len(occupied)})")
        item, self.slots[occupied[index]] = self.slots[occupied[index]], None
        return item

    def items(self) -> list:
        return [item for item in self.slots if item is not None]


operations = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), st.integers(0, 99)),
        st.tuples(st.just("take"), st.integers(-2, 9)),
        st.tuples(st.just("items")),
    ),
    max_size=40,
)


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


class TestAgainstPlainSlots:
    @given(capacity=st.integers(1, 8), ops=operations)
    @settings(max_examples=200, deadline=None)
    def test_matches_plain_list_model(self, capacity, ops):
        """Same items, length, fullness and errors as the plain model after
        every operation, and ``capacity`` touches per operation."""
        lst, model = ObliviousList(capacity), PlainSlots(capacity)
        for name, *args in ops:
            outcomes = []
            for target in (lst, model):
                try:
                    outcomes.append(("ok", getattr(target, name)(*args)))
                except (OverflowError, IndexError) as exc:
                    outcomes.append((type(exc), str(exc)))
            assert outcomes[0] == outcomes[1]
            assert len(lst) == len(model.items())
            assert lst.full == (None not in model.slots)
        assert lst.touch_count == capacity * len(ops)
        assert lst.items() == model.items()
