"""Unit tests for the event heap."""

import pytest

from repro.rt import EventHeap, EventKind


class TestEventHeap:
    def test_orders_by_time(self):
        heap = EventHeap()
        heap.push(2.0, EventKind.PERIODIC, "late")
        heap.push(1.0, EventKind.PERIODIC, "early")
        assert heap.pop() == (1.0, EventKind.PERIODIC, "early")

    def test_ties_break_in_insertion_order(self):
        heap = EventHeap()
        heap.push(1.0, EventKind.PERIODIC, "first")
        heap.push(1.0, EventKind.PERIODIC, "second")
        assert heap.pop()[2] == "first"
        assert heap.pop()[2] == "second"

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            EventHeap().push(-1.0, EventKind.PERIODIC)

    @pytest.mark.parametrize("time", [float("nan"), float("-inf")])
    def test_non_number_time_rejected_and_not_pushed(self, time):
        # NaN compares false both ways, so a queued NaN breaks heapq's order.
        heap = EventHeap()
        heap.push(1.0, EventKind.PERIODIC, "kept")
        with pytest.raises(ValueError):
            heap.push(time, EventKind.PERIODIC, "bad")
        assert len(heap) == 1
        assert heap.pop()[2] == "kept"

    def test_len_and_bool(self):
        heap = EventHeap()
        assert not heap and len(heap) == 0
        heap.push(1.0, EventKind.SOURCE_RELEASE, "x")
        assert heap and len(heap) == 1

    def test_equal_payloads_never_compared(self):
        # ``seq`` is unique, so ties on time never fall through to payloads
        # that cannot be ordered (dicts, jobs).
        heap = EventHeap()
        heap.push(1.0, EventKind.JOB_FINISH, {"a": 1})
        heap.push(1.0, EventKind.JOB_FINISH, {"b": 2})
        assert heap.pop()[2] == {"a": 1}
