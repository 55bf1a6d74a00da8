import threading

import numpy as np
import pytest

import spans


def selfs(rows):
    """rows: (id, start, end, parent, thread)."""
    ids, starts, ends, parents, threads = zip(*rows)
    return spans.self_times(ids, starts, ends, parents, threads).tolist()


def test_nested_spans_on_one_thread():
    # op [0,10] > clean [1,4] > inner [2,3]; op > pea [5,9]
    got = selfs([
        (0, 0.0, 10.0, -1, 0),
        (1, 1.0, 4.0, 0, 0),
        (2, 2.0, 3.0, 1, 0),
        (3, 5.0, 9.0, 0, 0),
    ])
    assert got == pytest.approx([3.0, 2.0, 1.0, 4.0])


def test_row_order_does_not_matter():
    rows = [
        (2, 2.0, 3.0, 1, 0),
        (0, 0.0, 10.0, -1, 0),
        (1, 1.0, 4.0, 0, 0),
    ]
    assert selfs(rows) == pytest.approx([1.0, 7.0, 2.0])


def test_cross_thread_children_overlap_once():
    # window [0,10] on thread 0; a replay feed [1,5] on thread 1 and a
    # request [3,8] on thread 2 overlap in [3,5]: covered is [1,8].
    got = selfs([
        (10, 0.0, 10.0, -1, 0),
        (11, 1.0, 5.0, 10, 1),
        (12, 3.0, 8.0, 10, 2),
    ])
    assert got == pytest.approx([3.0, 4.0, 5.0])


def test_children_are_clipped_to_the_parent():
    # A cross-thread child outliving its parent covers only the part
    # inside the parent's interval.
    got = selfs([
        (0, 0.0, 10.0, -1, 0),
        (1, 6.0, 14.0, 0, 1),
        (2, 2.0, 4.0, 0, 2),
    ])
    assert got[0] == pytest.approx(10.0 - 4.0 - 2.0)


def test_disjoint_cross_thread_children_add_up():
    got = selfs([
        (0, 0.0, 10.0, -1, 0),
        (1, 1.0, 2.0, 0, 1),
        (2, 3.0, 5.0, 0, 2),
        (3, 5.0, 6.0, 0, 1),
    ])
    assert got[0] == pytest.approx(6.0)


def test_unknown_parent_makes_a_root():
    assert selfs([(5, 1.0, 3.0, 99, 0)]) == pytest.approx([2.0])


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


class Thing:
    def work(self, n):
        return list(range(n))

    @classmethod
    def make(cls):
        return cls()


def helper(n):
    return [n] * n


def test_patched_entry_points_record_nested_spans(tmp_path):
    import sys

    module = sys.modules[__name__]
    recorder = spans.SpanRecorder(clock=FakeClock())
    originals = (Thing.__dict__["work"], Thing.__dict__["make"], helper)
    try:
        recorder.patch(Thing, "work", "thing.work",
                       lambda a, k, r: (len(r), a[1]))
        recorder.patch(Thing, "make", "thing.make")
        recorder.patch(module, "helper", "helper")
        recorder.op = 4
        with recorder.span("op"):
            thing = Thing.make()
            assert thing.work(3) == [0, 1, 2]
            assert module.helper(2) == [2, 2]
    finally:
        Thing.work, Thing.make, module.helper = (
            originals[0], originals[1], originals[2]
        )
    path = tmp_path / "t.spans"
    recorder.dump(path)
    names, table = spans.load(path)
    by_name = {names[n]: i for i, n in enumerate(table["name"])}
    op = by_name["op"]
    for name in ("thing.make", "thing.work", "helper"):
        assert table["parent"][by_name[name]] == table["id"][op]
    assert table["parent"][op] == -1
    work = by_name["thing.work"]
    assert (table["a"][work], table["b"][work]) == (3.0, 3.0)
    assert set(table["op"].tolist()) == {4}
    self_op = spans.self_times(
        table["id"], table["start"], table["end"], table["parent"],
        table["thread"],
    )[op]
    # FakeClock ticks once per read: op spans 8 ticks, children 1 each.
    assert self_op == pytest.approx(7.0 - 3.0)


def test_spans_of_other_threads_parent_to_the_root(tmp_path):
    recorder = spans.SpanRecorder()
    with recorder.span("window") as window:
        recorder.root = window
        inner_done = threading.Event()

        def serve():
            with recorder.span("request"):
                pass
            inner_done.set()

        worker = threading.Thread(target=serve)
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive() and inner_done.is_set()
        recorder.root = -1
    path = tmp_path / "t.spans"
    recorder.dump(path)
    names, table = spans.load(path)
    request = names.index("request")
    row = int(np.nonzero(table["name"] == request)[0][0])
    assert table["parent"][row] == window
    assert len(set(table["thread"].tolist())) == 2
