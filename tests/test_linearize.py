"""Tests for the black-box linearizability auditor
(:mod:`repro.analysis.linearize`, docs/DURABILITY.md)."""

import itertools
import time

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.linearize import (HistoryRecorder, Op, TxnEvent,
                                      check_history, check_txn_history,
                                      selftest)


def put(client, key, value, invoked, returned):
    return Op(client=client, kind="put", key=key, value=value,
              invoked=invoked, returned=returned)


def get(client, key, value, invoked, returned):
    return Op(client=client, kind="get", key=key, value=value,
              invoked=invoked, returned=returned)


class TestChecker:
    def test_empty_history_is_linearizable(self):
        assert check_history([]).ok

    def test_sequential_history(self):
        ops = [put(0, b"k", b"v1", 0.0, 1.0),
               get(1, b"k", b"v1", 2.0, 3.0)]
        assert check_history(ops).ok

    def test_read_of_initial_none(self):
        assert check_history([get(0, b"k", None, 0.0, 1.0)]).ok

    def test_stale_read_is_a_violation(self):
        ops = [put(0, b"k", b"v1", 0.0, 1.0),
               put(0, b"k", b"v2", 2.0, 3.0),
               get(1, b"k", b"v1", 4.0, 5.0)]  # v2 already committed
        report = check_history(ops)
        assert not report.ok
        assert report.violations

    def test_concurrent_puts_allow_either_winner(self):
        base = [put(0, b"k", b"a", 0.0, 2.0),
                put(1, b"k", b"b", 0.0, 2.0)]
        for winner in (b"a", b"b"):
            ops = base + [get(2, b"k", winner, 3.0, 4.0)]
            assert check_history(ops).ok, winner

    def test_read_from_the_future_is_a_violation(self):
        ops = [get(0, b"k", b"v", 0.0, 1.0),     # returned before any put
               put(1, b"k", b"v", 2.0, 3.0)]
        assert not check_history(ops).ok

    def test_pending_put_may_take_effect_or_not(self):
        pending = Op(client=0, kind="put", key=b"k", value=b"v",
                     invoked=0.0, returned=None)
        # Observed: the pending put linearized.
        assert check_history([pending, get(1, b"k", b"v", 1.0, 2.0)]).ok
        # Never observed: it was dropped in flight.
        assert check_history([pending, get(1, b"k", None, 1.0, 2.0)]).ok

    def test_pending_put_cannot_linearize_before_invoke(self):
        pending = Op(client=0, kind="put", key=b"k", value=b"v",
                     invoked=5.0, returned=None)
        read = get(1, b"k", b"v", 0.0, 1.0)  # saw it before it existed
        assert not check_history([pending, read]).ok

    def test_keys_checked_independently(self):
        ops = [put(0, b"a", b"1", 0.0, 1.0),
               put(0, b"b", b"2", 2.0, 3.0),
               get(1, b"a", b"1", 4.0, 5.0),
               get(1, b"b", b"2", 4.0, 5.0)]
        report = check_history(ops)
        assert report.ok
        assert report.keys_checked == 2
        assert report.ops_checked == 4


class TestRecorder:
    def test_invoke_complete_drop_flow(self):
        rec = HistoryRecorder()
        a = rec.invoke(0, "put", b"k", b"v", 0.0)
        rec.complete(a, 1.0)
        b = rec.invoke(1, "put", b"k", b"x", 0.5)
        rec.drop(b)  # rejected before taking effect
        rec.record_read(2, b"k", b"v", 2.0)
        history = rec.history()
        assert len(history) == 2  # dropped op excluded
        assert check_history(history).ok

    def test_uncompleted_op_is_pending(self):
        rec = HistoryRecorder()
        rec.invoke(0, "put", b"k", b"v", 0.0)
        (op,) = rec.history()
        assert op.returned is None


class TestSelftest:
    def test_selftest_passes_and_catches_seeded_violation(self):
        ok, stale_report = selftest()
        assert ok
        assert not stale_report.ok


def txn(client, reads, writes, invoked, returned):
    return TxnEvent(client, reads=reads, writes=writes, invoked=invoked,
                    returned=returned)


def timed(check, history):
    start = time.perf_counter()
    report = check(history)
    return report, time.perf_counter() - start


class TestLongHistories:
    """The search is iterative: history length is not capped by the
    interpreter's recursion limit, and 10k ops audit within 5 s."""

    def test_sequential_puts_on_one_key(self):
        for n in (2000, 10_000):
            ops = [put(i % 4, b"k", b"%d" % i, 2.0 * i, 2.0 * i + 1)
                   for i in range(n)]
            ops.append(get(9, b"k", b"%d" % (n - 1), 2.0 * n, 2.0 * n + 1))
            report, elapsed = timed(check_history, ops)
            assert report.ok, report.violations
            assert report.ops_checked == n + 1
            assert elapsed < 5.0, (n, elapsed)

    def test_stale_read_after_long_history_is_caught(self):
        n = 10_000
        ops = [put(0, b"k", b"%d" % i, 2.0 * i, 2.0 * i + 1)
               for i in range(n)]
        ops.append(get(1, b"k", b"0", 2.0 * n, 2.0 * n + 1))
        report, elapsed = timed(check_history, ops)
        assert not report.ok
        assert elapsed < 5.0, elapsed

    def test_txn_chain_over_shared_keys(self):
        keys = [b"x", b"y", b"z"]
        current, chain = {}, []
        for i in range(2000):
            pair = (keys[i % 3], keys[(i + 1) % 3])
            chain.append(txn(i % 4, {k: current.get(k) for k in pair},
                             {pair[0]: b"%d" % i}, 2.0 * i, 2.0 * i + 1))
            current[pair[0]] = b"%d" % i
        report, elapsed = timed(check_txn_history, chain)
        assert report.ok, report.violations
        assert (report.keys_checked, report.ops_checked) == (3, 2000)
        assert elapsed < 5.0, elapsed


def test_memoized_failure_reached_by_a_second_order():
    """Writes to x and y commute, so both orders of the first two txns
    reach the same failed node; the memo hit must not forget the txn
    that led into it. Truth: x:=1 returned before the final read was
    invoked, and nothing deletes x."""
    history = [txn(0, {}, {b"x": b"1"}, 0.0, 10.0),
               txn(1, {}, {b"y": b"1"}, 0.0, 10.0),
               txn(2, {b"x": None, b"y": b"1"}, {}, 0.0, 10.0),
               txn(3, {b"x": None}, {}, 11.0, 12.0)]
    assert not check_txn_history(history).ok


class TestComponentSplit:
    def history(self):
        return [
            # Component {a1, a2}: legal, one pending txn.
            txn(0, {}, {b"a1": b"1", b"a2": b"1"}, 0.0, 1.0),
            txn(1, {b"a1": b"1", b"a2": b"1"}, {b"a2": b"2"}, 2.0, 3.0),
            txn(2, {}, {b"a1": b"9"}, 2.5, None),
            # Component {b1, b2}: b1 read stale after b1:=2 committed.
            txn(3, {}, {b"b1": b"1"}, 0.0, 1.0),
            txn(4, {}, {b"b1": b"2", b"b2": b"2"}, 2.0, 3.0),
            txn(5, {b"b1": b"1", b"b2": b"2"}, {}, 4.0, 5.0),
        ]

    def test_only_the_violating_component_is_reported(self):
        report = check_txn_history(self.history())
        assert not report.ok
        (violation,) = report.violations
        assert violation.startswith(
            "no strict serialization of 3 txns over 2 keys")
        for client in (3, 4, 5):
            assert f"c{client} txn" in violation
        assert "c0 " not in violation and "c1 " not in violation
        assert "a1" not in violation and "a2" not in violation

    def test_counts_cover_the_whole_history(self):
        report = check_txn_history(self.history())
        assert (report.keys_checked, report.ops_checked,
                report.pending_ops) == (4, 6, 1)

    def test_kv_history_splits_per_key(self):
        ops = [put(0, b"a", b"1", 0.0, 1.0), get(1, b"a", b"1", 2.0, 3.0),
               put(0, b"b", b"1", 0.0, 1.0), put(0, b"b", b"2", 2.0, 3.0),
               get(1, b"b", b"1", 4.0, 5.0)]
        report = check_history(ops)
        (violation,) = report.violations
        assert violation.startswith("key b'b': no legal linearization of 3")
        assert "b'a'" not in violation


# ------------------------------------------------- brute-force differential


def oracle(events):
    """Reference check by exhaustion: some subset of the pending events
    plus every completed one, in some order that respects real time (x
    returned before y was invoked => x first), applies legally from the
    empty store."""
    completed = [e for e in events if e.returned is not None]
    pending = [e for e in events if e.returned is None]
    for size in range(len(pending) + 1):
        for chosen in itertools.combinations(pending, size):
            for order in itertools.permutations(completed + list(chosen)):
                if legal(order):
                    return True
    return False


def legal(order):
    for i, later in enumerate(order):
        if any(later.returned is not None and later.returned < earlier.invoked
               for earlier in order[:i]):
            return False
    store = {}
    for event in order:
        reads, writes = effects(event)
        if event.returned is not None and any(
                store.get(k) != v for k, v in reads.items()):
            return False
        store.update(writes)
    return True


def effects(event):
    """(reads, writes) of a txn, or of a KV op read as a register."""
    if isinstance(event, TxnEvent):
        return event.reads, event.writes
    if event.kind == "get":
        return {event.key: event.value}, {}
    return {}, {event.key: event.value}


KEYS = st.sampled_from([b"a", b"b", b"c"])
VALUES = st.sampled_from([None, b"1", b"2"])
WINDOWS = st.tuples(st.integers(0, 6),
                    st.one_of(st.none(), st.integers(0, 3)))


@st.composite
def kv_histories(draw):
    ops = []
    for client in range(draw(st.integers(1, 7))):
        invoked, length = draw(WINDOWS)
        returned = None if length is None else float(invoked + length)
        if draw(st.booleans()):
            value = draw(st.sampled_from([b"1", b"2"]))
            ops.append(put(client, draw(KEYS), value, float(invoked),
                           returned))
        else:
            ops.append(get(client, draw(KEYS), draw(VALUES),
                           float(invoked), returned))
    return ops


@st.composite
def txn_histories(draw):
    txns = []
    for client in range(draw(st.integers(1, 7))):
        invoked, length = draw(WINDOWS)
        txns.append(txn(client,
                        draw(st.dictionaries(KEYS, VALUES, max_size=2)),
                        draw(st.dictionaries(KEYS, VALUES, max_size=2)),
                        float(invoked),
                        None if length is None else float(invoked + length)))
    return txns


class TestAgainstBruteForce:
    @settings(max_examples=300, deadline=None)
    @given(ops=kv_histories())
    def test_kv_histories(self, ops):
        assert check_history(ops).ok == oracle(ops)

    @settings(max_examples=300, deadline=None)
    @given(txns=txn_histories())
    def test_txn_histories(self, txns):
        assert check_txn_history(txns).ok == oracle(txns)
