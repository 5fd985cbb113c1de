"""Unit tests for volatile logs."""

import pickle

import pytest

from repro.causality.determinant import Determinant
from repro.storage.volatile import STABLE_HOST, DeterminantLog, SendLog, VolatileLog


def det(sender=0, ssn=0, receiver=1, rsn=0):
    return Determinant(sender=sender, ssn=ssn, receiver=receiver, rsn=rsn)


class TestVolatileLog:
    def test_append_and_iterate(self):
        log = VolatileLog()
        log.append("a")
        log.append("b")
        assert list(log) == ["a", "b"]
        assert len(log) == 2

    def test_clear_loses_everything(self):
        log = VolatileLog()
        log.append(1)
        log.clear()
        assert len(log) == 0

    def test_entries_returns_copy(self):
        log = VolatileLog()
        log.append(1)
        snapshot = log.entries()
        snapshot.append(2)
        assert len(log) == 1


class TestSendLog:
    def test_log_and_lookup(self):
        log = SendLog()
        log.log(2, 0, {"x": 1}, 128)
        record = log.lookup(2, 0)
        assert record["payload"] == {"x": 1}
        assert record["size"] == 128
        assert log.lookup(2, 1) is None

    def test_duplicate_log_ignored(self):
        log = SendLog()
        log.log(2, 0, {"x": 1}, 128)
        log.log(2, 0, {"x": 999}, 128)
        assert log.lookup(2, 0)["payload"] == {"x": 1}
        assert log.bytes_logged == 128

    def test_messages_for_sorted_by_ssn(self):
        log = SendLog()
        log.log(2, 3, {}, 10)
        log.log(2, 1, {}, 10)
        log.log(3, 0, {}, 10)
        assert [ssn for ssn, _ in log.messages_for(2)] == [1, 3]

    def test_prune_upto(self):
        log = SendLog()
        for ssn in range(5):
            log.log(2, ssn, {}, 10)
        dropped = log.prune_upto(2, 2)
        assert dropped == 3
        assert [ssn for ssn, _ in log.messages_for(2)] == [3, 4]
        assert log.bytes_logged == 20

    def test_clear_on_crash(self):
        log = SendLog()
        log.log(2, 0, {}, 10)
        log.clear()
        assert len(log) == 0
        assert log.bytes_logged == 0

    def test_state_round_trip(self):
        log = SendLog()
        log.log(2, 0, {"k": "v"}, 64)
        log.log(3, 1, {"k": "w"}, 32)
        restored = SendLog()
        restored.load_state(log.to_state())
        assert restored.lookup(2, 0)["payload"] == {"k": "v"}
        assert restored.bytes_logged == 96


class TestDeterminantLog:
    def test_add_new_returns_true(self):
        log = DeterminantLog()
        assert log.add(det()) is True
        assert log.add(det()) is False

    def test_logged_at_merges(self):
        log = DeterminantLog()
        d = det()
        log.add(d, logged_at=(1,))
        log.add(d, logged_at=(2, 3))
        assert log.logged_at(d) == frozenset({1, 2, 3})

    def test_note_logged_at_creates_if_missing(self):
        log = DeterminantLog()
        d = det()
        log.note_logged_at(d, 5)
        assert d in log
        assert log.logged_at(d) == frozenset({5})

    def test_unstable_filters_by_replication(self):
        log = DeterminantLog()
        d1 = det(rsn=0)
        d2 = det(rsn=1)
        log.add(d1, logged_at=(1, 2, 3))
        log.add(d2, logged_at=(1,))
        assert log.unstable(3) == [d2]
        assert log.unstable(4) == [d1, d2]

    def test_stable_host_counts_as_stable(self):
        """One predicate: a determinant durable on stable storage is
        stable however few hosts hold it."""
        log = DeterminantLog()
        d1 = det(rsn=0)
        d2 = det(rsn=1)
        log.add(d1, logged_at=(1, STABLE_HOST))
        log.add(d2, logged_at=(1, 2))
        assert d1 not in log.unstable(3)
        assert log.unstable(3) == [d2]
        assert log.count_unstable(3) == 1
        assert log.is_stable(d1.delivery_id, 3)
        assert not log.is_stable(d2.delivery_id, 3)
        assert log.is_stable(d2.delivery_id, 2)

    def test_unknown_delivery_is_unstable_and_hostless(self):
        log = DeterminantLog()
        assert not log.is_stable((1, 0), 1)
        assert log.get((1, 0)) is None
        assert len(log.hosts_of((1, 0))) == 0

    def test_count_unstable_matches_unstable(self):
        log = DeterminantLog()
        for rsn in range(6):
            log.add(det(rsn=rsn, ssn=rsn), logged_at=range(rsn))
        log.note_logged_at(det(rsn=1, ssn=1), STABLE_HOST)
        for target in range(1, 8):
            assert log.count_unstable(target) == len(log.unstable(target))

    def test_determinants_in_field_order(self):
        log = DeterminantLog()
        dets = [
            det(sender=3, ssn=0, receiver=1, rsn=2),
            det(sender=0, ssn=4, receiver=2, rsn=0),
            det(sender=0, ssn=1, receiver=3, rsn=1),
            det(sender=0, ssn=1, receiver=2, rsn=5),
        ]
        for d in dets:
            log.add(d)
        assert log.determinants() == sorted(dets)

    def test_logged_at_is_a_snapshot(self):
        """Callers get a frozen copy: neither mutating what they got nor
        the log learning more afterwards aliases the two."""
        log = DeterminantLog()
        d = det()
        log.add(d, logged_at=(1,))
        hosts = log.logged_at(d)
        assert isinstance(hosts, frozenset)
        with pytest.raises(AttributeError):
            hosts.add(7)
        hosts |= {7}
        assert log.logged_at(d) == frozenset({1})
        log.note_logged_at(d, 2)
        log.add(d, logged_at=(3,))
        assert hosts == frozenset({1, 7})
        assert log.logged_at(d) == frozenset({1, 2, 3})

    def test_add_does_not_alias_caller_hosts(self):
        log = DeterminantLog()
        d = det()
        given = {1, 2}
        log.add(d, logged_at=given)
        given.add(9)
        assert log.logged_at(d) == frozenset({1, 2})

    def test_for_receiver(self):
        log = DeterminantLog()
        log.add(det(receiver=1, rsn=0))
        log.add(det(receiver=1, rsn=1, ssn=1))
        log.add(det(receiver=2, rsn=0, ssn=2))
        orders = log.for_receiver(1)
        assert set(orders) == {0, 1}

    def test_contains_checks_exact_determinant(self):
        log = DeterminantLog()
        log.add(det(sender=0, ssn=0, receiver=1, rsn=0))
        assert det(sender=0, ssn=0, receiver=1, rsn=0) in log
        # same delivery slot, different message: not "contained"
        assert det(sender=0, ssn=9, receiver=1, rsn=0) not in log

    def test_state_round_trip(self):
        log = DeterminantLog()
        d = det()
        log.add(d, logged_at=(1, 4))
        restored = DeterminantLog()
        restored.load_state(log.to_state())
        assert d in restored
        assert restored.logged_at(d) == frozenset({1, 4})

    def test_state_round_trip_is_byte_identical(self):
        log = DeterminantLog()
        log.add(det(sender=2, ssn=1, receiver=0, rsn=1), logged_at=(0, 3))
        log.add(det(sender=1, ssn=0, receiver=0, rsn=0), logged_at=(0,))
        log.note_logged_at(det(sender=1, ssn=0, receiver=0, rsn=0), STABLE_HOST)
        log.add(det(sender=0, ssn=5, receiver=4, rsn=2), logged_at=(4, 2, 1))
        state = log.to_state()
        restored = DeterminantLog()
        restored.load_state(state)
        assert repr(restored.to_state()) == repr(state)
        assert pickle.dumps(restored.to_state()) == pickle.dumps(state)

    def test_clear_on_crash(self):
        log = DeterminantLog()
        log.add(det())
        log.clear()
        assert len(log) == 0
