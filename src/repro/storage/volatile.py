"""Volatile (crash-lossy) logs.

Everything here lives in a process's memory and is wiped by
:meth:`clear` when the process crashes.  The FBL protocols keep two
volatile structures: the *send log* (message data, kept by the sender for
replay) and the *determinant log* (receipt orders of its own and other
processes' deliveries, replicated via piggybacking).
"""

from __future__ import annotations

from operator import attrgetter
from typing import (
    AbstractSet,
    Any,
    Dict,
    FrozenSet,
    Generic,
    Iterable,
    Iterator,
    List,
    Optional,
    Set,
    Tuple,
    TypeVar,
)

from repro.causality.determinant import Determinant

T = TypeVar("T")

#: Virtual host id of the never-failing stable-storage process the paper
#: introduces for the ``f = n`` case: a determinant logged there is
#: stable whatever its replication count.
STABLE_HOST = -1

#: sort key giving the dataclass order of :class:`Determinant` (its
#: fields in declaration order) without a Python-level ``__lt__`` call
#: per comparison
_field_order = attrgetter("sender", "ssn", "receiver", "rsn")
_NO_HOSTS: FrozenSet[int] = frozenset()


def _stable(hosts: AbstractSet[int], replication_target: int) -> bool:
    """The one stability predicate: on stable storage, or replicated at
    ``replication_target`` hosts or more."""
    return STABLE_HOST in hosts or len(hosts) >= replication_target


class VolatileLog(Generic[T]):
    """A generic append-only in-memory log."""

    def __init__(self) -> None:
        self._entries: List[T] = []

    def append(self, entry: T) -> None:
        """Append ``entry`` to the log."""
        self._entries.append(entry)

    def entries(self) -> List[T]:
        """Snapshot of the log contents."""
        return list(self._entries)

    def clear(self) -> None:
        """Crash: all volatile contents are lost."""
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[T]:
        return iter(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"VolatileLog({len(self)} entries)"


class SendLog:
    """Sender-side volatile log of outgoing message data.

    Keyed by ``(dst, ssn)``; holds the application payload so the sender
    can retransmit during a receiver's recovery.  This is the "log each
    message in the volatile store of its sender" half of the FBL idea.
    """

    def __init__(self) -> None:
        self._by_key: Dict[Tuple[int, int], Dict[str, Any]] = {}
        self.bytes_logged = 0
        #: cumulative bytes released by checkpoint-driven pruning
        self.bytes_pruned = 0
        #: cumulative entries released by checkpoint-driven pruning
        self.entries_pruned = 0

    def log(self, dst: int, ssn: int, payload: Dict[str, Any], size_bytes: int) -> None:
        """Record an outgoing message for possible replay."""
        key = (dst, ssn)
        if key in self._by_key:
            return  # duplicate regeneration during replay
        self._by_key[key] = {"payload": dict(payload), "size": size_bytes}
        self.bytes_logged += size_bytes

    def lookup(self, dst: int, ssn: int) -> Optional[Dict[str, Any]]:
        """Logged record for ``(dst, ssn)``, or None."""
        return self._by_key.get((dst, ssn))

    def messages_for(self, dst: int) -> List[Tuple[int, Dict[str, Any]]]:
        """All logged ``(ssn, record)`` pairs destined for ``dst``, by ssn."""
        found = [
            (ssn, record) for (d, ssn), record in self._by_key.items() if d == dst
        ]
        return sorted(found)

    def prune_upto(self, dst: int, ssn: int) -> int:
        """Garbage-collect entries for ``dst`` with ssn <= the given bound.

        Returns how many entries were dropped.  Called when the receiver
        checkpoints (it will never need those messages replayed again).
        """
        victims = [key for key in self._by_key if key[0] == dst and key[1] <= ssn]
        for key in victims:
            self.bytes_logged -= self._by_key[key]["size"]
            self.bytes_pruned += self._by_key[key]["size"]
            del self._by_key[key]
        self.entries_pruned += len(victims)
        return len(victims)

    def clear(self) -> None:
        """Crash: the send log is volatile."""
        self._by_key.clear()
        self.bytes_logged = 0

    # -- checkpoint support ------------------------------------------------
    def to_state(self) -> List[Tuple[int, int, Dict[str, Any], int]]:
        """Serializable snapshot: list of (dst, ssn, payload, size)."""
        return [
            (dst, ssn, dict(record["payload"]), record["size"])
            for (dst, ssn), record in sorted(self._by_key.items())
        ]

    def load_state(self, state: List[Tuple[int, int, Dict[str, Any], int]]) -> None:
        """Rebuild from a checkpointed snapshot."""
        self.clear()
        for dst, ssn, payload, size in state:
            self.log(dst, ssn, payload, size)

    def __len__(self) -> int:
        return len(self._by_key)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SendLog({len(self)} messages, {self.bytes_logged}B)"


class DeterminantLog:
    """Volatile store of determinants known to a process.

    Besides the determinants themselves it tracks, per determinant, the
    set of hosts *known to have logged it* -- the information FBL uses to
    stop piggybacking once a determinant is replicated at ``f + 1``
    hosts.  Both maps are keyed by delivery id ``(receiver, rsn)``; the
    host sets are updated in place, and :meth:`logged_at` hands callers
    a snapshot so they never alias them.

    A determinant is *stable* at a replication target when it is
    logged at that many hosts or on stable storage (:data:`STABLE_HOST`);
    :meth:`is_stable`, :meth:`unstable` and :meth:`count_unstable` share
    that one predicate.
    """

    def __init__(self) -> None:
        self._dets: Dict[Tuple[int, int], Determinant] = {}
        self._logged_at: Dict[Tuple[int, int], Set[int]] = {}
        #: cumulative determinants released by checkpoint-driven pruning
        self.entries_pruned = 0

    # ------------------------------------------------------------------
    def add(self, det: Determinant, logged_at: Iterable[int] = ()) -> bool:
        """Record ``det``; merge ``logged_at`` host knowledge.

        Returns True if the determinant was new to this log.
        """
        key = det.delivery_id
        hosts = self._logged_at.get(key)
        if hosts is None:
            self._dets[key] = det
            self._logged_at[key] = set(logged_at)
            return True
        hosts.update(logged_at)
        return False

    def note_logged_at(self, det: Determinant, host: int) -> None:
        """Record that ``host`` now stores ``det``."""
        hosts = self._logged_at.get(det.delivery_id)
        if hosts is None:
            self.add(det, logged_at=(host,))
        else:
            hosts.add(host)

    def logged_at(self, det: Determinant) -> FrozenSet[int]:
        """Snapshot of the hosts known to store ``det`` (possibly empty)."""
        return frozenset(self._logged_at.get(det.delivery_id, ()))

    def hosts_of(self, key: Tuple[int, int]) -> AbstractSet[int]:
        """Hosts known to store the determinant of delivery ``key``.

        The log's own set, for read-only use on hot paths: it changes as
        the log learns more, and must not be mutated by the caller (take
        :meth:`logged_at` for a snapshot).  Empty if ``key`` is unknown.
        """
        return self._logged_at.get(key, _NO_HOSTS)

    def get(self, key: Tuple[int, int]) -> Optional[Determinant]:
        """The determinant of delivery ``key``, or None."""
        return self._dets.get(key)

    def is_stable(self, key: Tuple[int, int], replication_target: int) -> bool:
        """Whether delivery ``key``'s determinant is on stable storage or
        logged at ``replication_target`` hosts or more."""
        return _stable(self._logged_at.get(key, _NO_HOSTS), replication_target)

    # ------------------------------------------------------------------
    def determinants(self) -> List[Determinant]:
        """Every stored determinant, deterministically ordered."""
        return sorted(self._dets.values(), key=_field_order)

    def unstable(self, replication_target: int) -> List[Determinant]:
        """Determinants not stable at ``replication_target`` (see
        :meth:`is_stable`), in :meth:`determinants` order."""
        return sorted(
            (
                det
                for key, det in self._dets.items()
                if not _stable(self._logged_at[key], replication_target)
            ),
            key=_field_order,
        )

    def count_unstable(self, replication_target: int) -> int:
        """``len(self.unstable(replication_target))``, without the sort."""
        return sum(
            1
            for hosts in self._logged_at.values()
            if not _stable(hosts, replication_target)
        )

    def for_receiver(self, receiver: int) -> Dict[int, Determinant]:
        """``rsn -> determinant`` for one receiver."""
        return {
            rsn: det for (recv, rsn), det in self._dets.items() if recv == receiver
        }

    def __contains__(self, det: Determinant) -> bool:
        return self._dets.get(det.delivery_id) == det

    def drop_receiver_prefix(self, receiver: int, before_rsn: int) -> int:
        """Garbage-collect determinants of ``receiver``'s deliveries with
        rsn < ``before_rsn`` (covered by its durable checkpoint, so never
        needed for replay again).  Returns how many were dropped."""
        victims = [
            key for key in self._dets
            if key[0] == receiver and key[1] < before_rsn
        ]
        for key in victims:
            del self._dets[key]
            del self._logged_at[key]
        self.entries_pruned += len(victims)
        return len(victims)

    def clear(self) -> None:
        """Crash: all volatile contents are lost."""
        self._dets.clear()
        self._logged_at.clear()

    # -- checkpoint support ------------------------------------------------
    def to_state(self) -> List[Tuple[Tuple[int, int, int, int], Tuple[int, ...]]]:
        """Serializable snapshot: list of (det tuple, sorted hosts)."""
        return [
            (det.to_tuple(), tuple(sorted(self._logged_at[key])))
            for key, det in sorted(self._dets.items())
        ]

    def load_state(
        self, state: List[Tuple[Tuple[int, int, int, int], Tuple[int, ...]]]
    ) -> None:
        """Rebuild from a checkpointed snapshot."""
        self.clear()
        for det_tuple, hosts in state:
            self.add(Determinant.from_tuple(tuple(det_tuple)), logged_at=hosts)

    def __len__(self) -> int:
        return len(self._dets)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DeterminantLog({len(self)} determinants)"
