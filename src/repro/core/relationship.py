"""Error-failure relationship mining (Table 2 of the paper).

System-level failures act as errors for user-level failures.  The
relationship is inferred from the coalesced tuples: when a tuple
contains both a user-level report (say *Connect failed*) and
system-level entries (say HCI errors, from the local host or from the
NAP), an evidence of the corresponding relationship is found; counting
evidences weights the relationships.  Rows are normalised to 100 so
each row reads as "what causes this user failure".
"""

from __future__ import annotations

import re
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import lru_cache
from operator import itemgetter
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.collection.store import MASKED, NODE, TIME, FailureStore, Row
from .coalescence import PAPER_WINDOW
from .coalescence import iter_coalesce  # noqa: F401  (perfbench traces it by name here)
from .failure_model import SystemFailureType, UserFailureType
from .merge import fold_store
from .merge import iter_node_logs  # noqa: F401  (perfbench traces it by name here)

#: Column key for tuples with no system-level evidence at all.
NO_EVIDENCE = "none"

#: Peer tag appended by NAP-side daemons, e.g. "... (peer Verde)".
_PEER_PATTERN = re.compile(r"\(peer ([^)]+)\)\s*$")


def _peer_of(message: str) -> Optional[str]:
    """Extract the peer a NAP-side log line names, if any."""
    match = _PEER_PATTERN.search(message)
    return match.group(1) if match else None


@lru_cache(maxsize=None)
def column_key(failure_type: SystemFailureType, origin: str) -> str:
    """Column identifier, e.g. ``"HCI:local"`` or ``"SDP:NAP"``.

    Memoised (one entry per system type and origin): equal arguments
    return one string object, so the fold's open tuples share their
    column cells instead of each holding its own copy.
    """
    return f"{failure_type.name}:{origin}"


def all_columns() -> List[str]:
    """Every (system type, origin) column plus the no-evidence column."""
    columns = []
    for failure_type in SystemFailureType:
        columns.append(column_key(failure_type, "local"))
        columns.append(column_key(failure_type, "NAP"))
    columns.append(NO_EVIDENCE)
    return columns


@dataclass
class RelationshipTable:
    """The mined error-failure relationship."""

    #: Raw evidence counts: rows[user][column] -> count.
    counts: Dict[UserFailureType, Dict[str, int]] = field(default_factory=dict)
    #: User failures observed per type (for the TOT column).
    observed: Dict[UserFailureType, int] = field(default_factory=dict)

    def add_evidence(self, user: UserFailureType, column: str) -> None:
        self.counts.setdefault(user, {})[column] = (
            self.counts.setdefault(user, {}).get(column, 0) + 1
        )

    def note_failure(self, user: UserFailureType) -> None:
        self.observed[user] = self.observed.get(user, 0) + 1

    def merge(self, other: "RelationshipTable") -> None:
        """Add ``other``'s counts; keys new to this table go last, in
        ``other``'s order — as if its evidence had been noted here."""
        for user, count in other.observed.items():
            self.observed[user] = self.observed.get(user, 0) + count
        for user, row in other.counts.items():
            mine = self.counts.setdefault(user, {})
            for column, count in row.items():
                mine[column] = mine.get(column, 0) + count

    # -- derived views -------------------------------------------------------

    def row_percentages(self, user: UserFailureType) -> Dict[str, float]:
        """One row of Table 2, normalised to sum to 100."""
        row = self.counts.get(user, {})
        total = sum(row.values())
        if total == 0:
            return {}
        return {col: 100.0 * count / total for col, count in row.items()}

    def shares(self) -> Dict[UserFailureType, float]:
        """The TOT column: each type's share of all user failures (%)."""
        total = sum(self.observed.values())
        if total == 0:
            return {}
        return {u: 100.0 * n / total for u, n in self.observed.items()}

    def column_totals(self) -> Dict[str, float]:
        """The Total row: share of user failures attributable per column.

        Weighted combination of row percentages by failure shares, so
        e.g. "X % of the user failures are due to HCI system failures".
        """
        shares = self.shares()
        totals: Dict[str, float] = {}
        for user, share in shares.items():
            for col, pct in self.row_percentages(user).items():
                totals[col] = totals.get(col, 0.0) + share * pct / 100.0
        return totals

    def component_totals(self) -> Dict[str, float]:
        """Column totals folded over origin (local + NAP per component)."""
        folded: Dict[str, float] = {}
        for col, value in self.column_totals().items():
            component = col.split(":", 1)[0]
            folded[component] = folded.get(component, 0.0) + value
        return folded

    def strongest_cause(self, user: UserFailureType) -> Optional[str]:
        """The column with the largest share of this failure's evidence."""
        row = self.row_percentages(user)
        if not row:
            return None
        return max(row, key=row.get)


#: Sort key of a tuple's error entries: time, then local (0) before NAP (1).
_time_and_origin = itemgetter(0, 1)


class _PairTuples:
    """The open coalesced tuple of one (PANU, NAP) pair, mined on close.

    Only what the mining reads is kept: the time of the last entry
    (which fixes the tuple boundary), the classified user reports, and
    the classified error entries as ``(time, origin rank, column)``.
    """

    __slots__ = ("host", "table", "last", "users", "systems")

    def __init__(self, host: str) -> None:
        self.host = host
        self.table = RelationshipTable()
        self.last: Optional[float] = None
        self.users: List[Tuple[float, UserFailureType]] = []
        self.systems: List[Tuple[float, int, str]] = []

    def enter(self, time: float, window: float) -> None:
        """Account one merged entry at ``time``, closing the tuple on a gap."""
        if self.last is not None and time - self.last > window:
            self.close()
        self.last = time

    def close(self) -> None:
        """Mine the open tuple, if it holds a user report, and reset it."""
        if self.users:
            _mine_tuple(self.table, self.users, self.systems)
        self.users = []
        self.systems = []


def _mine_tuple(
    table: RelationshipTable,
    users: List[Tuple[float, UserFailureType]],
    systems: List[Tuple[float, int, str]],
) -> None:
    """Count the evidence of one coalesced tuple into ``table``."""
    # The merged per-node log orders equal-time errors local before NAP;
    # a stable sort on (time, origin) restores that order, so evidence
    # reaches each per-user set exactly as the per-node merge fed it.
    systems.sort(key=_time_and_origin)
    # When a tuple collapses several failures together, each error
    # entry is attributed to the *nearest* user report in time;
    # otherwise collapses smear every cause over every failure and the
    # relationship washes out.  The user reports arrive time-ordered,
    # so the nearest one is found by bisection (ties go to the earlier
    # report) — a dense tuple costs O((U+S) log U), not O(U*S).
    user_times = [when for when, _ in users]
    per_user: Dict[int, Set[str]] = {index: set() for index in range(len(users))}
    for sys_time, _, column in systems:
        after = bisect_left(user_times, sys_time)
        left = user_times[after - 1] if after else None
        right = user_times[after] if after < len(users) else None
        if right is None or (left is not None and sys_time - left <= right - sys_time):
            winner = left
        else:
            winner = right
        # First report carrying the winning timestamp, so ties resolve
        # exactly as a full first-minimum scan would.
        per_user[bisect_left(user_times, winner)].add(column)
    for index, (_, user_type) in enumerate(users):
        table.note_failure(user_type)
        evidence = per_user[index]
        if evidence:
            for column in evidence:
                table.add_evidence(user_type, column)
        else:
            table.add_evidence(user_type, NO_EVIDENCE)


class RelationshipMiner:
    """Table 2 folded over one time-ordered pass of the whole store.

    Feed it every record through :func:`repro.core.merge.fold_store`.
    Each (PANU, NAP) pair keeps one open coalesced tuple: a PANU's
    unmasked reports and its own system entries (``SYSTEM_LOCAL``) go to
    its pairs, and a NAP's system entries (``SYSTEM_NAP``) go to every
    pair naming that NAP.  Memory is one open tuple per pair.

    Tuple boundaries and nearest-user attribution depend only on the
    sorted entry times, so each pair's counts equal those of mining its
    own merged log (:func:`repro.core.merge.iter_node_logs` +
    :func:`repro.core.coalescence.iter_coalesce`).  The pairs' tables are
    merged in ``node_nap_pairs`` order by :meth:`result`, which gives the
    table the dict insertion order — and so the float summation order of
    :meth:`RelationshipTable.column_totals` — of mining pair after pair.
    """

    def __init__(
        self,
        node_nap_pairs: Sequence[Tuple[str, str]],
        window: float = PAPER_WINDOW,
    ) -> None:
        if window < 0:
            raise ValueError(f"negative coalescence window: {window}")
        self.window = window
        self._pairs = [_PairTuples(node.split(":", 1)[-1]) for node, _ in node_nap_pairs]
        self._by_node: Dict[str, List[_PairTuples]] = {}
        self._by_nap: Dict[str, List[_PairTuples]] = {}
        for (node, nap), pair in zip(node_nap_pairs, self._pairs):
            self._by_node.setdefault(node, []).append(pair)
            if nap:
                self._by_nap.setdefault(nap, []).append(pair)

    def add_test(self, row: Row, user_type: Optional[UserFailureType]) -> None:
        """Enter one user report's row into its PANU's pairs."""
        if row[MASKED]:
            return  # never manifested to the user: not part of any merged log
        time = row[TIME]
        for pair in self._by_node.get(row[NODE], ()):
            pair.enter(time, self.window)
            if user_type is not None:
                pair.users.append((time, user_type))

    def add_system(self, row: Row, system_type: Optional[SystemFailureType]) -> None:
        """Enter one system entry's row as local to its node and as
        NAP-side evidence for every pair naming its node as the NAP."""
        time, node, _, _, _, message = row
        for pair in self._by_node.get(node, ()):
            pair.enter(time, self.window)
            if system_type is not None:
                pair.systems.append((time, 0, column_key(system_type, "local")))
        naps = self._by_nap.get(node)
        if not naps:
            return
        # The NAP's log mixes all its PANUs.  Daemons log the requesting
        # peer; an entry tagged with a different peer belongs to someone
        # else's failure and is not evidence for this node.
        column = peer = None
        if system_type is not None:
            column = column_key(system_type, "NAP")
            peer = _peer_of(message)
        for pair in naps:
            pair.enter(time, self.window)
            if column is not None and (peer is None or peer == pair.host):
                pair.systems.append((time, 1, column))

    def result(self) -> RelationshipTable:
        """Close every open tuple and merge the pairs' tables in order."""
        table = RelationshipTable()
        for pair in self._pairs:
            pair.close()
            table.merge(pair.table)
        return table


def build_relationship_table(
    repository: FailureStore,
    node_nap_pairs: Sequence[Tuple[str, str]],
    window: float = PAPER_WINDOW,
) -> RelationshipTable:
    """Mine the error-failure relationship from any failure store.

    ``node_nap_pairs`` lists every PANU with its testbed's NAP, e.g.
    ``[("random:Verde", "random:Giallo"), ...]``.  For each PANU the
    merged (Test + local System + NAP System) log is coalesced and the
    tuples containing user reports are mined for evidence — all PANUs
    at once, in one merged scan of the store (:class:`RelationshipMiner`),
    so only one open tuple per node is ever in memory and the evidence
    counts are identical whichever backend holds the records.
    """
    miner = RelationshipMiner(node_nap_pairs, window)
    fold_store(repository, tests=(miner.add_test,), systems=(miner.add_system,))
    return miner.result()


__all__ = [
    "RelationshipMiner",
    "RelationshipTable",
    "build_relationship_table",
    "column_key",
    "all_columns",
    "NO_EVIDENCE",
]
