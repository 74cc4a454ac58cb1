"""The Table 1-4 render reads the store in one merged pass.

Two guarantees of :func:`repro.core.merge.fold_store`:

* **Read amplification.**  A full render (``repro-bt analyze``) and
  :func:`campaign_statistics` open one test row cursor and one system
  row cursor, read each stored row about once and decode none of them
  into records; each distinct message text is classified once per
  pass.  Cursors and rows are counted by wrapping
  :meth:`SQLiteStore.iter_rows`, decoded records by wrapping the row
  decoders, so a regression back to one scan per statistic fails here
  by name.
* **Fan-out equals per-node mining.**  The relationship miner
  demultiplexes the single merged scan into one coalescer per PANU.  A
  per-node reference kept in this file — ``merge_records`` +
  ``coalesce`` + a first-minimum mining loop over each PANU's own
  merged log — must produce the same table, dict order included, on
  hand-built stores with equal timestamps across sources, peer-tagged
  NAP lines, masked reports and two testbeds, over both backends.
"""

import random
from collections import Counter

import pytest

from repro.cli import _analyses_text, infer_node_nap_pairs
from repro.collection import store as store_module
from repro.collection.records import RecoveryAttempt, SystemLogRecord, TestLogRecord
from repro.collection.repository import CentralRepository
from repro.collection.store import SQLiteStore
from repro.core import classification
from repro.core.classification import (
    classification_report,
    classify_system_record,
    classify_user_record,
)
from repro.core.coalescence import PAPER_WINDOW, coalesce
from repro.core.distributions import (
    packet_loss_by_application,
    packet_loss_by_connection_age,
    workload_split,
)
from repro.core.merge import Source, merge_records
from repro.core.relationship import (
    NO_EVIDENCE,
    RelationshipTable,
    build_relationship_table,
    column_key,
)
from repro.core.sira_analysis import build_sira_table
from repro.core.summary import campaign_statistics, summarize_repository
from repro.core.trends import campaign_trend
from repro.recovery.sira import SIRA_NAMES

#: Decoded rows allowed per stored record for one pass.
MAX_AMPLIFICATION = 1.1


class ReadCounter:
    """Counts row cursors, the rows they yield, decoded records and classified texts."""

    def __init__(self, monkeypatch):
        self.cursors = 0
        self.rows = 0
        self.decoded = 0
        self.user_texts = Counter()
        self.system_texts = Counter()
        iter_rows = SQLiteStore.iter_rows

        def counting_rows(store, **query):
            self.cursors += 1
            for row in iter_rows(store, **query):
                self.rows += 1
                yield row

        monkeypatch.setattr(SQLiteStore, "iter_rows", counting_rows)
        for name in ("_test_record", "_system_record"):
            monkeypatch.setattr(store_module, name, self._counting(getattr(store_module, name)))
        for name, texts in (
            ("classify_user_message", self.user_texts),
            ("classify_system_message", self.system_texts),
        ):
            monkeypatch.setattr(
                classification, name, self._recording(getattr(classification, name), texts)
            )

    def _counting(self, decode):
        def counted(row):
            self.decoded += 1
            return decode(row)

        return counted

    @staticmethod
    def _recording(classify, texts):
        def recorded(message):
            texts[message] += 1
            return classify(message)

        return recorded

    def most_classifications_of_one_text(self):
        return max([*self.user_texts.values(), *self.system_texts.values(), 0])


@pytest.fixture(scope="module")
def spilled_store(baseline_campaign, tmp_path_factory):
    """The shared 12-hour campaign spilled into a columnar store."""
    path = tmp_path_factory.mktemp("one-pass") / "campaign.store"
    with SQLiteStore(path) as store:
        store.ingest_store(baseline_campaign.repository)
    return path


class TestReadAmplification:
    def test_render_reads_each_row_once(self, spilled_store, monkeypatch):
        with SQLiteStore.open(spilled_store) as store:
            pairs = infer_node_nap_pairs(store)
            items = store.total_items
            counter = ReadCounter(monkeypatch)
            _analyses_text(store, pairs)
        assert items > 1000
        assert counter.cursors == 2
        assert 1000 < counter.rows <= MAX_AMPLIFICATION * items
        assert counter.decoded == 0
        assert counter.most_classifications_of_one_text() == 1

    def test_campaign_statistics_reads_each_row_once(self, spilled_store, monkeypatch):
        with SQLiteStore.open(spilled_store) as store:
            pairs = infer_node_nap_pairs(store)
            items = store.total_items
            counter = ReadCounter(monkeypatch)
            campaign_statistics(store, pairs, 12 * 3600.0)
        assert counter.cursors == 2
        assert 1000 < counter.rows <= MAX_AMPLIFICATION * items
        assert counter.decoded == 0
        assert counter.most_classifications_of_one_text() == 1

    def test_pair_inference_probes_one_row_per_node(
        self, baseline_campaign, spilled_store, monkeypatch
    ):
        memory = baseline_campaign.repository
        with SQLiteStore.open(spilled_store) as store:
            counter = ReadCounter(monkeypatch)
            pairs = infer_node_nap_pairs(store)
            nodes = store.nodes()
        assert counter.decoded <= len(nodes)
        assert pairs == infer_node_nap_pairs(memory)
        assert sorted(pairs) == sorted(baseline_campaign.node_nap_pairs())


# -- the per-node reference ----------------------------------------------------

TESTBEDS = {
    "random": ("Giallo", ("Verde", "Win", "Miseno")),
    "realistic": ("Ipaq H3870", ("Zaurus", "Azzurro")),
}
USER_MESSAGES = (
    "bluetest: pan connection cannot be created",
    "bluetest: timeout waiting for expected packet (30 s)",
    "bluetest: nap service not found on access point",
    "bluetest: sdp search terminated abnormally",
    "bluetest: something nobody classifies",
)
SYSTEM_MESSAGES = (
    "hci: command tx timeout (opcode 0x0405)",
    "sdp: request timed out",
    "bnep: device bnep0 occupied",
    "l2cap: connection refused by peer",
    "kernel: usb: device descriptor read error",
    "daemon restarted",
)


def reference_table(store, pairs, window=PAPER_WINDOW):
    """Table 2 mined PANU by PANU from each one's own merged log."""
    table = RelationshipTable()
    for node, nap in pairs:
        host = node.split(":", 1)[-1]
        tests = [r for r in store.iter_records(kind="test", node=node) if not r.masked]
        local = list(store.iter_records(kind="system", node=node))
        nap_log = list(store.iter_records(kind="system", node=nap))
        for tpl in coalesce(merge_records(tests, local, nap_log), window):
            users, systems = [], []
            for entry in tpl.entries:
                if entry.source is Source.USER:
                    user_type = classify_user_record(entry.record)
                    if user_type is not None:
                        users.append((entry.time, user_type))
                    continue
                system_type = classify_system_record(entry.record)
                if system_type is None:
                    continue
                origin = "local"
                if entry.source is Source.SYSTEM_NAP:
                    message = entry.record.message
                    if "(peer " in message and not message.endswith(f"(peer {host})"):
                        continue
                    origin = "NAP"
                systems.append((entry.time, column_key(system_type, origin)))
            if not users:
                continue
            per_user = [set() for _ in users]
            for when, column in systems:
                # First report at the smallest distance: ties go earlier.
                nearest = min(range(len(users)), key=lambda i: abs(users[i][0] - when))
                per_user[nearest].add(column)
            for (_, user_type), evidence in zip(users, per_user):
                table.note_failure(user_type)
                for column in evidence or (NO_EVIDENCE,):
                    table.add_evidence(user_type, column)
    return table


def hand_built_records(seed):
    """Two testbeds on a coarse time grid: ties across every source."""
    rng = random.Random(seed)
    tests, systems = [], []
    for testbed, (nap, panus) in TESTBEDS.items():
        for _ in range(60):
            host = rng.choice(panus)
            when = 30.0 * rng.randrange(400)
            masked = rng.random() < 0.2
            level = rng.randrange(len(SIRA_NAMES))
            tests.append(TestLogRecord(
                time=when, node=f"{testbed}:{host}", testbed=testbed,
                workload=rng.choice(("random", "web", "p2p")),
                message=rng.choice(USER_MESSAGES), phase="Connect",
                packets_sent=rng.randrange(3000),
                masked=masked,
                recovery=() if masked else (RecoveryAttempt(SIRA_NAMES[level], True, 5.0),),
            ))
            for _ in range(rng.randrange(4)):
                source = rng.choice((host, nap))
                message = rng.choice(SYSTEM_MESSAGES)
                if source == nap and rng.random() < 0.6:
                    message += f" (peer {rng.choice(panus)})"
                systems.append(SystemLogRecord(
                    time=when + 30.0 * rng.choice((-1, 0, 0, 1)),
                    node=f"{testbed}:{source}",
                    facility="hcid",
                    severity="error" if rng.random() < 0.85 else "info",
                    message=message,
                ))
    # Ingestion order fixes the order of equal-time records: shuffle it so
    # NAP lines often precede local ones at the same instant.
    rng.shuffle(tests)
    rng.shuffle(systems)
    pairs = [
        (f"{testbed}:{host}", f"{testbed}:{nap}")
        for testbed, (nap, panus) in TESTBEDS.items()
        for host in panus
    ]
    return tests, systems, pairs


def both_backends(tests, systems):
    memory = CentralRepository()
    disk = SQLiteStore()
    for store in (memory, disk):
        store.ingest_test(tests)
        store.ingest_system(systems)
    return memory, disk


def table_layout(table):
    """Counts plus every dict's key order (column_totals sums in that order)."""
    return (
        list(table.observed.items()),
        [(user, list(row.items())) for user, row in table.counts.items()],
        list(table.column_totals().items()),
    )


class TestFanOutOracle:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("window", [0.0, 45.0, PAPER_WINDOW, 3600.0])
    def test_relationship_matches_per_node_reference(self, seed, window):
        tests, systems, pairs = hand_built_records(seed)
        for store in both_backends(tests, systems):
            expected = table_layout(reference_table(store, pairs, window))
            assert expected[0], "the fixture must produce unmasked failures"
            assert table_layout(build_relationship_table(store, pairs, window)) == expected

    @pytest.mark.parametrize("seed", range(6))
    def test_summary_matches_reference_and_wrappers(self, seed):
        tests, systems, pairs = hand_built_records(seed)
        renders = []
        for store in both_backends(tests, systems):
            summary = summarize_repository(store, pairs, duration=12_000.0)
            assert table_layout(summary.relationship) == table_layout(
                reference_table(store, pairs)
            )
            records = list(store.iter_records(kind="test"))
            entries = list(store.iter_records(kind="system"))
            assert summary.classification == classification_report(records, entries)
            reference_sira = build_sira_table(records)
            assert summary.sira.counts == reference_sira.counts
            assert summary.sira.unrecovered == reference_sira.unrecovered
            assert summary.split == workload_split(records)
            assert summary.by_application == packet_loss_by_application(records)
            assert summary.connection_age == packet_loss_by_connection_age(records)
            assert summary.trend == campaign_trend(records, 12_000.0)
            renders.append(summary.render())
        assert renders[0] == renders[1]

    def test_masked_reports_never_reach_the_tuples(self):
        tests, systems, pairs = hand_built_records(0)
        unmasked = [r for r in tests if not r.masked]
        assert len(unmasked) < len(tests)
        for full, filtered in zip(both_backends(tests, systems),
                                  both_backends(unmasked, systems)):
            assert table_layout(build_relationship_table(full, pairs)) == table_layout(
                build_relationship_table(filtered, pairs)
            )
