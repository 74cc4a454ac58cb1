"""Oracle tests for the explicit record codec.

``TestLogRecord``/``SystemLogRecord``/``RecoveryAttempt.to_dict`` are
hand-written dict literals and ``from_dict`` has an exact-key fast
path.  The oracle here is the reflective encoding they replaced,
:func:`dataclasses.asdict` with ``recovery`` as a list: the explicit
codec must produce the same keys in the same order and the same JSON
bytes, so JSONL repositories are unchanged.  Shard payloads and cache
entries carry rows; their oracle is the same ``asdict`` encoding laid
out in column order.

The record strategy draws a value for *every* dataclass field (by its
annotation), so a field added to a record and missed in ``to_dict``,
``from_dict``, ``_test_row`` or ``_test_record`` fails here.
"""

import dataclasses
import hashlib
import json
from sys import intern

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import api
from repro.collection.records import RecoveryAttempt, SystemLogRecord, TestLogRecord
from repro.collection.repository import CentralRepository
from repro.collection.store import (
    _SYSTEM_COLUMNS,
    _TEST_COLUMNS,
    SQLiteStore,
    _test_record,
    _test_row,
)
from repro.parallel.cache import CACHE_VERSION, ShardCache, shard_key

# -- the reference encoding ----------------------------------------------------


def reference_dict(record) -> dict:
    """The record as ``dataclasses.asdict`` encodes it, recovery as a list."""
    data = dataclasses.asdict(record)
    if "recovery" in data:
        data["recovery"] = list(data["recovery"])
    return data


def reference_row(record) -> list:
    """The record's row from the reference encoding: values in column
    order, flags as 0/1, attempts as compact JSON."""
    data = reference_dict(record)
    if isinstance(record, SystemLogRecord):
        data["testbed"] = record.node.partition(":")[0]
        return [data[column] for column in _SYSTEM_COLUMNS]
    for flag in ("scan_flag", "sdp_flag", "masked"):
        data[flag] = int(data[flag])
    data["recovery"] = json.dumps(data["recovery"], separators=(",", ":"))
    return [data[column] for column in _TEST_COLUMNS]


def reference_repository_payload(repository: CentralRepository) -> dict:
    """:meth:`CentralRepository.to_payload`, re-encoded with the reference."""
    return {
        "test": [reference_row(r) for r in repository.iter_records(kind="test")],
        "system": [reference_row(r) for r in repository.iter_records(kind="system")],
    }


def canonical(payload: dict) -> str:
    """Key-order-insensitive serialisation, for comparing payloads."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


# -- strategies ----------------------------------------------------------------

#: Strings the simulator emits (interned by the records or by Python).
VOCABULARY = [
    "random:Verde", "realistic:Ipaq H3870", "random", "realistic", "web",
    "p2p", "connect", "sdp_search", "kernel", "hcid", "error", "warning",
    "DH5", "bt_stack_reset", "bluetest: pan connection cannot be created",
]


@st.composite
def strings(draw) -> str:
    """An interned vocabulary string or a freshly built (non-interned) one."""
    if draw(st.booleans()):
        return intern(draw(st.sampled_from(VOCABULARY)))
    text = draw(st.text(max_size=24))
    # Joining characters yields a new object even for an existing text.
    return "".join(list(text))


finite = st.floats(allow_nan=False, allow_infinity=False)

#: Values for a field, by its annotation.  A field whose annotation is
#: not listed raises KeyError: extend the map, and the codec with it.
FIELD_VALUES = {
    "float": finite,
    "int": st.integers(min_value=-(2**53), max_value=2**53),
    "bool": st.booleans(),
    "str": strings(),
    "Optional[str]": st.none() | strings(),
}


def records_of(cls, **overrides):
    return st.builds(
        cls,
        **{
            f.name: overrides[f.name] if f.name in overrides else FIELD_VALUES[f.type]
            for f in dataclasses.fields(cls)
        },
    )


attempts = records_of(RecoveryAttempt)
system_records = records_of(SystemLogRecord)
test_records = records_of(
    TestLogRecord,
    recovery=st.lists(attempts, max_size=4).map(tuple),
)
any_record = st.one_of(attempts, system_records, test_records)

# -- the codec against the reference --------------------------------------------


class TestAgainstReference:
    @given(any_record)
    @settings(max_examples=300)
    def test_to_dict_matches_asdict(self, record):
        encoded = record.to_dict()
        reference = reference_dict(record)
        assert encoded == reference
        assert list(encoded) == list(reference)
        assert json.dumps(encoded) == json.dumps(reference)
        assert json.dumps(encoded, sort_keys=True, separators=(",", ":")) == json.dumps(
            reference, sort_keys=True, separators=(",", ":")
        )

    @given(any_record)
    @settings(max_examples=300)
    def test_from_dict_inverts_to_dict(self, record):
        assert type(record).from_dict(record.to_dict()) == record

    def test_from_dict_leaves_its_argument_alone(self):
        record = TestLogRecord(
            1.0, "random:Verde", "random", "web", "m", "connect",
            recovery=(RecoveryAttempt("bt_stack_reset", True, 2.0),),
        )
        for data in (record.to_dict(), {"time": 1.0, "node": "n", "testbed": "random",
                                        "workload": "web", "message": "m",
                                        "phase": "connect", "extra": 1}):
            before = json.dumps(data)
            TestLogRecord.from_dict(data)
            assert json.dumps(data) == before

    def test_missing_keys_take_defaults(self):
        record = TestLogRecord.from_dict(
            {"time": 2.0, "node": "n", "testbed": "random", "workload": "web",
             "message": "m", "phase": "connect"}
        )
        assert record == TestLogRecord(2.0, "n", "random", "web", "m", "connect")


#: Position of the ``recovery`` column in a test row.
RECOVERY = _TEST_COLUMNS.index("recovery")


class TestStoreRow:
    def test_row_columns_are_the_record_fields(self):
        record = TestLogRecord(0.0, "n", "random", "web", "m", "connect")
        assert list(_TEST_COLUMNS) == [f.name for f in dataclasses.fields(TestLogRecord)]
        assert len(_test_row(record)) == len(_TEST_COLUMNS)

    @given(st.lists(test_records, max_size=8))
    @settings(max_examples=100, deadline=None)
    def test_row_round_trips_through_sqlite(self, records):
        with SQLiteStore() as store:
            store.ingest_test(records)
            stored = list(store.iter_records(kind="test"))
        assert stored == sorted(records, key=lambda r: r.time)

    @given(test_records)
    @settings(max_examples=100)
    def test_recovery_column_is_compact_json(self, record):
        expected = json.dumps(
            [reference_dict(a) for a in record.recovery], separators=(",", ":")
        )
        assert _test_row(record)[RECOVERY] == expected


# -- unknown keys: dropped at every level ----------------------------------------

ATTEMPT_WITH_EXTRA = {"action": "bt_stack_reset", "succeeded": True, "duration": 1.5,
                      "operator": "added-by-a-newer-version"}
RECORD = TestLogRecord(
    3.0, "random:Verde", "random", "web", "bluetest: nap service not found",
    "sdp_search", recovery=(RecoveryAttempt("bt_stack_reset", True, 1.5),),
)


class TestUnknownKeys:
    def test_attempt_from_dict_drops_unknown_keys(self):
        assert RecoveryAttempt.from_dict(ATTEMPT_WITH_EXTRA) == RECORD.recovery[0]

    def test_record_from_dict_drops_unknown_attempt_keys(self):
        data = dict(RECORD.to_dict(), recovery=[ATTEMPT_WITH_EXTRA], extra=1)
        assert TestLogRecord.from_dict(data) == RECORD

    def test_repository_payload_and_open_drop_unknown_attempt_keys(self, tmp_path):
        data = dict(RECORD.to_dict(), recovery=[ATTEMPT_WITH_EXTRA])
        repository = CentralRepository()
        repository.ingest_test([TestLogRecord.from_dict(data)])
        payload = repository.to_payload()
        assert payload["test"] == [_test_row(RECORD)]
        restored = CentralRepository.from_payload(payload)
        assert list(restored.iter_records(kind="test")) == [RECORD]
        tmp_path.joinpath("test_records.jsonl").write_text(json.dumps(data) + "\n")
        opened = CentralRepository.open(tmp_path)
        assert list(opened.iter_records(kind="test")) == [RECORD]

    def test_store_row_drops_unknown_attempt_keys(self):
        row = list(_test_row(RECORD))
        row[RECOVERY] = json.dumps([ATTEMPT_WITH_EXTRA])
        assert _test_record(tuple(row)) == RECORD


# -- shard payloads and cache entries keep their bytes -----------------------------


@pytest.mark.parametrize("fidelity", ["bit", "batch"])
def test_shard_payload_matches_reference_and_cache_serves_it(fidelity, tmp_path):
    result = api.sweep(
        2, jobs=1, backend="serial", duration=3600.0, seed=35651, fidelity=fidelity
    )
    assert len(result.shards) == 2
    for shard in result.shards:
        payload = shard.to_payload()
        reference = dict(
            payload, repository=reference_repository_payload(shard.repository())
        )
        assert payload["repository"]["test"] or payload["repository"]["system"]
        assert canonical(payload) == canonical(reference)

        # An entry written with the reference payload (as an asdict-era
        # build would frame it today) is a hit, and re-storing it writes
        # the same bytes.
        written = ShardCache(tmp_path / "reference")
        path = written.entry_path(shard_key("sweep", shard.seed))
        path.parent.mkdir(parents=True, exist_ok=True)
        body = json.dumps(reference, separators=(",", ":"))
        header = json.dumps({
            "version": CACHE_VERSION,
            "fingerprint": "sweep",
            "seed": shard.seed,
            "sha256": hashlib.sha256(body.encode("utf-8")).hexdigest(),
        }, separators=(",", ":"))
        path.write_text(f"{header}\n{body}\n", encoding="utf-8")
        served = written.get("sweep", shard.seed)
        assert served is not None
        assert served.to_payload() == reference
        rewritten = ShardCache(tmp_path / "rewritten").put("sweep", shard.seed, served)
        assert rewritten.read_bytes() == path.read_bytes()


def test_decoded_payload_shares_its_text():
    from repro.parallel.shard import ShardResult

    shard = api.sweep(1, jobs=1, backend="serial", duration=3600.0, seed=35651).shards[0]
    text = json.dumps(shard.to_payload())
    decoded = ShardResult.from_payload(json.loads(text))
    assert decoded.to_payload() == json.loads(text)
    for kind, columns in (("test", _TEST_COLUMNS), ("system", _SYSTEM_COLUMNS)):
        rows = decoded.repository_payload[kind]
        assert rows
        for index, column in enumerate(columns):
            cells = [row[index] for row in rows]
            if isinstance(cells[0], str):
                # One object per distinct text, however many rows hold it.
                assert len({id(cell) for cell in cells}) == len(set(cells)), column
