"""Tests for the whole-program analysis suite (``repro-bt lint --deep``).

Covers the shared project graph (import-alias and call resolution), the
interprocedural sim-domain taint pass (DET010), RNG stream-lineage
analysis (DET011/DET012), wire-contract drift detection
(WIRE001-WIRE003), the ``--select`` vocabulary error, and the self-check that the shipped tree
is deep-lint clean.

Fixtures are synthesized module trees under ``tmp_path/src/repro/...``:
:func:`repro.analysis.config.module_for_path` resolves against the
rightmost ``repro`` path component, so the default contracts and scopes
apply to them exactly as to the real tree.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import pytest

from repro.analysis import (
    build_graph,
    deep_rule_ids,
    lint_paths,
    render_json,
    rule_ids,
)
from repro.analysis.cli import main as lint_main
from repro.analysis.config import DEFAULT_CONFIG
from repro.analysis.engine import (
    UNUSED_SUPPRESSION_RULE,
    iter_python_files,
    lint_source,
)
from repro.analysis.findings import Finding
from repro.cli import main as repro_bt_main

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"


def make_tree(tmp_path: Path, files: Dict[str, str]) -> Path:
    """Write ``files`` (paths relative to ``src/``) under a tmp root."""
    root = tmp_path / "src"
    for rel, source in files.items():
        target = root / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(source, encoding="utf-8")
    return root


def deep_lint(
    tmp_path: Path,
    files: Dict[str, str],
    select: Optional[Sequence[str]] = None,
) -> List[Finding]:
    root = make_tree(tmp_path, files)
    return lint_paths([root], select=select, deep=True).findings


def deep_rules_fired(
    tmp_path: Path, files: Dict[str, str]
) -> Dict[str, List[str]]:
    findings = deep_lint(tmp_path, files)
    fired: Dict[str, List[str]] = {}
    for finding in findings:
        fired.setdefault(finding.rule, []).append(finding.message)
    return fired


# ---------------------------------------------------------------------------
# the project graph


def test_graph_resolves_cross_module_calls(tmp_path):
    root = make_tree(
        tmp_path,
        {
            "repro/sim/helper.py": "def stamp():\n    return 0\n",
            "repro/sim/user.py": (
                "from repro.sim.helper import stamp\n"
                "def step():\n    return stamp()\n"
            ),
        },
    )
    graph = build_graph([str(f) for f in iter_python_files([root])])
    callers = graph.callers.get("repro.sim.helper.stamp", [])
    assert [caller for caller, _ in callers] == ["repro.sim.user.step"]


def test_graph_resolves_relative_imports(tmp_path):
    root = make_tree(
        tmp_path,
        {
            "repro/sim/__init__.py": "",
            "repro/sim/helper.py": "def stamp():\n    return 0\n",
            "repro/sim/user.py": (
                "from .helper import stamp\n"
                "def step():\n    return stamp()\n"
            ),
        },
    )
    graph = build_graph([str(f) for f in iter_python_files([root])])
    callers = graph.callers.get("repro.sim.helper.stamp", [])
    assert [caller for caller, _ in callers] == ["repro.sim.user.step"]


def test_graph_ambiguous_method_stays_unresolved(tmp_path):
    root = make_tree(
        tmp_path,
        {
            "repro/sim/a.py": "class A:\n    def emit(self):\n        return 1\n",
            "repro/sim/b.py": "class B:\n    def emit(self):\n        return 2\n",
            "repro/sim/c.py": "def go(obj):\n    return obj.emit()\n",
        },
    )
    graph = build_graph([str(f) for f in iter_python_files([root])])
    site = graph.functions["repro.sim.c.go"].calls[0]
    assert site.callee is None  # two candidates: guessing would mis-taint


def test_graph_unique_method_fallback_resolves(tmp_path):
    root = make_tree(
        tmp_path,
        {
            "repro/sim/a.py": "class A:\n    def tick(self):\n        return 1\n",
            "repro/sim/c.py": "def go(obj):\n    return obj.tick()\n",
        },
    )
    graph = build_graph([str(f) for f in iter_python_files([root])])
    site = graph.functions["repro.sim.c.go"].calls[0]
    assert site.callee == "repro.sim.a.A.tick"


# ---------------------------------------------------------------------------
# DET010: interprocedural sim-domain taint


def test_det010_wrapped_clock_chain_fires_with_call_chain(tmp_path):
    fired = deep_rules_fired(
        tmp_path,
        {
            "repro/sim/wrap.py": (
                "import time\n"
                "def stamp():\n    return time.time()\n"
                "def step():\n    return stamp() + 1\n"
            ),
        },
    )
    messages = fired["DET010"]
    assert len(messages) == 1  # the chain, not the direct read (DET002's)
    assert "repro.sim.wrap.step -> repro.sim.wrap.stamp -> time.time()" in messages[0]


def test_det010_cross_module_chain_fires(tmp_path):
    fired = deep_rules_fired(
        tmp_path,
        {
            "repro/obs/util.py": (
                "import time\n"
                "def stamp():\n    return time.time()\n"
            ),
            "repro/sim/step.py": (
                "from repro.obs.util import stamp\n"
                "def step():\n    return stamp()\n"
            ),
        },
    )
    assert "repro.sim.step.step -> repro.obs.util.stamp -> time.time()" in (
        fired["DET010"][0]
    )


def test_det010_direct_entropy_read_fires(tmp_path):
    fired = deep_rules_fired(
        tmp_path,
        {"repro/sim/ent.py": "import os\ndef draw():\n    return os.urandom(8)\n"},
    )
    assert any("os.urandom" in msg for msg in fired["DET010"])


def test_det010_clean_outside_sim_domain(tmp_path):
    fired = deep_rules_fired(
        tmp_path,
        {
            "repro/obs/util.py": (
                "import time\n"
                "def stamp():\n    return time.time()\n"
                "def profile():\n    return stamp()\n"
            ),
        },
    )
    assert "DET010" not in fired  # obs is outside the sim domain


def test_det010_allowance_sanctions_chain_and_is_used(tmp_path):
    findings = deep_lint(
        tmp_path,
        {
            "repro/sim/wrap.py": (
                "import time\n"
                "def stamp():\n"
                "    return time.time()  # repro: allow[DET010,DET002] fenced\n"
                "def step():\n    return stamp() + 1\n"
            ),
        },
    )
    assert not [f for f in findings if f.rule == "DET010"]
    # the sanctioning allowance is load-bearing, not LNT001
    assert not [f for f in findings if f.rule == UNUSED_SUPPRESSION_RULE]


def test_det010_import_line_allowance_sanctions_source(tmp_path):
    """The journal idiom: the allowance rides the binding import line."""
    findings = deep_lint(
        tmp_path,
        {
            "repro/sim/wrap.py": (
                "from time import time as _clk  # repro: allow[DET010] fenced\n"
                "def stamp():\n    return _clk()\n"
                "def step():\n    return stamp() + 1\n"
            ),
        },
        select=["DET010"],
    )
    assert findings == []


def test_det010_unused_allowance_reported_by_deep_stage(tmp_path):
    findings = deep_lint(
        tmp_path,
        {
            "repro/sim/wrap.py": (
                "def step():\n    return 1  # repro: allow[DET010] stale\n"
            ),
        },
    )
    lnt = [f for f in findings if f.rule == UNUSED_SUPPRESSION_RULE]
    assert len(lnt) == 1 and "DET010" in lnt[0].message


def test_det010_allowance_skipped_not_judged_without_deep(tmp_path):
    """A deep-rule allowance is never LNT001 in a per-file-only run."""
    findings = lint_source(
        "def step():\n    return 1  # repro: allow[DET010] pending\n",
        "src/repro/sim/fixture.py",
    )
    assert findings == []


# ---------------------------------------------------------------------------
# DET011/DET012: RNG stream lineage


def test_det011_duplicate_label_fires_with_derivation_site(tmp_path):
    fired = deep_rules_fired(
        tmp_path,
        {
            "repro/sim/streams.py": (
                "def setup(streams):\n"
                "    a = streams.stream('arrival')\n"
                "    b = streams.stream('arrival')\n"
                "    return a, b\n"
            ),
        },
    )
    message = fired["DET011"][0]
    assert "'arrival'" in message and "line 2" in message


def test_det011_dynamic_label_fires(tmp_path):
    fired = deep_rules_fired(
        tmp_path,
        {
            "repro/sim/streams.py": (
                "def setup(streams, name):\n"
                "    return streams.stream(name)\n"
            ),
        },
    )
    assert any("cannot be audited" in msg for msg in fired["DET011"])


def test_det011_templates_and_cross_module_duplicates_pass(tmp_path):
    fired = deep_rules_fired(
        tmp_path,
        {
            "repro/sim/a.py": (
                "def setup(streams, node):\n"
                "    return streams.stream(f'analyzer/{node}')\n"
            ),
            "repro/sim/b.py": (
                "def setup(streams, node):\n"
                "    return streams.stream(f'analyzer/{node}')\n"
            ),
            "repro/sim/c.py": (
                "def setup(streams):\n    return streams.stream('syslog')\n"
            ),
            "repro/sim/d.py": (
                "def setup(streams):\n    return streams.stream('syslog')\n"
            ),
        },
    )
    assert "DET011" not in fired


def test_det011_local_literal_anchored_variable_passes(tmp_path):
    """The ``seeds.py`` idiom: a local bound to anchored labels in both
    branches is auditable and must not flag."""
    fired = deep_rules_fired(
        tmp_path,
        {
            "repro/sim/seeds.py": (
                "from repro.sim.rng import derive_seed\n"
                "def shard_seed(root, index, stratum=0):\n"
                "    if stratum == 0:\n"
                "        label = f'sweep/shard/{index}'\n"
                "    else:\n"
                "        label = f'sweep/stratum/{stratum}/shard/{index}'\n"
                "    return derive_seed(root, label)\n"
            ),
        },
    )
    assert "DET011" not in fired


def test_det011_factory_module_is_exempt(tmp_path):
    fired = deep_rules_fired(
        tmp_path,
        {
            "repro/sim/rng.py": (
                "def derive(streams, label):\n"
                "    return streams.stream(label)\n"
            ),
        },
    )
    assert "DET011" not in fired


def test_det012_module_global_rng_fires(tmp_path):
    fired = deep_rules_fired(
        tmp_path,
        {
            "repro/sim/g.py": (
                "import random\n"
                "GLOBAL_RNG = random.Random(7)"
                "  # repro: allow[DET006] lineage fixture\n"
            ),
        },
    )
    assert "DET012" in fired


def test_det012_global_statement_escape_fires(tmp_path):
    fired = deep_rules_fired(
        tmp_path,
        {
            "repro/sim/g.py": (
                "from repro.sim.rng import RandomStreams\n"
                "_streams = None\n"
                "def install(seed):\n"
                "    global _streams\n"
                "    _streams = RandomStreams(seed)\n"
            ),
        },
    )
    assert "DET012" in fired


def test_det012_scoped_rng_clean(tmp_path):
    fired = deep_rules_fired(
        tmp_path,
        {
            "repro/sim/g.py": (
                "from repro.sim.rng import RandomStreams\n"
                "def run(seed):\n"
                "    streams = RandomStreams(seed)\n"
                "    return streams.stream('workload')\n"
            ),
        },
    )
    assert "DET012" not in fired


# ---------------------------------------------------------------------------
# WIRE001-WIRE003: wire-contract drift

DRIFTED_SHARD = (
    "PAYLOAD_VERSION = 4\n"
    "class ShardResult:\n"
    "    def to_payload(self):\n"
    "        return {\n"
    "            'version': PAYLOAD_VERSION,\n"
    "            'seed': self.seed,\n"
    "            'orphan_key': 1,\n"
    "        }\n"
    "    @classmethod\n"
    "    def from_payload(cls, payload):\n"
    "        if payload.get('version') != PAYLOAD_VERSION:\n"
    "            raise ValueError('skew')\n"
    "        return cls(payload['seed'], payload.get('phantom_key'))\n"
)


def test_wire001_key_drift_fires_both_directions(tmp_path):
    fired = deep_rules_fired(tmp_path, {"repro/parallel/shard.py": DRIFTED_SHARD})
    messages = "\n".join(fired["WIRE001"])
    assert "'orphan_key' is written by repro.parallel.shard.ShardResult.to_payload" in messages
    assert "never read by repro.parallel.shard.ShardResult.from_payload" in messages
    assert "'phantom_key' is read by repro.parallel.shard.ShardResult.from_payload" in messages
    assert "never written" in messages


def test_wire001_round_trip_clean(tmp_path):
    fired = deep_rules_fired(
        tmp_path,
        {
            "repro/parallel/shard.py": (
                "PAYLOAD_VERSION = 4\n"
                "class ShardResult:\n"
                "    def to_payload(self):\n"
                "        return {'version': PAYLOAD_VERSION, 'seed': self.seed}\n"
                "    @classmethod\n"
                "    def from_payload(cls, payload):\n"
                "        if payload.get('version') != PAYLOAD_VERSION:\n"
                "            raise ValueError('skew')\n"
                "        return cls(payload['seed'])\n"
            ),
        },
    )
    assert "WIRE001" not in fired and "WIRE003" not in fired


def test_wire001_missing_endpoint_skips_contract(tmp_path):
    fired = deep_rules_fired(
        tmp_path,
        {
            "repro/parallel/shard.py": (
                "class ShardResult:\n"
                "    def to_payload(self):\n"
                "        return {'seed': self.seed}\n"
            ),
        },
    )
    assert "WIRE001" not in fired  # no consumer in scope: nothing to judge


# WIRE001 on positional contracts: the shipped row codec and the fold
# sinks that read rows, one side edited.

STORE_MODULE = "repro/collection/store.py"
RECORDS_MODULE = "repro/collection/records.py"
RELATIONSHIP_MODULE = "repro/core/relationship.py"
ROW_MODULES = (STORE_MODULE, RECORDS_MODULE, RELATIONSHIP_MODULE)


def store_row_messages(tmp_path: Path, module: str = STORE_MODULE, old: str = "", new: str = "") -> List[str]:
    files = {path: (SRC / path).read_text(encoding="utf-8") for path in ROW_MODULES}
    if old:
        assert files[module].count(old) == 1, old
        files[module] = files[module].replace(old, new)
    return [finding.message for finding in deep_lint(tmp_path, files, select=["WIRE001"])]


def test_wire001_shipped_store_rows_clean(tmp_path):
    assert store_row_messages(tmp_path) == []


@pytest.mark.parametrize(
    ("module", "old", "new", "expected"),
    [
        (STORE_MODULE, " int(record.masked),\n", "\n",
         "the row written by repro.collection.store._test_row: column 'masked' is missing"),
        (STORE_MODULE, "time, node, _, facility, severity, message = row",
         "time, node, _, facility, message = row",
         "the row read by repro.collection.store._system_record: column 'severity' is missing"),
        (STORE_MODULE, '"message", "phase", "packet_type",', '"message", "packet_type",',
         "_SCHEMA: column 'phase' of table test_records is not in _TEST_COLUMNS"),
        (STORE_MODULE, "    recovery            TEXT NOT NULL\n",
         "    recovery            TEXT NOT NULL,\n    rssi REAL\n",
         "_SCHEMA: column 'rssi' of table test_records is not in _TEST_COLUMNS"),
        (STORE_MODULE, "packets_sent,\n        packets_expected, bool(scan_flag)",
         "packets_expected,\n        packets_sent, bool(scan_flag)",
         "_test_record: 'packets_expected' is passed as field 'packets_sent'"),
        (RECORDS_MODULE, "    masked: bool = False", "    masked: bool = False\n    rssi: float = 0.0",
         "_TEST_COLUMNS: field 'rssi' of TestLogRecord has no column"),
    ],
    ids=["producer", "consumer", "column-tuple", "schema", "record-call", "record-field"],
)
def test_wire001_store_row_drift_fires(tmp_path, module, old, new, expected):
    messages = store_row_messages(tmp_path, module, old, new)
    assert any(expected in message for message in messages), messages


@pytest.mark.parametrize(
    ("module", "old", "new", "expected"),
    [
        # The encoder CentralRepository.ingest_test (and the store's)
        # fills every repository, payload and store row with.
        (STORE_MODULE, "record.time, record.node, record.testbed,",
         "record.time, record.testbed, record.node,",
         "the row written by repro.collection.store._test_row: "
         "'testbed' stands where column 'node' belongs"),
        # A fold sink unpacking a system row with a column dropped.
        (RELATIONSHIP_MODULE, "time, node, _, _, _, message = row",
         "time, node, _, _, message = row",
         "the row read by repro.core.relationship.RelationshipMiner.add_system: "
         "column 'severity' is missing"),
        # The named positions every test-row sink indexes with.
        (STORE_MODULE, " PACKETS_EXPECTED, SCAN_FLAG, SDP_FLAG,",
         " PACKETS_EXPECTED, SDP_FLAG, SCAN_FLAG,",
         "the row positions repro.collection.store names: "
         "'sdp_flag' stands where column 'scan_flag' belongs"),
        (STORE_MODULE, " IDLE_BEFORE_CYCLE, MASKED, RECOVERY)", " IDLE_BEFORE_CYCLE, RECOVERY)",
         "the row positions repro.collection.store names: column 'masked' is missing"),
    ],
    ids=["repository-row-swap", "sink-unpacking", "positions-swap", "positions-drop"],
)
def test_wire001_row_readers_and_writers_drift_fires(tmp_path, module, old, new, expected):
    messages = store_row_messages(tmp_path, module, old, new)
    assert any(expected in message for message in messages), messages


def test_wire003_literal_version_stamp_fires(tmp_path):
    fired = deep_rules_fired(
        tmp_path,
        {
            "repro/parallel/shard.py": (
                "PAYLOAD_VERSION = 4\n"
                "class ShardResult:\n"
                "    def to_payload(self):\n"
                "        return {'version': 4, 'seed': self.seed}\n"
                "    @classmethod\n"
                "    def from_payload(cls, payload):\n"
                "        if payload.get('version') != PAYLOAD_VERSION:\n"
                "            raise ValueError('skew')\n"
                "        return cls(payload['seed'])\n"
            ),
        },
    )
    assert any("instead of PAYLOAD_VERSION" in msg for msg in fired["WIRE003"])


def test_wire003_missing_reader_branch_fires(tmp_path):
    fired = deep_rules_fired(
        tmp_path,
        {
            "repro/parallel/shard.py": (
                "PAYLOAD_VERSION = 4\n"
                "class ShardResult:\n"
                "    def to_payload(self):\n"
                "        return {'version': PAYLOAD_VERSION, 'seed': self.seed}\n"
                "    @classmethod\n"
                "    def from_payload(cls, payload):\n"
                "        return cls(payload['seed'], payload.get('version'))\n"
            ),
        },
    )
    assert any("no matching reader branch" in msg for msg in fired["WIRE003"])


JOURNAL_FIXTURE = (
    "JOURNAL_VERSION = 1\n"
    "SHARD_STARTED = 'shard_started'\n"
    "SHARD_DONE = 'shard_done'\n"
    "EVENT_SCHEMA = {\n"
    "    SHARD_STARTED: (frozenset({'seed', 'index'}), frozenset()),\n"
    "    SHARD_DONE: (frozenset({'seed'}), frozenset({'stats'})),\n"
    "}\n"
)


def test_wire002_undeclared_and_missing_fields_fire(tmp_path):
    fired = deep_rules_fired(
        tmp_path,
        {
            "repro/obs/journal.py": JOURNAL_FIXTURE,
            "repro/workload/gen.py": (
                "from repro.obs.journal import SHARD_STARTED, SHARD_DONE\n"
                "def narrate(writer, seed):\n"
                "    writer.emit(SHARD_STARTED, seed=seed)\n"
                "    writer.emit(SHARD_DONE, seed=seed, bogus=1)\n"
            ),
        },
    )
    messages = "\n".join(fired["WIRE002"])
    assert "shard_started emit is missing required field(s) index" in messages
    assert "undeclared field 'bogus'" in messages


def test_wire002_never_emitted_gated_on_orchestrator(tmp_path):
    files = {
        "repro/obs/journal.py": JOURNAL_FIXTURE,
        "repro/workload/gen.py": (
            "from repro.obs.journal import SHARD_STARTED\n"
            "def narrate(writer, seed):\n"
            "    writer.emit(SHARD_STARTED, seed=seed, index=0)\n"
        ),
    }
    # subtree run (no orchestrator): absence of an emit site proves nothing
    fired = deep_rules_fired(tmp_path / "subtree", dict(files))
    assert "WIRE002" not in fired
    # whole-tree run: shard_done is declared but never emitted anywhere
    files["repro/parallel/sweep.py"] = "def run():\n    return 0\n"
    fired = deep_rules_fired(tmp_path / "whole", files)
    assert any("'shard_done'" in msg and "never emitted" in msg for msg in fired["WIRE002"])


def test_wire002_star_kwargs_site_skips_missing_check(tmp_path):
    fired = deep_rules_fired(
        tmp_path,
        {
            "repro/obs/journal.py": JOURNAL_FIXTURE,
            "repro/workload/gen.py": (
                "from repro.obs.journal import SHARD_STARTED\n"
                "def narrate(writer, seed, **extra):\n"
                "    writer.emit(SHARD_STARTED, seed=seed, **extra)\n"
            ),
        },
    )
    assert "WIRE002" not in fired  # extra may carry the required 'index'


# ---------------------------------------------------------------------------
# selection, CLI surfaces, reports


def test_select_deep_rule_runs_pass_without_deep_flag(tmp_path):
    root = make_tree(
        tmp_path,
        {
            "repro/sim/streams.py": (
                "def setup(streams):\n"
                "    return streams.stream('a'), streams.stream('a')\n"
            ),
        },
    )
    result = lint_paths([root], select=["DET011"])
    assert {f.rule for f in result.findings} == {"DET011"}


def test_select_exact_restricts_deep_rules(tmp_path):
    root = make_tree(tmp_path, {"repro/parallel/shard.py": DRIFTED_SHARD})
    result = lint_paths([root], select=["WIRE003"], deep=True)
    assert {f.rule for f in result.findings} <= {"WIRE003"}


def test_select_unknown_rule_error_lists_vocabulary(tmp_path):
    with pytest.raises(ValueError) as excinfo:
        lint_paths([tmp_path], select=["NOPE123"])
    message = str(excinfo.value)
    assert "NOPE123" in message
    for rule in ("DET001", "DET010", "WIRE003"):
        assert rule in message


def test_cli_unknown_select_exits_2_listing_rules(tmp_path, capsys):
    target = tmp_path / "x.py"
    target.write_text("x = 1\n", encoding="utf-8")
    assert lint_main([str(target), "--select", "NOPE123"]) == 2
    out = capsys.readouterr().out
    assert "NOPE123" in out and "WIRE003" in out
    assert repro_bt_main(["lint", str(target), "--select", "NOPE123"]) == 2
    assert "valid rules" in capsys.readouterr().out


def test_cli_deep_flag_gates_whole_program_findings(tmp_path, capsys):
    root = make_tree(
        tmp_path,
        {
            "repro/sim/streams.py": (
                "def setup(streams):\n"
                "    return streams.stream('a'), streams.stream('a')\n"
            ),
        },
    )
    assert repro_bt_main(["lint", str(root)]) == 0  # per-file rules: clean
    capsys.readouterr()
    assert repro_bt_main(["lint", str(root), "--deep"]) == 1
    assert "DET011" in capsys.readouterr().out


def test_cli_list_rules_includes_deep_pack(capsys):
    assert lint_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule in deep_rule_ids():
        assert rule in out
    assert "LNT001" in out and "LNT002" in out


def test_json_report_round_trips_deep_findings(tmp_path):
    root = make_tree(tmp_path, {"repro/parallel/shard.py": DRIFTED_SHARD})
    payload = json.loads(render_json(lint_paths([root], deep=True)))
    assert payload["version"] == 1
    assert payload["ok"] is False
    rules = {f["rule"] for f in payload["findings"]}
    assert "WIRE001" in rules
    valid = set(rule_ids()) | set(deep_rule_ids()) | {"LNT001", "LNT002"}
    for finding in payload["findings"]:
        assert set(finding) == {"path", "line", "col", "rule", "message"}
        assert finding["rule"] in valid


def test_empty_target_set_is_clean(tmp_path):
    result = lint_paths([], deep=True)
    assert result.files == 0 and result.ok
    empty_dir = tmp_path / "empty"
    empty_dir.mkdir()
    result = lint_paths([empty_dir], deep=True)
    assert result.files == 0 and result.ok and result.exit_code() == 0


def test_cli_nonexistent_path_exits_2_with_deep(tmp_path, capsys):
    assert lint_main([str(tmp_path / "missing"), "--deep"]) == 2
    assert "no such path" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# self-check: the shipped tree passes its own deep suite


def test_shipped_tree_is_deep_lint_clean():
    """Acceptance: `repro-bt lint --deep src` exits 0 on the shipped tree."""
    result = lint_paths([SRC], deep=True)
    assert result.files > 80
    assert result.findings == [], "\n".join(f.format() for f in result.findings)


def test_shipped_tree_deep_rules_individually_clean():
    for rule in deep_rule_ids():
        result = lint_paths([SRC], select=[rule])
        assert result.findings == [], (
            rule + ":\n" + "\n".join(f.format() for f in result.findings)
        )


def test_journal_envelope_suppression_survives_deep_taint():
    """The single sanctioned clock read must not taint sim-scoped
    callers of ``JournalWriter.emit`` — the allowance on the binding
    import line sanctions the source."""
    result = lint_paths([SRC], select=["DET010"])
    assert result.findings == []


def test_default_contracts_all_present_in_shipped_tree():
    """The WIRE pass must actually be exercising the shipped tree: every
    default contract endpoint resolves in the project graph."""
    from repro.analysis.contracts import DEFAULT_CONTRACTS, DEFAULT_VERSION_SPECS

    graph = build_graph(
        [str(f) for f in iter_python_files([SRC])], DEFAULT_CONFIG
    )
    for contract in DEFAULT_CONTRACTS:
        assert contract.producer in graph.functions, contract.name
        assert contract.consumer in graph.functions, contract.name
    for spec in DEFAULT_VERSION_SPECS:
        assert spec.producer in graph.functions, spec.name
        assert spec.consumer in graph.functions, spec.name
