"""WIRE001-WIRE003: wire-contract drift detection.

The sweep pipeline crosses four serialisation boundaries — shard
checkpoint payloads, worker stdin/stdout tasks and replies, cache
entries, and the run journal — and every one of them is a dict whose
producer and consumer live in different functions, sometimes different
processes.  Nothing ties the two sides together at runtime except the
keys happening to match: add a field to ``to_payload`` and forget
``from_payload`` and the value silently vanishes on restore; bump a
``*_VERSION`` constant without touching the reader and every old
artifact is either mis-parsed or rejected wholesale.

This pass checks the boundaries statically, from the shared project
graph:

* **WIRE001 — key drift.**  For each declared producer/consumer pair,
  extract the keys the producer writes (dict literals that are returned
  or passed to a serialiser — ``json.dumps``/``json.dump``/
  ``atomic_write_json`` — including nested dicts) and the keys the
  consumer reads (constant subscripts and ``.get("k")`` calls), and
  report keys written but never read and read but never written.
  Consumer functions are expected to be focused deserialisers; reads of
  unrelated dicts inside them would count, which is exactly why the
  wire format lives in dedicated ``from_payload``-style functions.
  A *positional* contract (the rows every record travels as, which
  have no keys) names a module-level column tuple instead, and each of
  the following must follow it: the row the producer returns or yields,
  element by element (``record.k``, ``data["k"]``, or a one-argument
  call of either, names column ``k``); the names the consumer and any
  further *readers* unpack the row into (``_`` skips a column), and
  each module's ``(A, B, ...) = range(len(<column tuple>))`` row
  positions, case aside; the
  table's columns in the module's ``_SCHEMA`` (the ``INTEGER PRIMARY
  KEY`` rowid aside); and the record class's fields, which the
  consumer's record call must also pass in field order.  Columns the
  contract declares *derived* (an index column computed from another
  field) are exempt from the record checks and from the position
  checks at their own place.

* **WIRE002 — journal schema drift.**  Every ``*.emit(EVENT, ...)``
  call site whose event argument resolves into
  :mod:`repro.obs.journal`'s constants is checked against the
  statically-extracted ``EVENT_SCHEMA``: keyword fields must be
  declared (required or optional) for that event, required fields must
  all be passed (skipped when the site forwards ``**fields``), and —
  when the graph contains the sweep orchestrator, i.e. this is a
  whole-tree run — every declared event type must be emitted somewhere.

* **WIRE003 — version discipline.**  Each wire format's producer must
  stamp its version key from the named constant (not an inline
  literal), and its consumer must compare that key against the same
  constant — so bumping the constant provably reaches both sides.

Contracts with a producer or consumer missing from the graph are
skipped: linting a subtree must not fabricate drift findings.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple, Union

from .config import LintConfig
from .findings import Finding
from .graph import CallSite, FunctionInfo, ModuleGraph, ProjectGraph
from .registry import DeepPass, register_deep
from .rules import dotted_name

KEY_DRIFT_RULE = "WIRE001"
JOURNAL_SCHEMA_RULE = "WIRE002"
VERSION_RULE = "WIRE003"

#: Callables (last path component) whose dict arguments are wire writes.
SERIALIZERS = frozenset({"dump", "dumps", "atomic_write_json"})

#: Module holding the journal event vocabulary and schema.
JOURNAL_MODULE = "repro.obs.journal"

#: Module whose presence marks a whole-tree run (gates the
#: declared-but-never-emitted check).
ORCHESTRATOR_MODULE = "repro.parallel.sweep"

#: Journal envelope/base fields never declared per event.
_JOURNAL_BASE = frozenset({"seed", "wall"})

#: Module-level string holding a store module's ``CREATE TABLE`` DDL.
SCHEMA_CONSTANT = "_SCHEMA"


@dataclass(frozen=True)
class ContractSpec:
    """One producer/consumer dict boundary checked by WIRE001."""

    name: str
    #: Qualified name of the function writing the dict.
    producer: str
    #: Qualified name of the function reading it back.
    consumer: str
    #: Positional contracts only: the qualified name of the module-level
    #: column tuple both ends follow ...
    columns: Optional[str] = None
    #: ... the ``_SCHEMA`` table it lists ...
    table: Optional[str] = None
    #: ... the record class whose fields it carries ...
    record: Optional[str] = None
    #: ... the columns that are no record field ...
    derived: Tuple[str, ...] = ()
    #: ... and further functions that unpack the row (fold sinks).
    readers: Tuple[str, ...] = ()


@dataclass(frozen=True)
class VersionSpec:
    """One versioned wire format checked by WIRE003."""

    name: str
    #: The version constant's bare name (``PAYLOAD_VERSION``).
    constant: str
    #: The dict key carrying the version (``version``, ``v``).
    key: str
    producer: str
    consumer: str


DEFAULT_CONTRACTS: Tuple[ContractSpec, ...] = (
    ContractSpec(
        name="shard-payload",
        producer="repro.parallel.shard.ShardResult.to_payload",
        consumer="repro.parallel.shard.ShardResult.from_payload",
    ),
    ContractSpec(
        name="campaign-spec",
        producer="repro.parallel.worker.spec_to_payload",
        consumer="repro.parallel.worker.spec_from_payload",
    ),
    ContractSpec(
        name="worker-task",
        producer="repro.parallel.backends.SubprocessBackend._attempt",
        consumer="repro.parallel.worker.main",
    ),
    ContractSpec(
        name="worker-reply",
        producer="repro.parallel.worker.main",
        consumer="repro.parallel.backends.SubprocessBackend._attempt",
    ),
    ContractSpec(
        name="cache-entry",
        producer="repro.parallel.cache.ShardCache.put",
        consumer="repro.parallel.cache.ShardCache.get",
    ),
    # The record layout of the shard payload, cache entry, worker reply,
    # CentralRepository, SQLite store and Table 1-4 fold alike.
    ContractSpec(
        name="test-row",
        producer="repro.collection.store._test_row",
        consumer="repro.collection.store._test_record",
        columns="repro.collection.store._TEST_COLUMNS",
        table="test_records",
        record="repro.collection.records.TestLogRecord",
    ),
    ContractSpec(
        name="system-row",
        producer="repro.collection.store._system_row",
        consumer="repro.collection.store._system_record",
        columns="repro.collection.store._SYSTEM_COLUMNS",
        table="system_records",
        record="repro.collection.records.SystemLogRecord",
        derived=("testbed",),
        readers=(
            "repro.core.classification.MessageClassifier.system",
            "repro.core.relationship.RelationshipMiner.add_system",
        ),
    ),
    ContractSpec(
        name="store-meta",
        producer="repro.collection.store._meta_document",
        consumer="repro.collection.store._check_meta",
    ),
)

DEFAULT_VERSION_SPECS: Tuple[VersionSpec, ...] = (
    VersionSpec(
        name="shard-payload",
        constant="PAYLOAD_VERSION",
        key="version",
        producer="repro.parallel.shard.ShardResult.to_payload",
        consumer="repro.parallel.shard.ShardResult.from_payload",
    ),
    VersionSpec(
        name="worker-task",
        constant="TASK_VERSION",
        key="version",
        producer="repro.parallel.backends.SubprocessBackend._attempt",
        consumer="repro.parallel.worker.main",
    ),
    VersionSpec(
        name="worker-reply",
        constant="TASK_VERSION",
        key="version",
        producer="repro.parallel.worker.main",
        consumer="repro.parallel.backends.SubprocessBackend._attempt",
    ),
    VersionSpec(
        name="cache-entry",
        constant="CACHE_VERSION",
        key="version",
        producer="repro.parallel.cache.ShardCache.put",
        consumer="repro.parallel.cache.ShardCache.get",
    ),
    VersionSpec(
        name="journal",
        constant="JOURNAL_VERSION",
        key="v",
        producer="repro.obs.journal.JournalWriter.emit",
        consumer="repro.obs.journal.validate_events",
    ),
    VersionSpec(
        name="store-meta",
        constant="STORE_VERSION",
        key="version",
        producer="repro.collection.store._meta_document",
        consumer="repro.collection.store._check_meta",
    ),
)


#: key -> first (line, col) where it was written/read.
_KeySites = Dict[str, Tuple[int, int]]


def _collect_dict_keys(node: ast.Dict, keys: _KeySites) -> bool:
    """Record constant keys (recursing into nested dicts); True if any
    key is dynamic (``**merge`` or a computed key)."""
    dynamic = False
    for key, value in zip(node.keys, node.values):
        if key is None or not (
            isinstance(key, ast.Constant) and isinstance(key.value, str)
        ):
            dynamic = True
        else:
            keys.setdefault(key.value, (key.lineno, key.col_offset + 1))
        if isinstance(value, ast.Dict):
            dynamic = _collect_dict_keys(value, keys) or dynamic
    return dynamic


def _producer_keys(fn_node: ast.AST) -> Tuple[_KeySites, bool]:
    """Keys written by a producer: returned dicts + serialiser-arg dicts."""
    keys: _KeySites = {}
    dynamic = False
    for node in ast.walk(fn_node):
        literals: List[ast.Dict] = []
        if isinstance(node, ast.Return) and isinstance(node.value, ast.Dict):
            literals.append(node.value)
        elif isinstance(node, ast.Call):
            written = dotted_name(node.func)
            if written is not None and written.rsplit(".", 1)[-1] in SERIALIZERS:
                literals.extend(
                    arg for arg in node.args if isinstance(arg, ast.Dict)
                )
        for literal in literals:
            dynamic = _collect_dict_keys(literal, keys) or dynamic
    return keys, dynamic


def _consumer_reads(fn_node: ast.AST) -> _KeySites:
    """Keys a consumer reads: constant subscripts and ``.get("k")``."""
    reads: _KeySites = {}
    for node in ast.walk(fn_node):
        if (
            isinstance(node, ast.Subscript)
            and isinstance(node.slice, ast.Constant)
            and isinstance(node.slice.value, str)
        ):
            reads.setdefault(
                node.slice.value, (node.lineno, node.col_offset + 1)
            )
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "get"
            and node.args
            and isinstance(node.args[0], ast.Constant)
            and isinstance(node.args[0].value, str)
        ):
            reads.setdefault(
                node.args[0].value, (node.lineno, node.col_offset + 1)
            )
    return reads


#: One element of a positional row: (column it names or None, line, col).
_Slot = Tuple[Optional[str], int, int]

#: (line, col, message) of one positional drift.
_Problem = Tuple[int, int, str]


def _slot_name(node: ast.expr) -> Optional[str]:
    """The column an element of a positional row names, if it names one.

    ``data["k"]``, ``record.k`` and a bare ``k`` or ``K`` name ``k``; a
    one-argument call (``int(record.k)``, ``bool(k)``) names what its
    argument names.
    """
    if (
        isinstance(node, ast.Subscript)
        and isinstance(node.slice, ast.Constant)
        and isinstance(node.slice.value, str)
    ):
        return node.slice.value
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id.lower()
    if isinstance(node, ast.Call) and len(node.args) == 1 and not node.keywords:
        return _slot_name(node.args[0])
    return None


def _slot(node: ast.expr) -> _Slot:
    return _slot_name(node), node.lineno, node.col_offset + 1


def _produced_row(fn_node: ast.AST) -> Optional[Union[ast.Tuple, ast.List]]:
    """The tuple or list literal a positional producer returns or yields."""
    for node in ast.walk(fn_node):
        if isinstance(node, (ast.Return, ast.Yield)) and isinstance(
            node.value, (ast.Tuple, ast.List)
        ):
            return node.value
    return None


def _unpacked_row(fn_node: ast.AST) -> Optional[ast.Tuple]:
    """The tuple target a positional consumer unpacks its row into."""
    for node in ast.walk(fn_node):
        if (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Tuple)
        ):
            return node.targets[0]
    return None


def _position_names(tree: ast.Module, tuple_name: str) -> List[ast.Tuple]:
    """Module-level ``(A, B, ...) = range(len(tuple_name))`` targets: the
    row positions readers index a row by (``row[MASKED]``)."""
    assigns = [node for node in tree.body if isinstance(node, ast.Assign)]
    return [
        target
        for node in assigns
        for target in node.targets[:1]
        if isinstance(target, ast.Tuple)
        and isinstance(node.value, ast.Call)
        and dotted_name(node.value.func) == "range"
        and any(isinstance(n, ast.Name) and n.id == tuple_name for n in ast.walk(node.value))
    ]


def _called(fn_node: ast.AST, name: str) -> Optional[ast.Call]:
    """The first call of ``name`` (last dotted component) in a function."""
    for node in ast.walk(fn_node):
        if isinstance(node, ast.Call):
            called = dotted_name(node.func)
            if called is not None and called.rsplit(".", 1)[-1] == name:
                return node
    return None


def _module_literal(tree: ast.Module, name: str) -> Tuple[object, int]:
    """The literal value of a module-level ``name = ...`` and its line.

    ``(None, 1)`` when there is no such assignment or its value is not
    a literal.
    """
    for node in tree.body:
        if (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and node.targets[0].id == name
        ):
            try:
                return ast.literal_eval(node.value), node.lineno
            except ValueError:
                break
    return None, 1


def _table_columns(ddl: str, table: str) -> Optional[List[str]]:
    """Columns of ``CREATE TABLE table (...)`` in ``ddl``, rowid alias aside.

    Column definitions are split on commas, so the DDL must not use
    parenthesised type arguments (``DECIMAL(10, 2)``).
    """
    match = re.search(
        rf"CREATE TABLE\s+{re.escape(table)}\s*\((.*?)\)\s*;", ddl, re.S
    )
    if match is None:
        return None
    return [
        definition.split()[0]
        for definition in match.group(1).split(",")
        if definition.strip() and "PRIMARY KEY" not in definition.upper()
    ]


def _class_fields(tree: ast.Module, name: str) -> Optional[List[str]]:
    """Annotated fields of a module-level class, in declaration order."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and node.name == name:
            return [
                statement.target.id
                for statement in node.body
                if isinstance(statement, ast.AnnAssign)
                and isinstance(statement.target, ast.Name)
            ]
    return None


def _row_drift(
    row: Union[ast.Tuple, ast.List], columns: Sequence[str], derived: Sequence[str]
) -> List[_Problem]:
    """Elements of a positional row out of step with its column tuple."""
    slots = list(map(_slot, row.elts))
    here = (row.lineno, row.col_offset + 1)
    if len(slots) != len(columns):
        named = {name for name, _, _ in slots}
        problems: List[_Problem] = [
            (*here, f"column {column!r} is missing")
            for column in columns
            if column not in named and column not in derived
        ]
        problems.extend(
            (line, col, f"{name!r} is not a column")
            for name, line, col in slots
            if name not in (None, "_") and name not in columns
        )
        return problems or [
            (*here, f"{len(slots)} values for {len(columns)} columns")
        ]
    return [
        (line, col, f"{name!r} stands where column {column!r} belongs")
        for (name, line, col), column in zip(slots, columns)
        if column not in derived and name not in (None, "_", column)
    ]


def _call_drift(call: ast.Call, fields: Sequence[str]) -> List[_Problem]:
    """Arguments of a record call that do not pass each field its column."""
    passed: Dict[str, _Slot] = dict(zip(fields, map(_slot, call.args)))
    passed.update(
        (keyword.arg, _slot(keyword.value))
        for keyword in call.keywords
        if keyword.arg is not None
    )
    here = (call.lineno, call.col_offset + 1)
    problems: List[_Problem] = []
    if len(call.args) > len(fields):
        problems.append((*here, f"{len(call.args)} arguments for {len(fields)} fields"))
    for field in fields:
        if field not in passed:
            problems.append((*here, f"field {field!r} is never passed"))
            continue
        name, line, col = passed[field]
        if name is not None and name != field:
            problems.append((line, col, f"{name!r} is passed as field {field!r}"))
    return problems


def _string_constants(tree: ast.Module) -> Dict[str, str]:
    """Module-level ``NAME = "literal"`` assignments."""
    constants: Dict[str, str] = {}
    for node in tree.body:
        if (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str)
        ):
            constants[node.targets[0].id] = node.value.value
    return constants


def _frozenset_literal(node: ast.expr) -> Optional[FrozenSet[str]]:
    """Evaluate ``frozenset()`` / ``frozenset({"a", "b"})`` statically."""
    if not (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "frozenset"
    ):
        return None
    if not node.args:
        return frozenset()
    if len(node.args) == 1 and isinstance(node.args[0], ast.Set):
        values = []
        for element in node.args[0].elts:
            if not (
                isinstance(element, ast.Constant)
                and isinstance(element.value, str)
            ):
                return None
            values.append(element.value)
        return frozenset(values)
    return None


#: event name -> (required fields, optional fields, schema line).
_Schema = Dict[str, Tuple[FrozenSet[str], FrozenSet[str], int]]


def _extract_event_schema(
    tree: ast.Module, constants: Dict[str, str]
) -> Tuple[_Schema, int]:
    """Statically evaluate ``EVENT_SCHEMA`` from the journal module AST."""
    schema: _Schema = {}
    schema_line = 1
    for node in tree.body:
        target: Optional[ast.expr]
        if isinstance(node, ast.AnnAssign):
            target = node.target
            value = node.value
        elif isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            value = node.value
        else:
            continue
        if not (
            isinstance(target, ast.Name)
            and target.id == "EVENT_SCHEMA"
            and isinstance(value, ast.Dict)
        ):
            continue
        schema_line = node.lineno
        for key, entry in zip(value.keys, value.values):
            name: Optional[str] = None
            if isinstance(key, ast.Name):
                name = constants.get(key.id)
            elif isinstance(key, ast.Constant) and isinstance(key.value, str):
                name = key.value
            if name is None:
                continue
            if not (isinstance(entry, ast.Tuple) and len(entry.elts) == 2):
                continue
            required = _frozenset_literal(entry.elts[0])
            optional = _frozenset_literal(entry.elts[1])
            if required is None or optional is None:
                continue
            schema[name] = (required, optional, key.lineno)
    return schema, schema_line


@register_deep
class WireContractPass(DeepPass):
    """The WIRE001-WIRE003 whole-program pass."""

    rules = {
        KEY_DRIFT_RULE: (
            "wire-format dict keys must be written and read by both "
            "ends of their contract (no drifting payloads)"
        ),
        JOURNAL_SCHEMA_RULE: (
            "journal emit sites must match EVENT_SCHEMA (declared "
            "fields only, all required fields, every event emitted)"
        ),
        VERSION_RULE: (
            "wire version keys must be stamped from and compared "
            "against their named constant on both ends"
        ),
    }

    contracts: Tuple[ContractSpec, ...] = DEFAULT_CONTRACTS
    version_specs: Tuple[VersionSpec, ...] = DEFAULT_VERSION_SPECS

    def run(
        self, graph: ProjectGraph, config: LintConfig, selected: Set[str]
    ) -> List[Finding]:
        findings: List[Finding] = []
        if KEY_DRIFT_RULE in selected:
            for contract in self.contracts:
                findings.extend(self._check_contract(graph, contract))
        if JOURNAL_SCHEMA_RULE in selected:
            findings.extend(self._check_journal(graph))
        if VERSION_RULE in selected:
            for spec in self.version_specs:
                findings.extend(self._check_version(graph, spec))
        return findings

    # -- WIRE001 -------------------------------------------------------------

    def _check_contract(
        self, graph: ProjectGraph, contract: ContractSpec
    ) -> List[Finding]:
        producer = graph.functions.get(contract.producer)
        consumer = graph.functions.get(contract.consumer)
        if (
            producer is None
            or consumer is None
            or producer.node is None
            or consumer.node is None
        ):
            return []  # subtree lint: one end out of scope, nothing to judge
        if contract.columns is not None:
            return self._check_positional(graph, contract, producer, consumer)
        written, dynamic = _producer_keys(producer.node)
        read = _consumer_reads(consumer.node)
        findings: List[Finding] = []
        for key in sorted(set(written) - set(read)):
            line, col = written[key]
            findings.append(
                Finding(
                    path=producer.path,
                    line=line,
                    col=col,
                    rule=KEY_DRIFT_RULE,
                    message=(
                        f"[{contract.name}] key {key!r} is written by "
                        f"{contract.producer} but never read by "
                        f"{contract.consumer} — dead payload data or a "
                        "missing consumer field"
                    ),
                )
            )
        if not dynamic:  # dynamic writes may supply any key
            for key in sorted(set(read) - set(written)):
                line, col = read[key]
                findings.append(
                    Finding(
                        path=consumer.path,
                        line=line,
                        col=col,
                        rule=KEY_DRIFT_RULE,
                        message=(
                            f"[{contract.name}] key {key!r} is read by "
                            f"{contract.consumer} but never written by "
                            f"{contract.producer} — the value can only "
                            "ever be the fallback"
                        ),
                    )
                )
        return findings

    def _check_positional(
        self,
        graph: ProjectGraph,
        contract: ContractSpec,
        producer: FunctionInfo,
        consumer: FunctionInfo,
    ) -> List[Finding]:
        """WIRE001 for a tuple-row contract: every side follows the columns."""
        assert contract.columns is not None
        module_key, _, tuple_name = contract.columns.rpartition(".")
        module = graph.modules.get(module_key)
        if module is None:
            return []
        #: (path, what was checked, problems found there)
        checked: List[Tuple[str, str, List[_Problem]]] = []
        columns, line = _module_literal(module.tree, tuple_name)
        if not (isinstance(columns, tuple) and all(isinstance(c, str) for c in columns)):
            checked.append((module.path, contract.columns, [(line, 1, "no tuple of column names")]))
            return self._positional_findings(contract, checked)
        here = (line, 1)

        row = _produced_row(producer.node)
        checked.append((
            producer.path,
            f"the row written by {contract.producer}",
            [(producer.line, 1, "no tuple row is returned or yielded")] if row is None
            else _row_drift(row, columns, contract.derived),
        ))
        for reader in (consumer, *filter(None, map(graph.functions.get, contract.readers))):
            target = _unpacked_row(reader.node) if reader.node is not None else None
            checked.append((
                reader.path,
                f"the row read by {reader.qname}",
                [(reader.line, 1, "the row is never unpacked")] if target is None
                else _row_drift(target, columns, contract.derived),
            ))
        for key in sorted(graph.modules):
            other = graph.modules[key]
            for names in _position_names(other.tree, tuple_name):
                checked.append((
                    other.path,
                    f"the row positions {other.key} names",
                    _row_drift(names, columns, contract.derived),
                ))

        ddl, schema_line = _module_literal(module.tree, SCHEMA_CONSTANT)
        table = _table_columns(ddl, contract.table or "") if isinstance(ddl, str) else None
        if table is None:
            missing = f"no CREATE TABLE {contract.table} in {SCHEMA_CONSTANT}"
            checked.append((module.path, contract.columns, [(*here, missing)]))
        else:
            checked.append((module.path, contract.columns, [
                (*here, f"column {column!r} is not in table {contract.table}")
                for column in columns if column not in table
            ]))
            checked.append((module.path, SCHEMA_CONSTANT, [
                (schema_line, 1, f"column {column!r} of table {contract.table} "
                 f"is not in {tuple_name}")
                for column in table if column not in columns
            ]))

        if contract.record is not None:
            record_key, _, record_name = contract.record.rpartition(".")
            record_module = graph.modules.get(record_key)
            fields = (
                None if record_module is None
                else _class_fields(record_module.tree, record_name)
            )
            if fields is not None:  # else subtree lint: the record is out of scope
                checked.append((module.path, contract.columns, [
                    (*here, f"field {field!r} of {record_name} has no column")
                    for field in fields if field not in columns
                ] + [
                    (*here, f"column {column!r} is no field of {record_name}")
                    for column in columns
                    if column not in fields and column not in contract.derived
                ]))
                call = _called(consumer.node, record_name)
                checked.append((
                    consumer.path,
                    f"the {record_name} built by {contract.consumer}",
                    [(consumer.line, 1, "no record is built")] if call is None
                    else _call_drift(call, fields),
                ))
        return self._positional_findings(contract, checked)

    @staticmethod
    def _positional_findings(
        contract: ContractSpec, checked: List[Tuple[str, str, List[_Problem]]]
    ) -> List[Finding]:
        return [
            Finding(
                path=path,
                line=line,
                col=col,
                rule=KEY_DRIFT_RULE,
                message=f"[{contract.name}] {where}: {problem}",
            )
            for path, where, problems in checked
            for line, col, problem in problems
        ]

    # -- WIRE002 -------------------------------------------------------------

    def _check_journal(self, graph: ProjectGraph) -> List[Finding]:
        journal = graph.modules.get(JOURNAL_MODULE)
        if journal is None:
            return []
        constants = _string_constants(journal.tree)
        schema, schema_line = _extract_event_schema(journal.tree, constants)
        if not schema:
            return []
        findings: List[Finding] = []
        emitted: Set[str] = set()
        for mod_key in sorted(graph.modules):
            mod = graph.modules[mod_key]
            if mod.key == JOURNAL_MODULE:
                continue  # the writer itself, not an emit site
            for qname in sorted(mod.functions):
                for site in mod.functions[qname].calls:
                    findings.extend(
                        self._check_emit_site(
                            mod, site, schema, constants, emitted
                        )
                    )
        if ORCHESTRATOR_MODULE in graph.modules:
            for event in sorted(set(schema) - emitted):
                findings.append(
                    Finding(
                        path=journal.path,
                        line=schema[event][2],
                        col=1,
                        rule=JOURNAL_SCHEMA_RULE,
                        message=(
                            f"event type {event!r} is declared in "
                            "EVENT_SCHEMA but never emitted anywhere in "
                            "the tree — dead vocabulary or a missing "
                            "emit site"
                        ),
                    )
                )
        return findings

    def _check_emit_site(
        self,
        mod: ModuleGraph,
        site: CallSite,
        schema: _Schema,
        constants: Dict[str, str],
        emitted: Set[str],
    ) -> List[Finding]:
        if site.written.rsplit(".", 1)[-1] != "emit" or not site.node.args:
            return []
        event = self._event_name(mod, site.node.args[0], constants)
        if event is None:
            return []  # not provably a journal emit
        if event not in schema:
            return [
                Finding(
                    path=mod.path,
                    line=site.line,
                    col=site.col,
                    rule=JOURNAL_SCHEMA_RULE,
                    message=(
                        f"emit of undeclared journal event {event!r} — "
                        "declare it in EVENT_SCHEMA or fix the constant"
                    ),
                )
            ]
        emitted.add(event)
        required, optional, _ = schema[event]
        keywords = {kw.arg for kw in site.node.keywords if kw.arg is not None}
        forwards_fields = any(kw.arg is None for kw in site.node.keywords)
        findings: List[Finding] = []
        for field in sorted(keywords - _JOURNAL_BASE - required - optional):
            findings.append(
                Finding(
                    path=mod.path,
                    line=site.line,
                    col=site.col,
                    rule=JOURNAL_SCHEMA_RULE,
                    message=(
                        f"{event} emit passes undeclared field {field!r} "
                        "— validate_events will reject it; declare it in "
                        "EVENT_SCHEMA or move it into the wall envelope"
                    ),
                )
            )
        if not forwards_fields:
            missing = sorted(required - keywords)
            if missing:
                findings.append(
                    Finding(
                        path=mod.path,
                        line=site.line,
                        col=site.col,
                        rule=JOURNAL_SCHEMA_RULE,
                        message=(
                            f"{event} emit is missing required field(s) "
                            f"{', '.join(missing)} — validate_events "
                            "will reject the event"
                        ),
                    )
                )
        return findings

    @staticmethod
    def _event_name(
        mod: ModuleGraph, arg: ast.expr, constants: Dict[str, str]
    ) -> Optional[str]:
        """The event string this emit's first argument names, if provable."""
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
            # A raw string is only provably a journal event when it
            # matches the journal vocabulary — other subsystems may have
            # unrelated ``emit`` methods.
            return arg.value if arg.value in constants.values() else None
        written = dotted_name(arg)
        if written is None:
            return None
        head, _, rest = written.partition(".")
        target = mod.aliases.get(head)
        canonical = written
        if target is not None:
            canonical = f"{target[0]}.{rest}" if rest else target[0]
        if not canonical.startswith(JOURNAL_MODULE + "."):
            return None
        return constants.get(canonical.rsplit(".", 1)[-1])

    # -- WIRE003 -------------------------------------------------------------

    def _check_version(
        self, graph: ProjectGraph, spec: VersionSpec
    ) -> List[Finding]:
        producer = graph.functions.get(spec.producer)
        consumer = graph.functions.get(spec.consumer)
        if (
            producer is None
            or consumer is None
            or producer.node is None
            or consumer.node is None
        ):
            return []
        findings: List[Finding] = []
        stamp = self._version_stamp(producer.node, spec.key)
        if stamp is None:
            findings.append(
                Finding(
                    path=producer.path,
                    line=producer.line,
                    col=1,
                    rule=VERSION_RULE,
                    message=(
                        f"[{spec.name}] {spec.producer} never writes the "
                        f"version key {spec.key!r} — consumers cannot "
                        "detect format skew"
                    ),
                )
            )
        else:
            value, line, col = stamp
            if value != spec.constant:
                findings.append(
                    Finding(
                        path=producer.path,
                        line=line,
                        col=col,
                        rule=VERSION_RULE,
                        message=(
                            f"[{spec.name}] version key {spec.key!r} is "
                            f"stamped from {value or 'a literal'} instead "
                            f"of {spec.constant} — bumping the constant "
                            "will not reach this writer"
                        ),
                    )
                )
        if not self._compares_version(consumer.node, spec.key, spec.constant):
            findings.append(
                Finding(
                    path=consumer.path,
                    line=consumer.line,
                    col=1,
                    rule=VERSION_RULE,
                    message=(
                        f"[{spec.name}] {spec.consumer} never compares "
                        f"{spec.key!r} against {spec.constant} — a "
                        "version bump has no matching reader branch"
                    ),
                )
            )
        return findings

    @staticmethod
    def _version_stamp(
        fn_node: ast.AST, key: str
    ) -> Optional[Tuple[Optional[str], int, int]]:
        """(constant name or None-for-literal, line, col) of the stamp.

        Unlike WIRE001's producer extraction this scans *every* dict
        literal in the function: the journal builds its record in a
        local before serialising it.
        """
        for node in ast.walk(fn_node):
            if not isinstance(node, ast.Dict):
                continue
            for dict_key, value in zip(node.keys, node.values):
                if not (
                    isinstance(dict_key, ast.Constant)
                    and dict_key.value == key
                ):
                    continue
                name = dotted_name(value)
                stamped = name.rsplit(".", 1)[-1] if name else None
                return stamped, value.lineno, value.col_offset + 1
        return None

    @staticmethod
    def _compares_version(fn_node: ast.AST, key: str, constant: str) -> bool:
        for node in ast.walk(fn_node):
            if not isinstance(node, ast.Compare):
                continue
            sides = [node.left, *node.comparators]
            reads_key = False
            names_constant = False
            for side in sides:
                if (
                    isinstance(side, ast.Subscript)
                    and isinstance(side.slice, ast.Constant)
                    and side.slice.value == key
                ):
                    reads_key = True
                elif (
                    isinstance(side, ast.Call)
                    and isinstance(side.func, ast.Attribute)
                    and side.func.attr == "get"
                    and side.args
                    and isinstance(side.args[0], ast.Constant)
                    and side.args[0].value == key
                ):
                    reads_key = True
                else:
                    name = dotted_name(side)
                    if name is not None and name.rsplit(".", 1)[-1] == constant:
                        names_constant = True
            if reads_key and names_constant:
                return True
        return False


__all__ = [
    "DEFAULT_CONTRACTS",
    "DEFAULT_VERSION_SPECS",
    "JOURNAL_MODULE",
    "JOURNAL_SCHEMA_RULE",
    "KEY_DRIFT_RULE",
    "SCHEMA_CONSTANT",
    "VERSION_RULE",
    "ContractSpec",
    "VersionSpec",
    "WireContractPass",
]
