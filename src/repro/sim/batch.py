"""Batch-fidelity campaign executor: the numpy-vectorised fast path.

The bit-accurate executor (:mod:`repro.core.campaign`) walks every
Baseband payload through the discrete-event engine — one generator
resume per stack operation, transfer and recovery wait.  This module
replays the *same* campaign model per connection-cycle instead: cycle
parameters, Gilbert–Elliott transfer outcomes and stack-operation fault
gates are drawn in bulk (:mod:`repro.bluetooth.batch_channel`) from the
memoised ``Channel.loss_profile`` closed forms, and a lean scalar loop
advances each PANU's clock cycle-by-cycle, materialising failure
reports, SIRA cascades and system-log evidence only where they occur.
Each node's entries go into a real :class:`SystemLog` (each PANU's
reports into a :class:`TestLog`), and the node's own
:class:`LogAnalyzer` ships them to the :class:`CentralRepository` round
by round, extracting and filtering exactly as on the bit path, so every
downstream analysis runs as-is.

Determinism: all randomness comes from prefix-stable SHA-256 substreams
of the campaign seed — numpy ``Generator(PCG64)`` streams for bulk
draws (:meth:`repro.sim.rng.RandomStreams.numpy_stream`) and buffered
scalar draws for failure materialisation — consumed in a fixed
single-threaded order.  A batch campaign is therefore a pure function
of its :class:`CampaignSpec`, making sweeps merge-stable at any
``--jobs``.

What batch mode approximates (documented contract, gated at 4 sigma by
``tools/equivalence_check.py`` and the hypothesis property tests):

* TDD slot dilation uses a per-PANU mean-field constant (fixed point of
  the piconet duty-cycle equations) instead of the instantaneous
  ``active_transfers`` snapshot.
* The NAP-busy multiplier on L2CAP connect failures and the bind-race
  ``SocketError`` path (P ~ 2e-5 per cycle) are folded into their base
  rates.
* Hardware replacement at half-time forces reconnection on the next
  cycle instead of invalidating HCI handles mid-transfer.

Everything else — cycle parameter laws, fault-gate conditioning,
transfer first-event sampling, masking/SIRA timing, evidence latency
texture, collection windowing — follows the bit path's arithmetic
exactly; the bit engine remains the oracle.
"""

from __future__ import annotations

import math
from types import SimpleNamespace
from typing import Any, Callable, Dict, List, Optional, Tuple, TYPE_CHECKING

import numpy as np

from repro.bluetooth.batch_channel import (
    TRANSFER_COMPLETED,
    TRANSFER_LOSS,
    bulk_transfer_outcomes,
    latent_break_index,
)
from repro.bluetooth.channel import Channel, ChannelConfig
from repro.bluetooth.errors import PACKET_LOSS_TIMEOUT
from repro.bluetooth.hci import COMMAND_LATENCY, COMMAND_TIMEOUT
from repro.bluetooth.host import BIND_DELAY
from repro.bluetooth.l2cap import SIGNALLING_DELAY
from repro.bluetooth.lmp import (
    INQUIRY_DURATION_MAX,
    INQUIRY_DURATION_MIN,
    PAGE_DURATION_MAX,
    PAGE_DURATION_MIN,
    ROLE_SWITCH_DURATION,
)
from repro.bluetooth.packets import PACKET_TYPE_ORDER
from repro.bluetooth.sdp import SEARCH_DELAY_MAX, SEARCH_DELAY_MIN
from repro.bluetooth.stack import SDP_FAILURE_LATENCY
from repro.bluetooth.transport import BcspTransport, UartTransport, UsbTransport
from repro.collection.log_analyzer import LogAnalyzer
from repro.collection.logs import SystemLog, TestLog
from repro.collection.messages import (
    facility_for,
    render_system_message,
    render_user_message,
    variants_for,
)
from repro.collection.records import RecoveryAttempt, SystemLogRecord, TestLogRecord
from repro.collection.repository import CentralRepository
from repro.core.failure_model import SystemFailureType, UserFailureType
from repro.faults import calibration as cal
from repro.faults.calibration import Origin
from repro.faults.evidence import (
    LATENCY_MU,
    LATENCY_SIGMA,
    MAX_EVIDENCE_DELAY,
    REPEAT_PROBABILITY,
)
from repro.faults.injector import FaultActivation, FaultInjector, NodeTraits
from repro.recovery.masking import MaskingPolicy
from repro.recovery.sira import SiraAction, standard_actions
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams
from repro.testbed.node import NOISE_ERROR_MEAN, node_id
from repro.testbed.nodes import NodeProfile
from repro.workload import traffic
from repro.workload.bluetest import STACK_CHOICE, CycleStats

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (campaign imports us lazily)
    from repro.core.campaign import CampaignResult, CampaignSpec

#: Cycles pre-drawn per vectorised refill of one PANU's parameter chunk.
_CHUNK = 2048
#: Probe cycles used to estimate each PANU's duty cycle for the
#: mean-field dilation fixed point.
_DUTY_PROBE = 4096

#: Per-command HCI transport latency by profile transport keyword.
_TRANSPORT_LATENCY: Dict[str, float] = {
    "usb": UsbTransport.latency,
    "uart": UartTransport.latency,
    "bcsp": BcspTransport.latency,
}

#: Reconnect-phase first-failure codes (0 = the whole chain succeeded).
_OP_NONE = 0
_OP_INQUIRY = 1
_OP_SDP_SEARCH = 2
_OP_NAP_NOT_FOUND = 3
_OP_L2CAP = 4
_OP_PAN = 5
_OP_SW_REQUEST = 6
_OP_SW_COMMAND = 7
_OP_BIND = 8

_OP_FAILURES: Tuple[Optional[UserFailureType], ...] = (
    None,
    UserFailureType.INQUIRY_SCAN_FAILED,
    UserFailureType.SDP_SEARCH_FAILED,
    UserFailureType.NAP_NOT_FOUND,
    UserFailureType.CONNECT_FAILED,
    UserFailureType.PAN_CONNECT_FAILED,
    UserFailureType.SW_ROLE_REQUEST_FAILED,
    UserFailureType.SW_ROLE_COMMAND_FAILED,
    UserFailureType.BIND_FAILED,
)

#: Failure-detection latency added after the manifest instant, mirroring
#: the per-operation waits of stack.py / pan.py (inquiry's is drawn).
_OP_DETECT_LATENCY: Tuple[float, ...] = (
    0.0,
    0.0,  # inquiry: drawn per cycle, U(2, 8)
    SDP_FAILURE_LATENCY,
    SDP_FAILURE_LATENCY,
    COMMAND_TIMEOUT,
    2.0,  # PAN connect failure latency (pan.py)
    COMMAND_TIMEOUT,
    ROLE_SWITCH_DURATION,
    0.5,  # bind failure latency (pan.py)
)

#: Per-packet-type closed-form inputs, indexed like PACKET_TYPE_ORDER.
_PT_DURATION = np.array([pt.duration for pt in PACKET_TYPE_ORDER])
_PT_MAX_PAYLOAD = np.array([pt.max_payload for pt in PACKET_TYPE_ORDER], dtype=np.int64)
_STACK_CHOICE_INDEX = PACKET_TYPE_ORDER.index(STACK_CHOICE)

#: Realistic-workload application table (order matches RealisticWorkload).
_APPS: Tuple[str, ...] = traffic.REALISTIC_APPLICATIONS
_APP_SEND = np.array([350, 350, 64, 1460, 64], dtype=np.int64)
_APP_RECV = np.array([1460, 1460, 1460, 1460, 1400], dtype=np.int64)
_APP_MULT = np.array(
    [cal.APPLICATION_HAZARD_MULTIPLIERS.get(app, 1.0) for app in _APPS]
)
#: The mail resource-size cap applied by RealisticWorkload._resource_size.
_MAIL_CAP = 5_000_000.0

_SIRA_ACTIONS: List[SiraAction] = standard_actions()

#: Mean realistic-workload cycles per connection (cpc ~ U{1..20}) and the
#: estimated extra reconnect fraction caused by scope>=2 recovery actions
#: tearing connections down; both feed only the duty-cycle estimate
#: behind the mean-field dilation fixed point.
_MEAN_CPC_REALISTIC = 10.5
_SCOPE_RECONNECT_RATE = 0.005


class _ScalarDraws:
    """Buffered scalar draws backed by a numpy substream.

    Batch-mode failure materialisation needs ~10 scalar draws per
    failure (masking, SIRA durations, message renders, evidence
    latencies).  Pulling them from pre-drawn numpy buffers keeps the
    hot loop off ``random.Random`` while staying a deterministic,
    positionally-consumed function of the seed.  The object duck-types
    the ``random.Random`` surface the shared renderers and
    ``SiraAction.sample_duration`` use.
    """

    __slots__ = ("_gen", "_uniforms", "_normals", "_iu", "_in")

    _BUFFER = 8192

    def __init__(self, gen: Any) -> None:
        self._gen = gen
        self._uniforms: List[float] = []
        self._normals: List[float] = []
        self._iu = 0
        self._in = 0

    def random(self) -> float:
        i = self._iu
        if i >= len(self._uniforms):
            self._uniforms = self._gen.random(self._BUFFER).tolist()
            i = 0
        self._iu = i + 1
        return self._uniforms[i]

    def uniform(self, low: float, high: float) -> float:
        return low + (high - low) * self.random()

    def randint(self, low: int, high: int) -> int:
        return low + int(self.random() * (high - low + 1))

    def choice(self, seq: Any) -> Any:
        return seq[int(self.random() * len(seq))]

    def gauss(self) -> float:
        i = self._in
        if i >= len(self._normals):
            self._normals = self._gen.standard_normal(self._BUFFER).tolist()
            i = 0
        self._in = i + 1
        return self._normals[i]

    def lognormvariate(self, mu: float, sigma: float) -> float:
        return math.exp(mu + sigma * self.gauss())

    def release(self) -> None:
        """Drop the buffers and the substream once the owner is done drawing.

        A listified buffer is ~0.26 MB; a later draw raises instead of
        silently restarting the stream past the unread values.
        """
        self._gen = None
        self._uniforms = []
        self._normals = []


class _BatchTestbed:
    """Duck-typed Testbed exposing what CampaignResult accessors read.

    Each PANU is its own node and client (:class:`_PanuBatch`); the NAP
    is known only by its log identifier.
    """

    __slots__ = ("name", "nap", "panus")

    def __init__(self, name: str, nap: str, panus: List["_PanuBatch"]) -> None:
        self.name = name
        self.nap = SimpleNamespace(id=nap)
        self.panus = panus

    def clients(self) -> List["_PanuBatch"]:
        return self.panus


def _write_error(
    log: SystemLog,
    time: float,
    failure: SystemFailureType,
    variant: str,
    peer: Optional[str],
    rng: _ScalarDraws,
) -> None:
    """Render one error entry (as SystemLog.error does) from batch draws.

    Batch draws its message text from its own buffered stream, in its
    own order, so it renders here and appends through the log.
    """
    message = render_system_message(rng, failure, variant, log.vendor)  # type: ignore[arg-type]
    if peer:
        message = f"{message} (peer {peer})"
    log.append(
        SystemLogRecord(
            time=time,
            node=log.node,
            facility=facility_for(failure, log.vendor),
            severity="error",
            message=message,
        )
    )


def _generate_noise(
    log: SystemLog, gen: Any, rng: _ScalarDraws, duration: float
) -> None:
    """Spurious background error entries of one host's system log.

    The bit path interleaves them with info chatter (LogNoise): info
    entries at rate 1/180 s, each upgraded to a spurious error with
    probability 180/2600.  Infos are dropped by the severity filter, so
    only the error point process matters — a thinned renewal process of
    rate ``1/NOISE_ERROR_MEAN``, sampled here as a Poisson count with
    uniformly scattered arrival times.
    """
    count = int(gen.poisson(duration / NOISE_ERROR_MEAN))
    if count <= 0:
        return
    times = np.sort(gen.random(count)) * duration
    error_types = list(SystemFailureType)
    for time in times.tolist():
        failure = rng.choice(error_types)
        variant = rng.choice(variants_for(failure))
        _write_error(log, time, failure, variant, None, rng)


def _ship_node(
    system_log: SystemLog,
    test_log: TestLog,
    scoped: RandomStreams,
    duration: float,
    repository: CentralRepository,
) -> None:
    """Ship one node's buffered entries through its own LogAnalyzer.

    Batch appends entries out of time order, so they are sorted once
    and replayed into their logs window by window.  The daemon collects
    at ``phase + k * period``, with the bit path's phase draw, so every
    round extracts and filters exactly the entries logged up to it; the
    last round mirrors ``Testbed.final_collection()``.
    """
    phase = scoped.stream(f"analyzer/{system_log.node}").uniform(0, 60)
    pending = sorted(
        [(log, entry) for log in (system_log, test_log) for entry in log.records()],
        key=lambda item: item[1].time,
    )
    system_log.release(system_log.cursor)
    test_log.release(test_log.cursor)
    analyzer = LogAnalyzer(system_log.node, test_log, system_log, repository, phase=phase)
    cutoff = phase + analyzer.period
    for log, entry in pending:
        while cutoff < entry.time and cutoff <= duration:
            analyzer.collect_once()
            cutoff += analyzer.period
        log.append(entry)
    while cutoff <= duration:
        analyzer.collect_once()
        cutoff += analyzer.period
    analyzer.collect_once()


def _conditioned_probability(
    injector: FaultInjector,
    operation: str,
    failure: UserFailureType,
    traits: NodeTraits,
    sdp_performed: bool = True,
) -> float:
    """One conditioned per-attempt fault probability from the injector.

    Reads the injector's private base-rate table so batch and bit mode
    can never drift apart on calibration; the NAP-busy multiplier is
    folded out (``busy=False``), a documented batch approximation.
    """
    for candidate, base in injector._op_probabilities[operation]:
        if candidate is failure:
            return injector._condition_probability(
                failure, base, traits, busy=False, sdp_performed=sdp_performed
            )
    return 0.0


def _expected_failure_costs(masking: MaskingPolicy) -> Dict[UserFailureType, float]:
    """Expected seconds one failure of each type adds to its cycle.

    Detection latency plus the SCOPE_WEIGHTS-averaged SIRA cascade time,
    adjusted for retry masking where the policy applies it.  Feeds only
    the duty-cycle side of the dilation fixed point.
    """
    detect: Dict[UserFailureType, float] = {
        UserFailureType.INQUIRY_SCAN_FAILED: 5.0,
        UserFailureType.SDP_SEARCH_FAILED: SDP_FAILURE_LATENCY,
        UserFailureType.NAP_NOT_FOUND: SDP_FAILURE_LATENCY,
        UserFailureType.CONNECT_FAILED: COMMAND_TIMEOUT,
        UserFailureType.PAN_CONNECT_FAILED: 2.0,
        UserFailureType.BIND_FAILED: 0.5,
        UserFailureType.SW_ROLE_REQUEST_FAILED: COMMAND_TIMEOUT,
        UserFailureType.SW_ROLE_COMMAND_FAILED: ROLE_SWITCH_DURATION,
        UserFailureType.PACKET_LOSS: PACKET_LOSS_TIMEOUT,
        UserFailureType.DATA_MISMATCH: 0.0,
    }
    expected_level = [
        action.base_duration
        * (1.0 if action.max_repeats <= 1 else (2.0 + action.max_repeats) / 2.0)
        for action in _SIRA_ACTIONS
    ]
    cumulative = []
    running = 0.0
    for value in expected_level:
        running += value
        cumulative.append(running)
    effectiveness = cal.RETRY_MASK_EFFECTIVENESS
    p_masked = 1.0 - (1.0 - effectiveness) ** cal.RETRY_MASK_ATTEMPTS
    mask_wait = 0.0
    miss = 1.0
    for attempt in range(cal.RETRY_MASK_ATTEMPTS):
        mask_wait += miss * cal.RETRY_MASK_WAIT
        miss *= 1.0 - effectiveness
    costs: Dict[UserFailureType, float] = {}
    for failure in UserFailureType:
        row = cal.SCOPE_WEIGHTS.get(failure, [])
        weight_sum = sum(row)
        if weight_sum > 0.0:
            recovery = (
                sum(w * cumulative[level] for level, w in enumerate(row)) / weight_sum
            )
        else:
            recovery = 0.0
        cost = detect[failure] + recovery
        if masking.applies_retry(failure):
            cost = mask_wait + (1.0 - p_masked) * cost
        costs[failure] = cost
    return costs


def _solve_dilation(panus: List["_PanuBatch"]) -> None:
    """Mean-field TDD dilation fixed point for one testbed's piconet.

    The bit path dilates each transfer by the instantaneous count of
    concurrent transfers; batch mode replaces that with a constant
    per-PANU factor ``D_i = 1 + sum_{j != i} duty_j`` where ``duty_j``
    is PANU j's on-air fraction — the self-consistent average of the
    same quantity.
    """
    transfer = [panu.duty_fraction * panu.duty_transfer for panu in panus]
    overhead = [panu.duty_overhead for panu in panus]
    count = len(panus)
    dilation = [1.0] * count
    for _ in range(128):
        duty = [
            transfer[i] * dilation[i] / (overhead[i] + transfer[i] * dilation[i])
            if transfer[i] > 0.0
            else 0.0
            for i in range(count)
        ]
        total = sum(duty)
        updated = [
            min(float(count), 1.0 + total - duty[i]) for i in range(count)
        ]
        if all(abs(updated[i] - dilation[i]) < 1e-9 for i in range(count)):
            dilation = updated
            break
        dilation = updated
    for panu, factor in zip(panus, dilation):
        panu.dilation = factor


class _Chunk:
    """One pre-drawn chunk of ``_CHUNK`` cycles, listified per column.

    Entry ``k`` of each column is cycle ``k``'s draw; the ``cum_*`` and
    ``next_*`` prefix lists drive the span fast paths (each workload
    sets only its own).  Only :meth:`_PanuBatch.run` holds a chunk, as a
    local, so a PANU's chunk is freed when it reaches its horizon, not
    when its testbed is collected.
    """

    # Span prefix lists: the random workload's ...
    cum_dt: List[float]
    next_special: List[int]
    cum_counts: List[List[int]]
    # ... and the realistic workload's.
    next_bad: List[int]
    cum_tr: List[float]
    cum_idle: List[float]
    cum_np: List[int]
    # Per-cycle columns.
    scan: List[bool]
    sdp_flag: List[bool]
    did_sdp: List[bool]
    idle: List[float]
    pt_index: List[int]
    n_logical: List[int]
    per_logical: List[int]
    n_payloads: List[int]
    per_payload: List[float]
    cpc: List[int]
    app_index: List[int]
    app_mult: List[float]
    h_const: List[float]
    status: List[int]
    event_index: List[int]
    transfer_s: List[float]
    mismatch_has: List[bool]
    mismatch_index: List[int]
    u_break: List[float]
    fail_op: List[int]
    latent: List[bool]
    inquiry_ok: List[float]
    inquiry_fail: List[float]
    sdp_ok: List[float]
    page: List[float]
    setup: List[float]
    connect_overhead: List[float]


class _PanuBatch:
    """Vectorised per-PANU campaign state and execution."""

    def __init__(
        self,
        testbed_name: str,
        workload: str,
        profile: NodeProfile,
        nap_profile: NodeProfile,
        nap_log: SystemLog,
        injector: FaultInjector,
        scoped: RandomStreams,
        masking: MaskingPolicy,
        duration: float,
        hardware_replacement: bool,
    ) -> None:
        self.testbed_name = testbed_name
        self.workload = workload
        self.profile = profile
        self.traits = profile.traits
        self.masking = masking
        self.duration = duration
        self.hardware_replacement = hardware_replacement
        self.injector = injector
        self.id = node_id(testbed_name, profile.name)
        self.system_log = SystemLog(self.id, vendor=profile.vendor)
        self.test_log = TestLog(self.id)
        self.nap_log = nap_log
        self.nap_name = nap_profile.name
        self.stats = CycleStats()
        self.connects = 0
        self.dilation = 1.0

        host = profile.name
        self._gen = scoped.numpy_stream(f"batch/cycles/{host}")
        self._duty_gen = scoped.numpy_stream(f"batch/duty/{host}")
        self.frng = _ScalarDraws(scoped.numpy_stream(f"batch/failures/{host}"))

        # Memoised Gilbert–Elliott closed forms, per packet type; the
        # stream only feeds Channel's (unused here) scalar sampler.
        channel = Channel(
            ChannelConfig(distance=max(profile.distance, 0.1)),
            scoped.stream(f"channel/{self.id}"),
        )
        profiles = [channel.loss_profile(pt) for pt in PACKET_TYPE_ORDER]
        self._p_drop = np.array([p.p_drop for p in profiles])
        self._p_hit = np.array([p.p_hit for p in profiles])
        self._p_undetected = np.array([p.p_undetected for p in profiles])

        self._hci_command = _TRANSPORT_LATENCY[profile.transport] + COMMAND_LATENCY
        traits = self.traits
        self._p_inquiry = _conditioned_probability(
            injector, "inquiry", UserFailureType.INQUIRY_SCAN_FAILED, traits
        )
        self._p_sdp_search = _conditioned_probability(
            injector, "sdp_search", UserFailureType.SDP_SEARCH_FAILED, traits
        )
        self._p_nap_not_found = _conditioned_probability(
            injector, "sdp_search", UserFailureType.NAP_NOT_FOUND, traits
        )
        self._p_l2cap = _conditioned_probability(
            injector, "l2cap_connect", UserFailureType.CONNECT_FAILED, traits
        )
        self._p_pan_sdp = _conditioned_probability(
            injector, "pan_connect", UserFailureType.PAN_CONNECT_FAILED, traits, True
        )
        self._p_pan_nosdp = _conditioned_probability(
            injector, "pan_connect", UserFailureType.PAN_CONNECT_FAILED, traits, False
        )
        self._p_sw_request = _conditioned_probability(
            injector, "sw_role_request", UserFailureType.SW_ROLE_REQUEST_FAILED, traits
        )
        self._p_sw_command = _conditioned_probability(
            injector, "sw_role_command", UserFailureType.SW_ROLE_COMMAND_FAILED, traits
        )
        self._p_bind = _conditioned_probability(
            injector, "bind", UserFailureType.BIND_FAILED, traits
        )

        self._index = 0
        self.duty_transfer = 0.0
        self.duty_overhead = 0.0
        self.duty_fraction = 1.0

    # -- bulk draws -----------------------------------------------------------

    def _draw_params(self, gen: Any, size: int) -> Dict[str, Any]:
        """One chunk of raw cycle parameters (the traffic-model laws)."""
        scan = gen.random(size) < traffic.P_SCAN
        sdp = gen.random(size) < traffic.P_SDP
        idle = np.minimum(
            traffic.IDLE_CAP,
            traffic.IDLE_SCALE
            * (1.0 - gen.random(size)) ** (-1.0 / traffic.IDLE_SHAPE),
        )
        if self.workload == "random":
            pt_index = gen.binomial(5, 0.5, size)
            n_logical = gen.integers(1, 361, size)
            send = gen.integers(64, 1692, size)
            recv = gen.integers(64, 1692, size)
            cycles_per_connection = np.ones(size, dtype=np.int64)
            app_index = np.zeros(size, dtype=np.int64)
            app_mult = np.ones(size)
        else:
            app_index = gen.integers(0, len(_APPS), size)
            u = gen.random(size)
            resource = np.empty(size)
            for index, model in (
                (0, traffic._WEB_SIZE),
                (2, traffic._FTP_SIZE),
                (3, traffic._P2P_SIZE),
            ):
                mask = app_index == index
                ratio = (model.xm / model.cap) ** model.alpha
                resource[mask] = model.xm / (
                    1.0 - u[mask] * (1.0 - ratio)
                ) ** (1.0 / model.alpha)
            mail = app_index == 1
            mail_count = int(mail.sum())
            if mail_count:
                resource[mail] = np.minimum(
                    gen.lognormal(
                        traffic._MAIL_SIZE.mu, traffic._MAIL_SIZE.sigma, mail_count
                    ),
                    _MAIL_CAP,
                )
            streaming = app_index == 4
            low, high = traffic._STREAM_DURATION
            resource[streaming] = (
                low + (high - low) * u[streaming]
            ) * traffic._STREAM_RATE
            pt_index = np.full(size, _STACK_CHOICE_INDEX, dtype=np.int64)
            n_logical = np.maximum(
                1, (resource // traffic.TCP_MSS).astype(np.int64)
            )
            send = _APP_SEND[app_index]
            recv = _APP_RECV[app_index]
            cycles_per_connection = gen.integers(1, 21, size)
            app_mult = _APP_MULT[app_index]
        max_payload = _PT_MAX_PAYLOAD[pt_index]
        per_logical = (send + max_payload - 1) // max_payload + (
            recv + max_payload - 1
        ) // max_payload
        n_payloads = np.maximum(1, n_logical) * per_logical
        return {
            "scan": scan,
            "sdp": sdp,
            "idle": idle,
            "pt_index": pt_index,
            "n_logical": n_logical,
            "per_logical": per_logical,
            "n_payloads": n_payloads,
            "per_payload": _PT_DURATION[pt_index],
            "cpc": cycles_per_connection,
            "app_index": app_index,
            "app_mult": app_mult,
        }

    def _fail_ops(self, gen: Any, scan: Any, did_sdp: Any, size: int) -> Any:
        """First failing reconnect-chain operation per cycle (vectorised).

        Mirrors the candidate order of the bit path: inquiry (if S),
        SDP search (if SDP or sdp-before-pan), L2CAP connect, PAN
        connect (stale-record conditioned), switch-role request,
        switch-role command, bind.
        """
        u = gen.random((size, 8))
        p_pan = np.where(did_sdp, self._p_pan_sdp, self._p_pan_nosdp)
        gates = (
            scan & (u[:, 0] < self._p_inquiry),
            did_sdp & (u[:, 1] < self._p_sdp_search),
            did_sdp & (u[:, 2] < self._p_nap_not_found),
            u[:, 3] < self._p_l2cap,
            u[:, 4] < p_pan,
            u[:, 5] < self._p_sw_request,
            u[:, 6] < self._p_sw_command,
            u[:, 7] < self._p_bind,
        )
        fail_op = np.zeros(size, dtype=np.int8)
        remaining = np.ones(size, dtype=bool)
        for code, gate in enumerate(gates, start=_OP_INQUIRY):
            selected = remaining & gate
            fail_op[selected] = code
            remaining &= ~gate
        return fail_op

    def _refill(self) -> _Chunk:
        """Pre-draw the next chunk of cycles (vectorised, then listified)."""
        gen = self._gen
        size = _CHUNK
        params = self._draw_params(gen, size)
        pt_index = params["pt_index"]
        app_mult = params["app_mult"]
        n_payloads = params["n_payloads"]
        per_payload = params["per_payload"]
        h_const = self._p_drop[pt_index] + cal.LINK_BREAK_HAZARD * app_mult
        p_mismatch = (
            self._p_hit[pt_index] * self._p_undetected[pt_index] + cal.MISMATCH_HAZARD
        )
        u_break = gen.random(size)
        u_mismatch = gen.random(size)
        status, event_index, transfer_s = bulk_transfer_outcomes(
            u_break, u_mismatch, n_payloads, h_const, p_mismatch, per_payload
        )
        # Standalone mismatch first-index pieces, re-resolved scalar-side
        # for the rare latent-defect connections.
        log_keep = np.log1p(-p_mismatch)
        log_u = np.log(np.maximum(u_mismatch, 1e-300))
        floats = n_payloads.astype(np.float64)
        mismatch_has = log_u >= floats * log_keep
        mismatch_index = np.minimum(
            np.floor(log_u / log_keep), floats - 1.0
        ).astype(np.int64)

        scan = params["scan"]
        did_sdp = params["sdp"] | self.masking.sdp_before_pan
        fail_op = self._fail_ops(gen, scan, did_sdp, size)
        latent = gen.random(size) < cal.LATENT_DEFECT_PROBABILITY
        inquiry_ok = gen.uniform(INQUIRY_DURATION_MIN, INQUIRY_DURATION_MAX, size)
        inquiry_fail = gen.uniform(2.0, 8.0, size)
        sdp_ok = gen.uniform(SEARCH_DELAY_MIN, SEARCH_DELAY_MAX, size)
        page = gen.uniform(PAGE_DURATION_MIN, PAGE_DURATION_MAX, size)
        setup = gen.uniform(0.5, 2.0, size)
        connect_overhead = (
            np.where(scan, inquiry_ok, 0.0)
            + np.where(did_sdp, sdp_ok, 0.0)
            + page
            + self._hci_command
            + SIGNALLING_DELAY
            + ROLE_SWITCH_DURATION
            + setup
            + BIND_DELAY
        )

        chunk = _Chunk()

        # -- span compression -------------------------------------------------
        # Runs of "boring" cycles (no reconnect-chain failure, transfer
        # completes, no latent defect) advance only the clock and simple
        # counters, and consume no scalar draws; precompute prefix sums
        # so the main loop can consume whole runs in O(1).
        size_arange = np.arange(size)
        dilation = self.dilation
        if self.workload == "random":
            # cpc == 1: every cycle is its own connection, so a boring
            # cycle is fully determined chunk-side.
            boring = (fail_op == 0) & (status == 0) & ~latent
            dt_full = (
                params["idle"]
                + connect_overhead
                + transfer_s * dilation
                + self._hci_command
            )
            chunk.cum_dt = np.cumsum(dt_full).tolist()
            chunk.next_special = (
                np.minimum.accumulate(np.where(~boring, size_arange, size)[::-1])[::-1]
            ).tolist()
            one_hot = pt_index[:, None] == np.arange(len(PACKET_TYPE_ORDER))[None, :]
            cum_counts = np.cumsum(one_hot, axis=0)
            chunk.cum_counts = [cum_counts[:, k].tolist() for k in range(len(PACKET_TYPE_ORDER))]
        else:
            # Connected spans end at the first non-completing transfer;
            # connection boundaries (cpc, latency) are resolved scalar-side.
            chunk.next_bad = (
                np.minimum.accumulate(np.where(status != 0, size_arange, size)[::-1])[::-1]
            ).tolist()
            chunk.cum_tr = np.cumsum(
                params["idle"] + transfer_s * dilation
            ).tolist()
            chunk.cum_idle = np.cumsum(params["idle"]).tolist()
            chunk.cum_np = np.cumsum(n_payloads).tolist()

        chunk.scan = scan.tolist()
        chunk.sdp_flag = params["sdp"].tolist()
        chunk.did_sdp = did_sdp.tolist()
        chunk.idle = params["idle"].tolist()
        chunk.pt_index = pt_index.tolist()
        chunk.n_logical = params["n_logical"].tolist()
        chunk.per_logical = params["per_logical"].tolist()
        chunk.n_payloads = n_payloads.tolist()
        chunk.per_payload = per_payload.tolist()
        chunk.cpc = params["cpc"].tolist()
        chunk.app_index = params["app_index"].tolist()
        chunk.app_mult = app_mult.tolist()
        chunk.h_const = h_const.tolist()
        chunk.status = status.tolist()
        chunk.event_index = event_index.tolist()
        chunk.transfer_s = transfer_s.tolist()
        chunk.mismatch_has = mismatch_has.tolist()
        chunk.mismatch_index = mismatch_index.tolist()
        chunk.u_break = u_break.tolist()
        chunk.fail_op = fail_op.tolist()
        chunk.latent = latent.tolist()
        chunk.inquiry_ok = inquiry_ok.tolist()
        chunk.inquiry_fail = inquiry_fail.tolist()
        chunk.sdp_ok = sdp_ok.tolist()
        chunk.page = page.tolist()
        chunk.setup = setup.tolist()
        chunk.connect_overhead = connect_overhead.tolist()
        self._index = 0
        return chunk

    # -- duty estimation ------------------------------------------------------

    def estimate_duty(self, failure_costs: Dict[UserFailureType, float]) -> None:
        """Probe-chunk estimate of this PANU's duty-cycle terms.

        Computes, per cycle: the expected on-air transfer seconds
        (undilated), the fraction of cycles that reach the transfer
        stage, and everything else (idle, reconnect chains, failure
        detection/recovery) as ``duty_overhead``.  The dilation fixed
        point then solves period = overhead + fraction * s * D.
        """
        gen = self._duty_gen
        params = self._draw_params(gen, _DUTY_PROBE)
        n_payloads = params["n_payloads"].astype(np.float64)
        h_const = (
            self._p_drop[params["pt_index"]]
            + cal.LINK_BREAK_HAZARD * params["app_mult"]
        )
        # Expected on-air payloads under the constant hazard, truncation
        # at the link-break included; P(break) is the same integral's
        # mass at the event.
        p_break = -np.expm1(-h_const * n_payloads)
        expected_payloads = p_break / h_const
        # Latent-defect connections (probability LATENT_DEFECT_PROBABILITY
        # per connect) multiply the break hazard by LATENT_HAZARD_MULTIPLIER
        # over roughly the first LATENT_DEFECT_PACKETS payloads.
        base_hazard = cal.LINK_BREAK_HAZARD * params["app_mult"]
        if self.workload == "random":
            # One cycle per connection: blend the infant-mortality break
            # probability (and its shorter on-air time) directly.
            latent_extra = (
                base_hazard
                * (cal.LATENT_HAZARD_MULTIPLIER - 1.0)
                * cal.LATENT_DEFECT_PACKETS
                * -np.expm1(-n_payloads / cal.LATENT_DEFECT_PACKETS)
            )
            h_latent = h_const + latent_extra / n_payloads
            p_break_latent = -np.expm1(-h_latent * n_payloads)
            p_defect = cal.LATENT_DEFECT_PROBABILITY
            p_loss = float(
                np.mean((1.0 - p_defect) * p_break + p_defect * p_break_latent)
            )
            self.duty_transfer = float(
                np.mean(
                    params["per_payload"]
                    * (
                        (1.0 - p_defect) * expected_payloads
                        + p_defect * p_break_latent / h_latent
                    )
                )
            )
            latent_loss_rate = 0.0
        else:
            # Connections persist for several cycles and a latent defect
            # mostly burns out within the first (n_payloads >> tau), so
            # amortise one extra per-connection break over the cycles.
            conn_payloads = n_payloads * params["cpc"].astype(np.float64)
            latent_conn = (
                base_hazard
                * (cal.LATENT_HAZARD_MULTIPLIER - 1.0)
                * cal.LATENT_DEFECT_PACKETS
                * -np.expm1(-conn_payloads / cal.LATENT_DEFECT_PACKETS)
            )
            latent_loss_rate = cal.LATENT_DEFECT_PROBABILITY * float(
                np.mean(-np.expm1(-latent_conn) / params["cpc"])
            )
            p_loss = float(np.mean(p_break)) + latent_loss_rate
            self.duty_transfer = float(
                np.mean(expected_payloads * params["per_payload"])
            )
        did_sdp = params["sdp"] | self.masking.sdp_before_pan
        fail_op = self._fail_ops(gen, params["scan"], did_sdp, _DUTY_PROBE)
        op_rate = np.bincount(fail_op.astype(np.int64), minlength=9) / float(
            _DUTY_PROBE
        )
        # Reconnect fraction: the random workload tears the connection
        # down every cycle; realistic connections persist ~U{1..20}
        # cycles, cut short by packet losses and scope>=2 recoveries.
        if self.workload == "random":
            reconnect_rate = 1.0
        else:
            reconnect_rate = (
                1.0 / _MEAN_CPC_REALISTIC + p_loss + _SCOPE_RECONNECT_RATE
            )
        self.duty_fraction = 1.0 - reconnect_rate * float(op_rate[1:].sum())
        inquiry_mean = (INQUIRY_DURATION_MIN + INQUIRY_DURATION_MAX) / 2.0
        sdp_mean = (SEARCH_DELAY_MIN + SEARCH_DELAY_MAX) / 2.0
        page_mean = (PAGE_DURATION_MIN + PAGE_DURATION_MAX) / 2.0
        connect_mean = (
            float(np.mean(np.where(params["scan"], inquiry_mean, 0.0)))
            + float(np.mean(np.where(did_sdp, sdp_mean, 0.0)))
            + page_mean
            + self._hci_command
            + SIGNALLING_DELAY
            + ROLE_SWITCH_DURATION
            + 1.25  # mean application set-up wait U(0.5, 2.0)
            + BIND_DELAY
        )
        failure_overhead = reconnect_rate * sum(
            float(op_rate[code]) * failure_costs[failure]
            for code, failure in enumerate(_OP_FAILURES)
            if failure is not None
        )
        failure_overhead += (
            self.duty_fraction
            * p_loss
            * failure_costs[UserFailureType.PACKET_LOSS]
        )
        self.duty_overhead = (
            float(np.mean(params["idle"]))
            + reconnect_rate * (connect_mean + self._hci_command)
            + failure_overhead
        )

    # -- failure materialisation ---------------------------------------------

    def _emit_evidence(self, activation: FaultActivation, manifest: float) -> None:
        """Schedule-free mirror of faults.evidence.emit_evidence."""
        rng = self.frng
        duration = self.duration
        for index, (failure_type, variant, origin) in enumerate(activation.evidence):
            if origin is Origin.NONE:
                continue
            if origin is Origin.LOCAL:
                log, peer = self.system_log, None
            else:
                log, peer = self.nap_log, self.profile.name
            if index == 0:
                delay = rng.uniform(0.0, 2.0)
            else:
                delay = min(
                    MAX_EVIDENCE_DELAY, rng.lognormvariate(LATENCY_MU, LATENCY_SIGMA)
                )
            when = manifest + delay
            if when <= duration:
                _write_error(log, when, failure_type, variant, peer, rng)
            if rng.random() < REPEAT_PROBABILITY:
                repeat_delay = delay + rng.uniform(6.0, 60.0)
                if repeat_delay <= MAX_EVIDENCE_DELAY:
                    when = manifest + repeat_delay
                    if when <= duration:
                        _write_error(log, when, failure_type, variant, peer, rng)

    def _handle_failure(
        self,
        t: float,
        failure: UserFailureType,
        activation: FaultActivation,
        chunk: _Chunk,
        index: int,
        packets_sent: int,
        cycle_on_connection: int,
        app_name: str,
    ) -> Tuple[float, bool, int]:
        """Masking/SIRA/reporting mirror of BlueTestClient._handle_failure.

        Returns ``(t_after, completed, scope)``: ``completed`` is False
        when the campaign horizon truncated the handling (counters and
        report then match what the event engine would have processed);
        ``scope`` is 0 for masked failures (no recovery side effects).
        """
        stats = self.stats
        rng = self.frng
        duration = self.duration
        masked = False
        if self.masking.applies_retry(failure):
            for _ in range(cal.RETRY_MASK_ATTEMPTS):
                t += cal.RETRY_MASK_WAIT
                if t > duration:
                    return t, False, 0
                if rng.random() < cal.RETRY_MASK_EFFECTIVENESS:
                    masked = True
                    break
        attempts: Tuple[RecoveryAttempt, ...] = ()
        scope = 0
        if masked:
            stats.masked += 1
        else:
            stats.failures += 1
            scope = activation.scope
            if scope > 0:
                chain: List[RecoveryAttempt] = []
                for action in _SIRA_ACTIONS:
                    sampled = action.sample_duration(rng)  # type: ignore[arg-type]
                    chain.append(
                        RecoveryAttempt(
                            action=action.name,
                            succeeded=action.level >= scope,
                            duration=sampled,
                        )
                    )
                    t += sampled
                    if action.level >= scope:
                        break
                attempts = tuple(chain)
            if t > duration:
                return t, False, scope
        packet_type = PACKET_TYPE_ORDER[chunk.pt_index[index]]
        self.test_log.append(
            TestLogRecord(
                time=t,
                node=self.id,
                testbed=self.testbed_name,
                workload=app_name,
                message=render_user_message(rng, failure),  # type: ignore[arg-type]
                phase=failure.group.value,
                packet_type=packet_type.value,
                packets_sent=packets_sent,
                packets_expected=chunk.n_logical[index],
                scan_flag=chunk.scan[index],
                sdp_flag=chunk.sdp_flag[index],
                distance=self.profile.distance,
                cycle_on_connection=cycle_on_connection,
                idle_before_cycle=chunk.idle[index],
                masked=masked,
                recovery=attempts,
            )
        )
        return t, True, scope

    # -- main loop ------------------------------------------------------------

    def run(self) -> None:
        """Advance this PANU's clock through the whole campaign."""
        duration = self.duration
        half = duration / 2.0
        stats = self.stats
        counts = stats.cycles_by_packet_type
        injector = self.injector
        traits = self.traits
        dilation = self.dilation
        hci_command = self._hci_command
        replaced = not self.hardware_replacement

        t = 0.0
        connected = False
        latent = False
        age = 0
        cycles_left = 0
        cycle_on_connection = 0

        is_random = self.workload == "random"
        type_count = len(PACKET_TYPE_ORDER)
        span_counts = [0] * type_count  # per-type cycles consumed by spans

        chunk = self._refill()  # local only: freed when run() returns
        while True:
            index = self._index
            if index >= _CHUNK:
                chunk = self._refill()
                index = 0

            # -- span fast paths (no scalar draws consumed) -------------------
            if is_random:
                if not connected:
                    j = chunk.next_special[index]
                    if j > index:
                        cum_dt = chunk.cum_dt
                        base = cum_dt[index - 1] if index else 0.0
                        total = cum_dt[j - 1] - base
                        if t + total <= duration:
                            # j - index boring one-cycle connections: only
                            # the clock and the counters move.
                            t += total
                            n_span = j - index
                            stats.cycles += n_span
                            self.connects += n_span
                            cum_counts = chunk.cum_counts
                            for k in range(type_count):
                                col = cum_counts[k]
                                span_counts[k] += col[j - 1] - (
                                    col[index - 1] if index else 0
                                )
                            # Residual state exactly as after a scalar
                            # boring cycle (op-failure records read it).
                            cycle_on_connection = 1
                            cycles_left = 0
                            latent = False
                            age = chunk.n_payloads[j - 1]
                            self._index = j
                            continue
            elif connected and not latent:
                j = chunk.next_bad[index]
                limit = index + cycles_left
                if j > limit:
                    j = limit
                if j > index:
                    cum_tr = chunk.cum_tr
                    base = cum_tr[index - 1] if index else 0.0
                    total = cum_tr[j - 1] - base
                    tend = t + total
                    if tend <= duration and (replaced or tend < half):
                        m = j - index
                        t = tend
                        stats.cycles += m
                        span_counts[_STACK_CHOICE_INDEX] += m
                        cum_idle = chunk.cum_idle
                        idle_total = cum_idle[j - 1] - (
                            cum_idle[index - 1] if index else 0.0
                        )
                        cum_np = chunk.cum_np
                        age += cum_np[j - 1] - (cum_np[index - 1] if index else 0)
                        cycles_left -= m
                        cycle_on_connection += m
                        self._index = j
                        if cycles_left <= 0:
                            # Mirror the scalar order: the disconnect
                            # command can cross the horizon, in which
                            # case the final cycle's idle bookkeeping
                            # never runs.
                            last_idle = chunk.idle[j - 1]
                            stats.idle_ok_sum += idle_total - last_idle
                            stats.idle_ok_count += m - 1
                            connected = False
                            t += hci_command  # L2CAP disconnect command
                            if t > duration:
                                break
                            stats.idle_ok_sum += last_idle
                            stats.idle_ok_count += 1
                        else:
                            stats.idle_ok_sum += idle_total
                            stats.idle_ok_count += m
                        continue

            self._index = index + 1

            idle = chunk.idle[index]
            t += idle
            if t > duration:
                break
            if not replaced and t >= half:
                # All dongles are swapped at half-time; every HCI handle
                # is invalidated, so connections are gone by the next
                # aliveness check (batch approximation: at cycle start).
                replaced = True
                connected = False
            stats.cycles += 1
            had_connection = connected
            pt_index = chunk.pt_index[index]
            key = PACKET_TYPE_ORDER[pt_index].code
            counts[key] = counts.get(key, 0) + 1
            app_name = "random" if is_random else _APPS[chunk.app_index[index]]

            if not connected:
                op = chunk.fail_op[index]
                if op != _OP_NONE:
                    scan_wait = chunk.inquiry_ok[index] if chunk.scan[index] else 0.0
                    if op == _OP_INQUIRY:
                        manifest = t
                        detect_extra = chunk.inquiry_fail[index]
                    elif op <= _OP_NAP_NOT_FOUND:
                        manifest = t + scan_wait
                        detect_extra = SDP_FAILURE_LATENCY
                    else:
                        sdp_wait = chunk.sdp_ok[index] if chunk.did_sdp[index] else 0.0
                        if op == _OP_L2CAP:
                            manifest = t + scan_wait + sdp_wait
                            detect_extra = COMMAND_TIMEOUT
                        else:
                            chained = (
                                t
                                + scan_wait
                                + sdp_wait
                                + chunk.page[index]
                                + hci_command
                                + SIGNALLING_DELAY
                            )
                            if op == _OP_BIND:
                                # The PAN connection itself came up; the
                                # IP-socket bind is what fails.
                                manifest = (
                                    chained + ROLE_SWITCH_DURATION + chunk.setup[index]
                                )
                                connected = True
                                self.connects += 1
                                latent = chunk.latent[index]
                                age = 0
                                cycles_left = chunk.cpc[index]
                                cycle_on_connection = 0
                            else:
                                manifest = chained
                            detect_extra = _OP_DETECT_LATENCY[op]
                    if manifest > duration:
                        break
                    failure = _OP_FAILURES[op]
                    assert failure is not None
                    activation = injector.activate(failure, traits)
                    self._emit_evidence(activation, manifest)
                    detect = manifest + detect_extra
                    if detect > duration:
                        break
                    t, completed, scope = self._handle_failure(
                        detect, failure, activation, chunk, index, 0,
                        cycle_on_connection, app_name,
                    )
                    if not completed:
                        break
                    if scope >= 2:
                        connected = False
                    if scope >= 4:
                        cycles_left = 0
                    continue
                t += chunk.connect_overhead[index]
                if t > duration:
                    break
                connected = True
                self.connects += 1
                latent = chunk.latent[index]
                age = 0
                cycles_left = chunk.cpc[index]
                cycle_on_connection = 0

            cycle_on_connection += 1
            status = chunk.status[index]
            event_index = chunk.event_index[index]
            transfer_s = chunk.transfer_s[index]
            if latent:
                status, event_index, transfer_s = self._resolve_latent(chunk, index, age)

            if status == TRANSFER_COMPLETED:
                t += transfer_s * dilation
                if t > duration:
                    break
                age += chunk.n_payloads[index]
                cycles_left -= 1
                if cycles_left <= 0:
                    connected = False
                    t += hci_command  # L2CAP disconnect command
                    if t > duration:
                        break
                if had_connection:
                    stats.idle_ok_sum += idle
                    stats.idle_ok_count += 1
                continue

            if status == TRANSFER_LOSS:
                detect = t + transfer_s * dilation + PACKET_LOSS_TIMEOUT
                if detect > duration:
                    break
                age += event_index
                packets_sent = age // chunk.per_logical[index]
                connected = False
                failure = UserFailureType.PACKET_LOSS
            else:
                detect = t + transfer_s * dilation
                if detect > duration:
                    break
                age += event_index
                packets_sent = 0
                failure = UserFailureType.DATA_MISMATCH
            activation = injector.activate(failure, traits)
            self._emit_evidence(activation, detect)
            t, completed, scope = self._handle_failure(
                detect, failure, activation, chunk, index, packets_sent,
                cycle_on_connection, app_name,
            )
            if not completed:
                break
            if scope >= 2:
                connected = False
            if scope >= 4:
                cycles_left = 0
            if had_connection:
                stats.idle_fail_sum += idle
                stats.idle_fail_count += 1

        for k in range(type_count):
            if span_counts[k]:
                key = PACKET_TYPE_ORDER[k].code
                counts[key] = counts.get(key, 0) + span_counts[k]
        # Like the chunk, the failure draws' buffers die with the run.
        self.frng.release()

    def _resolve_latent(
        self, chunk: _Chunk, index: int, age: int
    ) -> Tuple[int, int, float]:
        """Re-resolve one transfer under the infant-mortality hazard."""
        n_payloads = chunk.n_payloads[index]
        break_index = latent_break_index(
            chunk.u_break[index],
            chunk.h_const[index],
            cal.LINK_BREAK_HAZARD * chunk.app_mult[index],
            cal.LATENT_HAZARD_MULTIPLIER,
            cal.LATENT_DEFECT_PACKETS,
            float(age),
            n_payloads,
        )
        mismatch_index = (
            chunk.mismatch_index[index] if chunk.mismatch_has[index] else None
        )
        if mismatch_index is not None and (
            break_index is None or mismatch_index < break_index
        ):
            payloads = mismatch_index + 1
            return 2, mismatch_index, payloads * chunk.per_payload[index]
        if break_index is not None:
            payloads = break_index + 1
            return 1, break_index, payloads * chunk.per_payload[index]
        return 0, n_payloads, n_payloads * chunk.per_payload[index]


def execute_batch_campaign(
    spec: "CampaignSpec",
    observability: Optional[Any] = None,
    on_progress: Optional[Callable[[Any], None]] = None,
    progress_interval: Optional[float] = None,
) -> "CampaignResult":
    """Run one campaign replicate in batch fidelity.

    Mirrors ``_execute_campaign`` for ``fidelity="batch"``: same spec,
    same repository/result shape, vectorised execution.  Per-packet
    observability (metrics/tracing/profiling) needs the event engine,
    so passing a bundle is rejected — run ``fidelity="bit"`` for that.
    """
    from repro.core.campaign import CampaignResult, _gc_paused

    if observability is not None:
        raise ValueError(
            "fidelity='batch' does not support observability instrumentation "
            "(per-packet metrics/tracing need the bit-accurate engine); "
            "drop the bundle or run fidelity='bit'"
        )
    duration = float(spec.duration)
    if duration <= 0:
        raise ValueError("campaign duration must be positive")
    streams = RandomStreams(spec.seed)
    repository = CentralRepository()
    # Nothing is scheduled on it: running it to the horizon only moves
    # its clock, so progress probes see where the campaign stands.
    sim = Simulator()
    if on_progress is not None and progress_interval:
        on_progress(sim)
    testbeds: Dict[str, Any] = {}
    events_processed = 0
    failure_costs = _expected_failure_costs(spec.masking)
    with _gc_paused():
        for name in spec.workloads:
            if name not in ("random", "realistic"):
                raise ValueError(f"unknown workload: {name!r}")
            scoped = streams.fork(f"testbed/{name}")
            injector = FaultInjector(
                scoped.stream("injector"), tuning=spec.injector_tuning()
            )
            nap_profile = next(p for p in spec.profiles if p.is_nap)
            panu_profiles = [p for p in spec.profiles if not p.is_nap]
            nap_node = node_id(name, nap_profile.name)
            nap_log = SystemLog(nap_node, vendor=nap_profile.vendor)
            panus = [
                _PanuBatch(
                    name,
                    name,
                    profile,
                    nap_profile,
                    nap_log,
                    injector,
                    scoped,
                    spec.masking,
                    duration,
                    spec.hardware_replacement,
                )
                for profile in panu_profiles
            ]
            for panu in panus:
                panu.estimate_duty(failure_costs)
            _solve_dilation(panus)
            for panu in panus:
                panu.run()
                events_processed += panu.stats.cycles
            nap_noise = _ScalarDraws(
                scoped.numpy_stream(f"batch/noise/{nap_profile.name}")
            )
            _generate_noise(nap_log, nap_noise._gen, nap_noise, duration)
            for panu in panus:
                noise = _ScalarDraws(
                    scoped.numpy_stream(f"batch/noise/{panu.profile.name}")
                )
                _generate_noise(panu.system_log, noise._gen, noise, duration)
            # The NAP records no user-level data.
            _ship_node(nap_log, TestLog(nap_node), scoped, duration, repository)
            for panu in panus:
                _ship_node(panu.system_log, panu.test_log, scoped, duration, repository)
            testbeds[name] = _BatchTestbed(name, nap_node, panus)
    sim.run_until(duration)
    if on_progress is not None and progress_interval:
        on_progress(sim)
    return CampaignResult(
        duration=duration,
        seed=spec.seed,
        masking=spec.masking,
        repository=repository,
        testbeds=testbeds,
        sim=sim,
        observability=None,
        events_processed=events_processed,
    )


__all__ = ["execute_batch_campaign"]
