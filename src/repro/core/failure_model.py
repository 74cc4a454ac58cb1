"""The Bluetooth PAN failure model (Table 1 of the paper).

Failures are observed at two levels:

* **User level** — the failure as a user of a PANU device perceives it,
  grouped by the utilisation phase in which it manifests (searching for
  devices/services, connecting, transferring data).
* **System level** — errors registered by system software (BT stack
  modules and OS drivers) in the system log.  When a user-level failure
  manifests, one or more system-level failures are typically registered
  in the same period: system-level failures act as *errors* for
  user-level *failures*.

This module is the shared vocabulary: the simulated stack raises these
types, the collection infrastructure logs them, and the analysis
pipeline classifies and cross-tabulates them.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Tuple


class UserFailureGroup(enum.Enum):
    """Utilisation phase in which a user-level failure manifests."""

    SEARCH = "Search"
    CONNECT = "Connect"
    DATA_TRANSFER = "Data Transfer"


class UserFailureType(enum.Enum):
    """User-level failure types of the Bluetooth PAN failure model."""

    INQUIRY_SCAN_FAILED = "Inquiry/Scan failed"
    SDP_SEARCH_FAILED = "SDP search failed"
    NAP_NOT_FOUND = "NAP not found"
    CONNECT_FAILED = "Connect failed"
    PAN_CONNECT_FAILED = "PAN connect failed"
    BIND_FAILED = "Bind failed"
    SW_ROLE_REQUEST_FAILED = "Switch role request failed"
    SW_ROLE_COMMAND_FAILED = "Switch role command failed"
    PACKET_LOSS = "Packet loss"
    DATA_MISMATCH = "Data mismatch"

    @property
    def group(self) -> UserFailureGroup:
        return _USER_GROUPS[self]

    @property
    def description(self) -> str:
        return _USER_DESCRIPTIONS[self]


class SystemLocation(enum.Enum):
    """Where a system-level failure is located."""

    BT_STACK = "BT Stack related"
    OS_DRIVERS = "OS, Drivers related"


class SystemFailureType(enum.Enum):
    """System-level failure types (errors, from the user's viewpoint)."""

    HCI = "HCI"
    L2CAP = "L2CAP"
    SDP = "SDP"
    BCSP = "BCSP"
    BNEP = "BNEP"
    USB = "USB"
    HOTPLUG = "Hotplug timeout"

    @property
    def location(self) -> SystemLocation:
        return _SYSTEM_LOCATIONS[self]

    @property
    def description(self) -> str:
        return _SYSTEM_DESCRIPTIONS[self]


_USER_GROUPS: Dict[UserFailureType, UserFailureGroup] = {
    UserFailureType.INQUIRY_SCAN_FAILED: UserFailureGroup.SEARCH,
    UserFailureType.SDP_SEARCH_FAILED: UserFailureGroup.SEARCH,
    UserFailureType.NAP_NOT_FOUND: UserFailureGroup.SEARCH,
    UserFailureType.CONNECT_FAILED: UserFailureGroup.CONNECT,
    UserFailureType.PAN_CONNECT_FAILED: UserFailureGroup.CONNECT,
    UserFailureType.BIND_FAILED: UserFailureGroup.CONNECT,
    UserFailureType.SW_ROLE_REQUEST_FAILED: UserFailureGroup.CONNECT,
    UserFailureType.SW_ROLE_COMMAND_FAILED: UserFailureGroup.CONNECT,
    UserFailureType.PACKET_LOSS: UserFailureGroup.DATA_TRANSFER,
    UserFailureType.DATA_MISMATCH: UserFailureGroup.DATA_TRANSFER,
}

_USER_DESCRIPTIONS: Dict[UserFailureType, str] = {
    UserFailureType.INQUIRY_SCAN_FAILED: (
        "The inquiry procedure terminates abnormally."
    ),
    UserFailureType.SDP_SEARCH_FAILED: (
        "The SDP Search procedure terminates abnormally."
    ),
    UserFailureType.NAP_NOT_FOUND: (
        "The SDP procedure does not find the NAP, even if it is present."
    ),
    UserFailureType.CONNECT_FAILED: (
        "The device fails to establish the L2CAP connection with the NAP."
    ),
    UserFailureType.PAN_CONNECT_FAILED: (
        "The PANU fails to establish the PAN connection with the NAP."
    ),
    UserFailureType.BIND_FAILED: (
        "The IP socket cannot bind the Bluetooth BNEP interface."
    ),
    UserFailureType.SW_ROLE_REQUEST_FAILED: (
        "The switch role request does not reach the master."
    ),
    UserFailureType.SW_ROLE_COMMAND_FAILED: (
        "The request succeeds, but the command completes abnormally."
    ),
    UserFailureType.PACKET_LOSS: (
        "An expected packet is lost, since a timeout (set to 30 secs) expires."
    ),
    UserFailureType.DATA_MISMATCH: (
        "The packet is received correctly, but the data content is corrupted."
    ),
}

_SYSTEM_LOCATIONS: Dict[SystemFailureType, SystemLocation] = {
    SystemFailureType.HCI: SystemLocation.BT_STACK,
    SystemFailureType.L2CAP: SystemLocation.BT_STACK,
    SystemFailureType.SDP: SystemLocation.BT_STACK,
    SystemFailureType.BCSP: SystemLocation.BT_STACK,
    SystemFailureType.BNEP: SystemLocation.BT_STACK,
    SystemFailureType.USB: SystemLocation.OS_DRIVERS,
    SystemFailureType.HOTPLUG: SystemLocation.OS_DRIVERS,
}

_SYSTEM_DESCRIPTIONS: Dict[SystemFailureType, str] = {
    SystemFailureType.HCI: (
        "Command for unknown connection handle; timeout in the "
        "transmission of the command to the BT firmware."
    ),
    SystemFailureType.L2CAP: (
        "Unexpected start or continuation frames received."
    ),
    SystemFailureType.SDP: (
        "Connection with the SDP server refused or timed out; AP "
        "unavailable or not implementing the required service, even if "
        "it implements it."
    ),
    SystemFailureType.BCSP: "Out of order or missing BCSP packets.",
    SystemFailureType.BNEP: (
        "Failed to add a connection; can't locate module bnep0; bnep occupied."
    ),
    SystemFailureType.USB: (
        "The USB device does not accept new addresses to communicate "
        "with the BT hardware."
    ),
    SystemFailureType.HOTPLUG: (
        "The Hardware Abstraction Layer (HAL) daemon times out waiting "
        "for a hotplug event."
    ),
}


#: Raw system-log message templates, keyed by (system type, variant).
#: The collection layer emits these strings; the classifier recovers the
#: type from the raw text, as the paper's analysis did with real logs.
SYSTEM_MESSAGE_TEMPLATES: Dict[Tuple[SystemFailureType, str], str] = {
    (SystemFailureType.HCI, "timeout"): "hci: command tx timeout (opcode 0x{opcode:04x})",
    (SystemFailureType.HCI, "invalid_handle"): (
        "hci: command for unknown connection handle {handle}"
    ),
    (SystemFailureType.L2CAP, "unexpected_start"): (
        "l2cap: unexpected start frame (cid {cid})"
    ),
    (SystemFailureType.L2CAP, "unexpected_cont"): (
        "l2cap: unexpected continuation frame (cid {cid})"
    ),
    (SystemFailureType.SDP, "refused"): "sdp: connection with SDP server refused",
    (SystemFailureType.SDP, "timeout"): "sdp: request timed out",
    (SystemFailureType.SDP, "unavailable"): (
        "sdp: access point unavailable or service not implemented"
    ),
    (SystemFailureType.BCSP, "out_of_order"): (
        "bcsp: out of order packet (seq {seq}, expected {expected})"
    ),
    (SystemFailureType.BCSP, "missing"): "bcsp: missing packet (ack {seq})",
    (SystemFailureType.BNEP, "add_failed"): "bnep: failed to add connection",
    (SystemFailureType.BNEP, "no_module"): "bnep: can't locate module bnep0",
    (SystemFailureType.BNEP, "occupied"): "bnep: device bnep0 occupied",
    (SystemFailureType.USB, "no_address"): (
        "usb: device not accepting new address (error -71)"
    ),
    (SystemFailureType.HOTPLUG, "timeout"): (
        "hal: timed out waiting for hotplug event"
    ),
}


@dataclass(frozen=True)
class FailureModel:
    """The full Table 1 taxonomy, exposed as a queryable object."""

    @staticmethod
    def user_types_in_group(group: UserFailureGroup) -> Tuple[UserFailureType, ...]:
        return tuple(t for t in UserFailureType if t.group is group)

    @staticmethod
    def system_types_in_location(
        location: SystemLocation,
    ) -> Tuple[SystemFailureType, ...]:
        return tuple(t for t in SystemFailureType if t.location is location)

    @staticmethod
    def as_table() -> str:
        """Render the failure model as an ASCII table (Table 1)."""
        lines = ["Bluetooth PAN Failure Model", "=" * 70, "", "User Level Failures", "-" * 70]
        for group in UserFailureGroup:
            lines.append(f"[{group.value}]")
            for t in FailureModel.user_types_in_group(group):
                lines.append(f"  {t.value:<28s} {t.description}")
        lines += ["", "System Level Failures", "-" * 70]
        for location in SystemLocation:
            lines.append(f"[{location.value}]")
            for t in FailureModel.system_types_in_location(location):
                lines.append(f"  {t.value:<28s} {t.description}")
        return "\n".join(lines)


__all__ = [
    "UserFailureGroup",
    "UserFailureType",
    "SystemLocation",
    "SystemFailureType",
    "SYSTEM_MESSAGE_TEMPLATES",
    "FailureModel",
]
