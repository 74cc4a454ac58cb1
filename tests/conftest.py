"""Shared fixtures: simulators, stacks, and session-scoped campaigns.

Campaigns are expensive (seconds each), so integration tests share two
session-scoped runs: a masking-off baseline and a masking-on variant.
"""

from __future__ import annotations

import random
import warnings

import pytest

from repro.bluetooth.channel import Channel, ChannelConfig
from repro.bluetooth.pan import NapService
from repro.bluetooth.stack import BluetoothStack
from repro.collection.logs import SystemLog
from repro import api
from repro.faults.injector import FaultInjector, NodeTraits
from repro.recovery.masking import MaskingPolicy
from repro.sim import RandomStreams, Simulator

HOURS = 3600.0


def pytest_configure(config):
    """Assert warning-free collection: importing the tree is silent.

    No module may emit a ``DeprecationWarning`` at import time, whether
    its own or one from a library it calls, so importing the main
    modules under ``error::DeprecationWarning`` must not raise.
    """
    import importlib

    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        for module in (
            "repro",
            "repro.api",
            "repro.cli",
            "repro.collection.store",
            "repro.core.campaign",
            "repro.obs",
            "repro.obs.campaign",
            "repro.obs.journal",
            "repro.parallel",
            "repro.analysis",
        ):
            importlib.import_module(module)


@pytest.fixture
def sim():
    return Simulator()


@pytest.fixture
def rng():
    return random.Random(1234)


@pytest.fixture
def streams():
    return RandomStreams(99)


def make_stack(sim, name="Verde", transport="usb", bind_prone=False, seed=7):
    """Build one PANU stack wired to a fresh NAP (no workload)."""
    streams = RandomStreams(seed)
    nap_log = SystemLog("random:Giallo", streams.stream("nap-log"), clock=lambda: sim.now)
    nap = NapService("Giallo", nap_log)
    traits = NodeTraits(
        name=name,
        uses_bcsp=transport == "bcsp",
        uses_usb=transport == "usb",
        bind_prone=bind_prone,
    )
    system_log = SystemLog(
        f"random:{name}", streams.stream("panu-log"), clock=lambda: sim.now
    )
    channel = Channel(ChannelConfig(distance=1.0), streams.stream("channel"))
    injector = FaultInjector(streams.stream("injector"))
    stack = BluetoothStack(
        sim,
        traits,
        system_log,
        injector,
        streams.stream("stack"),
        channel,
        nap,
        transport_kind=transport,
    )
    return stack


@pytest.fixture
def stack(sim):
    return make_stack(sim)


def drive(sim, generator):
    """Run a stack-operation generator to completion; returns its value."""
    from repro.sim import spawn

    proc = spawn(sim, generator)
    sim.run()
    if proc.exception is not None:
        raise proc.exception
    return proc.result


@pytest.fixture(scope="session")
def baseline_campaign():
    """12 simulated hours, both testbeds, masking off."""
    return api.run(duration=12 * HOURS, seed=1001)


@pytest.fixture(scope="session")
def masked_campaign():
    """12 simulated hours, both testbeds, all masking strategies on."""
    return api.run(duration=12 * HOURS, seed=2002, masking=MaskingPolicy.all_on())
