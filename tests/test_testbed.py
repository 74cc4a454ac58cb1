"""Tests for the node catalogue and the testbed deployment."""

import pytest

from repro.collection.repository import CentralRepository
from repro.recovery.masking import MaskingPolicy
from repro.sim import RandomStreams, Simulator
from repro.testbed.node import display_name, node_id
from repro.testbed.nodes import (
    ALL_PROFILES,
    AZZURRO,
    GIALLO,
    IPAQ,
    PANU_PROFILES,
    WIN,
    ZAURUS,
    distances,
    profile_by_name,
)
from repro.testbed.testbed import Testbed
from repro.workload.traffic import RandomWorkload


class TestCatalogue:
    def test_seven_machines_one_nap(self):
        assert len(ALL_PROFILES) == 7
        naps = [p for p in ALL_PROFILES if p.is_nap]
        assert [p.name for p in naps] == ["Giallo"]
        assert len(PANU_PROFILES) == 6

    def test_two_pdas_use_bcsp(self):
        pdas = [p for p in ALL_PROFILES if p.is_pda]
        assert {p.name for p in pdas} == {"Ipaq H3870", "Zaurus SL-5600"}
        assert all(p.transport == "bcsp" for p in pdas)
        assert IPAQ.traits.uses_bcsp and ZAURUS.traits.uses_bcsp

    def test_bind_prone_hosts(self):
        prone = {p.name for p in ALL_PROFILES if p.bind_prone}
        assert prone == {"Azzurro", "Win"}
        assert AZZURRO.distribution == "Fedora"
        assert WIN.os.startswith("MS Windows")

    def test_three_distances(self):
        assert distances() == [0.5, 5.0, 7.0]
        # Two PANUs per distance ring, per the topology figure.
        for d in distances():
            assert sum(1 for p in PANU_PROFILES if p.distance == d) == 2

    def test_profile_lookup(self):
        assert profile_by_name("Giallo") is GIALLO
        with pytest.raises(KeyError):
            profile_by_name("Rosso")

    def test_traits_match_profiles(self):
        for profile in ALL_PROFILES:
            traits = profile.traits
            assert traits.name == profile.name
            assert traits.uses_usb == (profile.transport == "usb")

    def test_node_id_helpers(self):
        assert node_id("random", "Verde") == "random:Verde"
        assert display_name("random:Verde") == "Verde"
        assert display_name("Verde") == "Verde"


class TestTestbedDeployment:
    def make_testbed(self, seed=0):
        sim = Simulator()
        repo = CentralRepository()
        bed = Testbed(
            sim,
            "random",
            RandomWorkload,
            repo,
            RandomStreams(seed),
            masking=MaskingPolicy.all_off(),
        )
        return sim, repo, bed

    def test_structure(self):
        _, _, bed = self.make_testbed()
        assert bed.nap.id == "random:Giallo"
        assert len(bed.panus) == 6
        assert len({bed.nap.id, *(panu.id for panu in bed.panus)}) == 7

    def test_needs_exactly_one_nap(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            Testbed(sim, "x", RandomWorkload, CentralRepository(),
                    RandomStreams(0), profiles=PANU_PROFILES)

    def test_channels_use_profile_distance(self):
        _, _, bed = self.make_testbed()
        for panu in bed.panus:
            assert panu.channel.config.distance == max(panu.profile.distance, 0.1)

    def test_run_produces_data_in_repository(self):
        sim, repo, bed = self.make_testbed(seed=2)
        bed.start()
        sim.run_until(4 * 3600.0)
        bed.final_collection()
        assert repo.user_level_count > 0
        assert repo.system_level_count > 0
        assert sum(client.stats.cycles for client in bed.clients()) > 50

    def test_nap_records_only_system_data(self):
        sim, repo, bed = self.make_testbed(seed=3)
        bed.start()
        sim.run_until(4 * 3600.0)
        bed.final_collection()
        assert list(repo.iter_records(kind="test", node=bed.nap.id)) == []
        assert list(repo.iter_records(kind="system", node=bed.nap.id))

    def test_hardware_replacement_resets_stacks(self):
        sim, _, bed = self.make_testbed(seed=4)
        bed.schedule_hardware_replacement(3600.0)
        bed.start()
        sim.run_until(2 * 3600.0)
        assert all(p.stack.stack_resets >= 1 for p in bed.panus)

    def test_background_noise_is_filtered_but_errors_ship(self):
        sim, repo, bed = self.make_testbed(seed=5)
        bed.start()
        sim.run_until(6 * 3600.0)
        bed.final_collection()
        shipped = list(repo.iter_records(kind="system"))
        assert all(r.severity == "error" for r in shipped)

    def test_distinct_seeds_distinct_outcomes(self):
        sim_a, repo_a, bed_a = self.make_testbed(seed=6)
        bed_a.start()
        sim_a.run_until(2 * 3600.0)
        bed_a.final_collection()
        sim_b, repo_b, bed_b = self.make_testbed(seed=7)
        bed_b.start()
        sim_b.run_until(2 * 3600.0)
        bed_b.final_collection()
        assert repo_a.total_items != repo_b.total_items

    def test_same_seed_reproducible(self):
        sim_a, repo_a, bed_a = self.make_testbed(seed=8)
        bed_a.start()
        sim_a.run_until(2 * 3600.0)
        bed_a.final_collection()
        sim_b, repo_b, bed_b = self.make_testbed(seed=8)
        bed_b.start()
        sim_b.run_until(2 * 3600.0)
        bed_b.final_collection()
        assert repo_a.total_items == repo_b.total_items
        assert [r.time for r in repo_a.iter_records(kind="test")] == [
            r.time for r in repo_b.iter_records(kind="test")
        ]
