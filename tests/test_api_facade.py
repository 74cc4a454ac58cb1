"""Tests for the unified experiment facade (:mod:`repro.api`).

Pins the redesign's contract: the facade is the one executor and the
config surface is keyword-only.
"""

import warnings

import pytest

import repro
from repro import api
from repro.api import ExperimentConfig
from repro.core.campaign import CampaignSpec
from repro.recovery.masking import MaskingPolicy

HOURS = 3600.0
DURATION = 1 * HOURS
SEED = 5


@pytest.fixture(scope="module")
def facade_result():
    """One short campaign through the facade, shared across assertions."""
    return api.run(duration=DURATION, seed=SEED)


class TestExperimentConfig:
    def test_constructor_is_keyword_only(self):
        with pytest.raises(TypeError):
            ExperimentConfig(DURATION, SEED)  # noqa: the point of the test

    def test_rejects_non_positive_duration(self):
        with pytest.raises(ValueError):
            ExperimentConfig(duration=0.0)
        with pytest.raises(ValueError):
            ExperimentConfig(duration=-1.0)

    def test_defaults_mirror_campaign_spec(self):
        config = ExperimentConfig()
        spec = CampaignSpec()
        assert config.spec() == spec

    def test_spec_round_trip(self):
        config = ExperimentConfig(
            duration=DURATION,
            seed=SEED,
            masking=MaskingPolicy.all_on(),
            workloads=("random",),
            hardware_replacement=False,
        )
        assert ExperimentConfig.from_spec(config.spec()) == config

    def test_replace_returns_modified_copy(self):
        config = ExperimentConfig(duration=DURATION, seed=SEED)
        other = config.replace(seed=SEED + 1)
        assert other.seed == SEED + 1
        assert other.duration == config.duration
        assert config.seed == SEED

    def test_slots_prevent_ad_hoc_attributes(self):
        config = ExperimentConfig()
        with pytest.raises(AttributeError):
            config.typo_field = 1

    def test_repr_names_every_field(self):
        text = repr(ExperimentConfig(duration=DURATION, seed=SEED))
        for field in ("duration", "seed", "masking", "workloads",
                      "profiles", "hardware_replacement"):
            assert field in text

    def test_exported_from_top_level(self):
        assert repro.ExperimentConfig is ExperimentConfig
        assert repro.api.run is api.run


class TestFacadeExecution:
    def test_run_produces_a_campaign(self, facade_result):
        assert facade_result.duration == DURATION
        assert facade_result.seed == SEED
        assert facade_result.repository.total_items > 0

    def test_module_run_equals_config_run(self, facade_result):
        via_config = ExperimentConfig(duration=DURATION, seed=SEED).run()
        assert (
            via_config.repository.to_payload()
            == facade_result.repository.to_payload()
        )

    def test_sweep_routes_campaign_keywords(self):
        result = api.sweep(2, jobs=1, duration=DURATION, seed=SEED)
        assert result.spec == CampaignSpec(duration=DURATION, seed=SEED)
        assert len(result.shards) == 2

    def test_facade_emits_no_deprecation_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            api.run(duration=DURATION, seed=SEED)
            api.sweep(1, duration=DURATION, seed=SEED)
            ExperimentConfig(duration=DURATION, seed=SEED).run()
