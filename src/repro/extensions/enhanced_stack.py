"""The "enhanced BlueZ" configuration.

The paper's conclusion: "At time of this writing we are carrying out an
enhanced version of the Linux BlueZ BT protocol stack, which includes
all the findings we gathered from the analysis."  This module packages
those findings as a deployable configuration:

* all three error masking strategies (bind wait, retry, SDP-before-PAN);
* an increased switch-role API timeout (the §4 suggestion for
  switch-role-request failures), carried as :class:`InjectorTuning`;
* the SIRA cascade as the recovery engine (always on in this library).

:func:`run_enhanced_campaign` runs a campaign with the whole bundle
applied, for comparison against a plain :func:`repro.api.run`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.core.campaign import CampaignResult, DEFAULT_DURATION, _execute_campaign
from repro.faults.injector import InjectorTuning
from repro.recovery.masking import MaskingPolicy


@dataclass(frozen=True)
class EnhancedStackConfig:
    """Everything the paper's findings change about the stack."""

    masking: MaskingPolicy = field(default_factory=MaskingPolicy.all_on)
    tuning: InjectorTuning = field(
        default_factory=lambda: InjectorTuning(sw_role_timeout_factor=3.0)
    )

    @classmethod
    def plain(cls) -> "EnhancedStackConfig":
        """The stock stack: no masking, stock timeouts."""
        return cls(masking=MaskingPolicy.all_off(), tuning=InjectorTuning())


def run_enhanced_campaign(
    duration: float = DEFAULT_DURATION,
    seed: int = 0,
    config: EnhancedStackConfig = None,
    workloads: Sequence[str] = ("random", "realistic"),
) -> CampaignResult:
    """Run a campaign whose testbeds use the enhanced-stack bundle."""
    config = config or EnhancedStackConfig()
    return _execute_campaign(
        duration=duration,
        seed=seed,
        masking=config.masking,
        workloads=workloads,
        hardware_replacement=False,
        tuning=config.tuning,
    )


__all__ = ["EnhancedStackConfig", "run_enhanced_campaign"]
