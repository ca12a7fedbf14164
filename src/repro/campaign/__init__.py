"""Campaign orchestration: figure-level experiments as sharded,
resumable sweeps of store-addressed Monte-Carlo work units."""

from repro.campaign.orchestrator import (
    ALL_TARGET,
    CAMPAIGN_EXPERIMENTS,
    CampaignReport,
    CampaignStatus,
    campaign_status,
    plan_campaign,
    run_campaign,
)

__all__ = [
    "ALL_TARGET",
    "CAMPAIGN_EXPERIMENTS",
    "CampaignReport",
    "CampaignStatus",
    "campaign_status",
    "plan_campaign",
    "run_campaign",
]
