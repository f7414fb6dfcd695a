"""Coverage-guided differential fuzzing campaigns.

The fifth subsystem: a scenario-discovery loop closing the feedback
path between the mutation operators (:mod:`repro.probing.mutators`),
the feature-coverage matrix (:mod:`repro.corpus.coverage`) and the two
independently-implemented execution backends (``walk`` vs ``closure``).

* :mod:`repro.fuzz.operators` — composable mutation operators (the
  paper's five issue types plus clause shuffles, bound perturbations,
  directive-nesting splices and dead-store injection);
* :mod:`repro.fuzz.differential` — every candidate runs through BOTH
  backends; any observable divergence is a first-class
  :class:`~repro.fuzz.differential.Discrepancy` finding;
* :mod:`repro.fuzz.signature` — behaviour signatures (rc / fault /
  steps buckets) that, with feature idents, define the coverage
  frontier driving adaptive operator weights;
* :mod:`repro.fuzz.campaign` — the round-based campaign engine: each
  round mutates a batch, then runs every candidate's differential →
  triage chain (:mod:`repro.fuzz.stages`) in a loop or, one task per
  candidate, in a process pool;
* :mod:`repro.fuzz.manifest` — deterministic replay from a campaign
  manifest (seed + recorded operator schedule);
* :mod:`repro.fuzz.minimize` — greedy corpus minimizer preserving the
  coverage frontier.
"""

from repro.fuzz.campaign import (
    Campaign,
    CampaignConfig,
    CampaignResult,
)
from repro.fuzz.differential import DifferentialOutcome, DifferentialRunner, Discrepancy
from repro.fuzz.manifest import CampaignManifest, replay_manifest
from repro.fuzz.minimize import minimize_corpus
from repro.fuzz.operators import FuzzOperator, default_operators
from repro.fuzz.signature import behavior_signature, coverage_keys

__all__ = [
    "Campaign",
    "CampaignConfig",
    "CampaignManifest",
    "CampaignResult",
    "DifferentialOutcome",
    "DifferentialRunner",
    "Discrepancy",
    "FuzzOperator",
    "behavior_signature",
    "coverage_keys",
    "default_operators",
    "minimize_corpus",
    "replay_manifest",
]
