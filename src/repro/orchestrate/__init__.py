"""DAG-aware pass-ordering search over the SBM stage table.

The classic flow (:mod:`repro.sbm.flow`) runs one fixed stage waterfall.
``repro.orchestrate`` turns that table into an explorable program, after
DAG-aware Synthesis Orchestration (arXiv:2310.07846) and BoolGebra
(arXiv:2401.10753):

* :mod:`repro.orchestrate.search` — each round proposes K candidate stage
  sequences (permutations/subsets of the non-vital stages; vital stages
  stay pinned at the tail), evaluates them concurrently, keeps the winner
  by node count, and seeds the next round with it;
* :mod:`repro.orchestrate.bandit` — a seeded deterministic bandit prior
  over (previous stage → next stage) gain history drives candidate
  generation, so the search is bit-for-bit reproducible: no wall-clock
  feeds it, only node deltas;
* every candidate stage runs through :func:`repro.sbm.flow.run_stage`,
  the waterfall's own executor, so each result is memoized by
  (input-network fingerprint, stage name, semantic stage config) in a
  :class:`~repro.campaign.cache.StageMemo` backed by the ``stage`` slot of
  the campaign ``ResultCache`` — no explored branch is ever recomputed
  across rounds, orderings, campaigns, or waterfall runs; the search is
  a driver in the waterfall's flow shell, and records its round winners'
  stages with the waterfall's recorder.

Entry points: ``FlowConfig.orchestrate = OrchestrateConfig(...)`` (then
``sbm_flow`` runs the search), the ``python -m repro orchestrate`` CLI,
and ``--orchestrate K`` on ``optimize``/``campaign``/run_experiments.
"""

from repro.orchestrate.bandit import START, TransitionBandit
from repro.orchestrate.search import CandidateOutcome, orchestrated_flow

__all__ = [
    "CandidateOutcome",
    "START",
    "TransitionBandit",
    "orchestrated_flow",
]
