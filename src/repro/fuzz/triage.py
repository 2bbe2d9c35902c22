"""Failure bundles, fingerprints, and the persistent fuzz corpus.

A failing case is only useful if someone else can replay it, so every
failure becomes one **self-contained JSON bundle**: the recipe, the
original and minimized networks (byte-stable CompactAig dicts — the same
encoding the cache layer uses), the oracle configuration (including any
fault plan the flow ran under), and the verdict.  ``python -m repro fuzz
repro <bundle>`` rebuilds everything from the bundle alone — no repo
state, no seed files, no corpus.

Bundles are **deduplicated by failure fingerprint**: SHA-256 over
``(failure kind, blamed stage, minimized-network content key)``.  Two
cases that crash the same stage the same way on the same minimal network
are one bug, not two artifacts.

The :class:`FuzzCorpus` is the growable half: cases whose
*stage-coverage signature* (which stages ran / changed the network —
see :func:`repro.fuzz.oracle._signature`) is novel are kept as recipe
files and replayed at the start of later runs, so nightly CI's cached
corpus ratchets coverage instead of rolling the same dice every night.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from typing import Any, Dict, List, Optional, Tuple

from repro.aig.aig import Aig
from repro.campaign.cache import atomic_write_text
from repro.fuzz.generators import CaseRecipe
from repro.fuzz.oracle import (CaseResult, OracleConfig, OracleFailure,
                               network_key, run_case)
from repro.parallel.window_io import CompactAig

BUNDLE_SCHEMA = "repro.fuzz/bundle-v1"
CORPUS_SCHEMA = "repro.fuzz/corpus-v1"


def compact_to_dict(compact: CompactAig) -> Dict[str, Any]:
    return {"num_pis": compact.num_pis,
            "gates": [list(gate) for gate in compact.gates],
            "outputs": list(compact.outputs),
            "name": compact.name}


def compact_from_dict(data: Dict[str, Any]) -> CompactAig:
    return CompactAig(num_pis=int(data["num_pis"]),
                      gates=[(int(g[0]), int(g[1])) for g in data["gates"]],
                      outputs=[int(out) for out in data["outputs"]],
                      name=str(data.get("name", "fuzz")))


def fingerprint_of(failure: OracleFailure, minimized: Aig) -> str:
    """Failure identity: exception kind + blamed stage + minimal network."""
    payload = "|".join([failure.kind, failure.stage or "",
                        network_key(minimized)])
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


@dataclasses.dataclass
class FailureBundle:
    """Everything needed to replay one failure from a single file."""

    recipe: Dict[str, Any]            #: ``CaseRecipe.to_dict()``
    oracle: Dict[str, Any]            #: ``OracleConfig.to_dict()``
    network: Dict[str, Any]           #: original input, CompactAig dict
    minimized: Optional[Dict[str, Any]]
    verdict: Dict[str, Any]           #: ``CaseResult.to_dict()``
    fingerprint: str

    def to_dict(self) -> Dict[str, Any]:
        return {"schema": BUNDLE_SCHEMA, "recipe": self.recipe,
                "oracle": self.oracle, "network": self.network,
                "minimized": self.minimized, "verdict": self.verdict,
                "fingerprint": self.fingerprint}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FailureBundle":
        if data.get("schema") != BUNDLE_SCHEMA:
            raise ValueError(f"not a fuzz bundle (schema="
                             f"{data.get('schema')!r}, expected "
                             f"{BUNDLE_SCHEMA!r})")
        OracleConfig.from_dict(data["oracle"])  # bad check or fault plan
        return cls(recipe=dict(data["recipe"]), oracle=dict(data["oracle"]),
                   network=dict(data["network"]),
                   minimized=(dict(data["minimized"])
                              if data.get("minimized") else None),
                   verdict=dict(data["verdict"]),
                   fingerprint=str(data["fingerprint"]))

    @property
    def primary(self) -> Optional[OracleFailure]:
        failures = [OracleFailure.from_dict(f)
                    for f in self.verdict.get("failures", [])]
        return CaseResult(failures=failures).primary


def build_bundle(recipe: CaseRecipe, config: OracleConfig, network: Aig,
                 verdict: CaseResult,
                 minimized: Optional[Aig]) -> FailureBundle:
    """Assemble the bundle for one failing case."""
    primary = verdict.primary
    assert primary is not None, "build_bundle called on a passing case"
    anchor = minimized if minimized is not None else network
    return FailureBundle(
        recipe=recipe.to_dict(), oracle=config.to_dict(),
        network=compact_to_dict(CompactAig.from_aig(network)),
        minimized=(compact_to_dict(CompactAig.from_aig(minimized))
                   if minimized is not None else None),
        verdict=verdict.to_dict(),
        fingerprint=fingerprint_of(primary, anchor))


def write_bundle(directory: str, bundle: FailureBundle) -> Tuple[str, bool]:
    """Commit *bundle* under its fingerprint: ``(path, newly_written)``.

    The fingerprint is the file name, so re-finding a known bug is a
    no-op — that is the dedup.
    """
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"bundle-{bundle.fingerprint}.json")
    if os.path.exists(path):
        return path, False
    atomic_write_text(path, json.dumps(bundle.to_dict(), sort_keys=True,
                                       indent=1) + "\n")
    return path, True


def load_bundle(path: str) -> FailureBundle:
    with open(path, "r", encoding="utf-8") as handle:
        return FailureBundle.from_dict(json.load(handle))


@dataclasses.dataclass
class ReplayResult:
    """Outcome of replaying a bundle against the current code."""

    verdict: CaseResult
    reproduced: bool      #: primary (check, kind, stage) matches the bundle
    expected: Optional[OracleFailure]


def replay_bundle(bundle: FailureBundle,
                  minimized: bool = True) -> ReplayResult:
    """Re-run the oracle on the bundled network; compare primary verdicts.

    Replays the *minimized* network by default (the original with
    ``minimized=False``).  The bundled oracle config carries its fault
    plan, so a soundness self-test replays against the same deliberately
    broken flow it was recorded against.
    """
    source = bundle.minimized if (minimized and bundle.minimized) \
        else bundle.network
    aig = compact_from_dict(source).to_aig()
    verdict = run_case(aig, OracleConfig.from_dict(bundle.oracle))
    expected = bundle.primary
    actual = verdict.primary
    reproduced = (expected is not None and actual is not None
                  and actual.check == expected.check
                  and actual.kind == expected.kind
                  and actual.stage == expected.stage)
    return ReplayResult(verdict=verdict, reproduced=reproduced,
                        expected=expected)


class FuzzCorpus:
    """Recipes whose stage-coverage signature was novel, kept on disk.

    One JSON file per signature (``sig-<signature>.json``), so the
    corpus is trivially mergeable and cache-friendly: nightly CI
    restores the directory, the run replays every kept recipe first,
    and newly novel cases are added for the next night.
    """

    def __init__(self, root: str) -> None:
        self.root = os.path.abspath(root)
        self.signatures: Dict[str, CaseRecipe] = {}
        self.added = 0
        try:
            os.makedirs(self.root, exist_ok=True)
            names = sorted(os.listdir(self.root))
        except OSError:
            names = []  # unusable corpus dir: degrade to in-memory only
        for name in names:
            if not (name.startswith("sig-") and name.endswith(".json")):
                continue
            try:
                with open(os.path.join(self.root, name), "r",
                          encoding="utf-8") as handle:
                    data = json.load(handle)
                if data.get("schema") != CORPUS_SCHEMA:
                    continue
                self.signatures[str(data["signature"])] = \
                    CaseRecipe.from_dict(data["recipe"])
            except (OSError, ValueError, KeyError):
                continue  # an unreadable entry is skipped, never fatal

    def __len__(self) -> int:
        return len(self.signatures)

    def recipes(self) -> List[CaseRecipe]:
        """Kept recipes in signature order (stable across machines)."""
        return [self.signatures[sig] for sig in sorted(self.signatures)]

    def add_if_novel(self, recipe: CaseRecipe, signature: str) -> bool:
        """Keep *recipe* when *signature* is new; True when kept."""
        if not signature or signature in self.signatures:
            return False
        self.signatures[signature] = recipe
        path = os.path.join(self.root, f"sig-{signature}.json")
        document = {"schema": CORPUS_SCHEMA, "signature": signature,
                    "recipe": recipe.to_dict()}
        try:
            atomic_write_text(path, json.dumps(document, sort_keys=True)
                              + "\n")
        except OSError:
            return False  # an unwritable corpus degrades to in-memory
        self.added += 1
        return True
