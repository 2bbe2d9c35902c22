"""Differential workload fuzzing for the SBM flow (``repro.fuzz``).

The paper's engines earned trust by surviving thousands of industrial
designs; this package replaces that corpus with *generated* adversity.
Seeded generators (:mod:`repro.fuzz.generators`) produce random AIGs,
random SOP networks, and structural mutants of the EPFL registry designs;
a differential oracle stack (:mod:`repro.fuzz.oracle`) runs the full SBM
flow on each case and cross-examines the result — SAT CEC against the
input, ``jobs=N`` vs serial bit-identity, crash/timeout capture, and
chaos-seed sweeps layered on top.  Failures are shrunk to a local minimum
(:mod:`repro.fuzz.minimize`) and written as self-contained repro bundles
(:mod:`repro.fuzz.triage`) replayable with ``python -m repro fuzz repro
<bundle>``.

Everything is deterministic: a case is its ``(generator, seed, params)``
recipe, oracle decisions depend only on the recipe and the oracle
config, and the minimizer is a fixed-order greedy reducer — the same
seed always produces the same verdicts, which is what lets CI run a
fixed budget and fail on *any* oracle verdict.
"""

from repro.fuzz.generators import CaseRecipe, build_case, iter_recipes
from repro.fuzz.minimize import MinimizeResult, minimize
from repro.fuzz.oracle import CaseResult, OracleConfig, OracleFailure, run_case
from repro.fuzz.runner import FuzzConfig, FuzzReport, load_fuzz_suite, run_fuzz
from repro.fuzz.triage import (FailureBundle, FuzzCorpus, load_bundle,
                               replay_bundle, write_bundle)

__all__ = [
    "CaseRecipe", "build_case", "iter_recipes",
    "OracleConfig", "OracleFailure", "CaseResult", "run_case",
    "MinimizeResult", "minimize",
    "FailureBundle", "FuzzCorpus", "load_bundle", "replay_bundle",
    "write_bundle",
    "FuzzConfig", "FuzzReport", "load_fuzz_suite", "run_fuzz",
]
