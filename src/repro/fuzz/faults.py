"""Test-only fault hook: a deliberately buggy "rewrite" behind a switch.

The fuzzer's soundness is only testable against a flow that is actually
broken, so this module provides the *one* sanctioned way to break it: an
:class:`InjectedFault` wraps the flow result produced inside
:func:`repro.fuzz.oracle` and corrupts it deterministically.  Production
code never consults this hook — only the oracle's flow wrapper does, and
only when a fault has been installed programmatically
(:func:`injected`) or via the ``REPRO_FUZZ_INJECT`` environment variable
(which is what lets ``python -m repro fuzz repro <bundle>`` reproduce an
injected bug in a fresh process).

Fault kinds (spec syntax ``kind:threshold``):

* ``flip-po`` — complement PO 0 of the flow result whenever the *input*
  network has at least ``threshold`` AND gates.  Mimics a miscompiled
  rewrite; caught by the SAT CEC oracle rung.
* ``crash`` — raise ``RuntimeError`` under the same condition; caught by
  the crash-capture rung.
* ``jobs-flip`` — flip PO 0 only when the flow ran with ``jobs > 1``, so
  only the jobs-bit-identity rung trips.

Thresholds condition on the input size so the minimizer has room to
shrink a failing network while keeping the failure alive.
"""

from __future__ import annotations

import contextlib
import os
from dataclasses import dataclass
from typing import Iterator, Optional

from repro.aig.aig import Aig

#: Environment variable consulted when no fault is installed in-process.
ENV_VAR = "REPRO_FUZZ_INJECT"

FAULT_KINDS = ("flip-po", "crash", "jobs-flip")

_ACTIVE: Optional["InjectedFault"] = None


@dataclass(frozen=True)
class InjectedFault:
    """A parsed ``kind:threshold`` fault spec."""

    kind: str
    threshold: int

    @property
    def spec(self) -> str:
        return f"{self.kind}:{self.threshold}"

    @classmethod
    def parse(cls, spec: str) -> "InjectedFault":
        kind, _, raw = spec.partition(":")
        if kind not in FAULT_KINDS:
            raise ValueError(f"unknown injected-fault kind {kind!r} "
                             f"(expected one of {FAULT_KINDS})")
        try:
            threshold = int(raw) if raw else 1
        except ValueError:
            raise ValueError(
                f"injected-fault threshold must be an integer, got {raw!r}"
            ) from None
        return cls(kind=kind, threshold=threshold)

    def apply(self, result: Aig, source: Aig, jobs: int) -> Aig:
        """The corrupted flow result (or *result* unchanged)."""
        if source.num_ands < self.threshold:
            return result
        if self.kind == "crash":
            raise RuntimeError(f"injected fault: crash (spec={self.spec})")
        if self.kind == "jobs-flip" and jobs <= 1:
            return result
        return _flip_first_po(result)


def _flip_first_po(aig: Aig) -> Aig:
    """A copy of *aig* with its first primary output complemented."""
    if aig.num_pos == 0:
        return aig
    from repro.parallel.window_io import CompactAig
    compact = CompactAig.from_aig(aig)
    compact.outputs[0] ^= 1
    return compact.to_aig()


def active() -> Optional[InjectedFault]:
    """The installed fault, else the ``REPRO_FUZZ_INJECT`` one, else None."""
    if _ACTIVE is not None:
        return _ACTIVE
    spec = os.environ.get(ENV_VAR)
    if spec:
        return InjectedFault.parse(spec)
    return None


@contextlib.contextmanager
def injected(spec: Optional[str]) -> Iterator[Optional[InjectedFault]]:
    """Install the fault described by *spec* for the duration of the block.

    ``None`` is a no-op context so callers can forward an optional spec
    unconditionally.  Contexts nest; the innermost wins.
    """
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = InjectedFault.parse(spec) if spec is not None else previous
    try:
        yield _ACTIVE
    finally:
        _ACTIVE = previous
