"""Exception types shared across the repro package."""


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class AigError(ReproError):
    """Raised on structural misuse of an :class:`repro.aig.Aig`."""


class AigerParseError(AigError):
    """Malformed AIGER input (ASCII ``.aag`` or binary ``.aig``).

    Carries the location of the defect: ``line`` (1-based) for the ASCII
    reader and the text parts of the binary format, ``offset`` (0-based
    byte position) for the binary delta stream.  Subclasses
    :class:`AigError` so existing ``except AigError`` call sites keep
    catching malformed files; fuzzed inputs must never surface a bare
    ``ValueError``/``IndexError`` or silently misparse.
    """

    def __init__(self, message: str, line=None, offset=None):
        where = []
        if line is not None:
            where.append(f"line {line}")
        if offset is not None:
            where.append(f"byte offset {offset}")
        super().__init__(f"{message} ({', '.join(where)})" if where
                         else message)
        self.line = line
        self.offset = offset


class BddLimitError(ReproError):
    """Raised when a BDD operation exceeds the manager's node/memory limit.

    The paper (Sections III-C and IV-C) bails out of BDD construction when a
    memory limit is hit and treats the offending node as having BDD size 0;
    callers catch this exception to implement that behaviour.
    """


class SatError(ReproError):
    """Raised on malformed CNF input or solver misuse."""


class EquivalenceError(ReproError, AssertionError):
    """Two networks that must be equivalent miscompare.

    Carries the evidence: ``cex`` is the primary-input assignment (list of
    bools, PI order) under which the networks differ, ``po_index`` /
    ``po_name`` identify the first miscomparing primary output.
    ``AssertionError`` stays in the bases for callers that still catch the
    historical failure type of :func:`repro.sat.equivalence.assert_equivalent`.
    """

    def __init__(self, message: str, cex=None, po_index=None, po_name=None):
        super().__init__(message)
        self.cex = cex
        self.po_index = po_index
        self.po_name = po_name


class BenchmarkError(ReproError):
    """Raised when a benchmark generator receives unsupported parameters."""
