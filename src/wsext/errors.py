"""Exception hierarchy for the toolkit.

Every error raised by the library derives from :class:`ToolkitError` so
callers (in particular the CLI) can distinguish domain errors from bugs.
The CLI reports each toolkit error as one ``error:`` line and exits 64.
That includes :class:`InternalCheckFailed`, which only a bug or a library
caller's unvalidated extension raises; exit 70 is for exceptions that are
not toolkit errors.
``charge`` is the one budget gate: every SearchBudgetExceeded comes from it.
"""


class ToolkitError(Exception):
    """Base class for all toolkit errors."""


# -- table / algebra construction ------------------------------------------

class MissingTable(ToolkitError):
    """An operation of the signature has no table."""


class ArityMismatch(ToolkitError):
    """A table or term application does not match the declared arity."""


class EntryOutOfRange(ToolkitError):
    """A table entry falls outside the carrier {0..size-1}."""


class SizeMismatch(ToolkitError):
    """Function table endpoints disagree with the algebras involved."""


class SignatureMismatch(ToolkitError):
    """Two algebras that must share a signature do not."""


class NotHomomorphism(ToolkitError):
    """A map required to be a homomorphism is not one."""


class SearchBudgetExceeded(ToolkitError):
    """An exhaustive search would exceed the configured node budget."""


def charge(cost: int, budget: int, message: str) -> None:
    """The one budget gate: raise SearchBudgetExceeded(message) when
    ``cost`` exceeds ``budget``, so a search that costs exactly ``budget``
    passes.  ``message`` comes built, not as a template: the operation
    names in it are user input and may hold braces."""
    if cost > budget:
        raise SearchBudgetExceeded(message)


# -- term language -----------------------------------------------------------

class TermSyntaxError(ToolkitError):
    """Malformed term text; ``position`` is a character offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


class UnknownSymbol(ToolkitError):
    """A symbol is neither a declared variable nor an operation."""


class UnboundVariable(ToolkitError):
    """Term evaluation hit a variable missing from the environment."""


class ThetaNotAdmissible(ToolkitError):
    """The witness term does not satisfy theta(0,...,0,x) = x on the algebra."""


# -- extensions and witnesses ------------------------------------------------

class ExtensionInvalid(ToolkitError):
    """A split extension failed validation where a valid one is required."""

    def __init__(self, report):
        super().__init__("split extension failed validation:\n" + report.render())
        self.report = report


class WitnessInvalid(ToolkitError):
    """A witness failed its defining equation (or normalization)."""


class AlphaAxiomFailed(ToolkitError):
    """The subtraction-style terms do not satisfy their defining identities."""


class KernelPreimageMissing(ToolkitError):
    """An element expected in the kernel image has no preimage under k."""


class InvalidMorphism(ToolkitError):
    """An extension morphism's squares do not commute."""


class WrongTheta(ToolkitError):
    """The operation requires a specific witness term shape."""


class WrongSignature(ToolkitError):
    """The operation requires a specific signature shape."""


# -- gamma data --------------------------------------------------------------

class ConditionsFailed(ToolkitError):
    """Action data failed one of the four validity conditions."""

    def __init__(self, report):
        super().__init__("gamma data failed validity conditions:\n" + report.render())
        self.report = report


class IotaNotInY(ToolkitError):
    """The zero-tuple section does not land in the reconstructed carrier."""


class SectionNotHomomorphism(ToolkitError):
    """The zero-tuple section lands in the reconstructed carrier but is not
    a homomorphism into the rebuilt middle algebra."""


class InternalCheckFailed(ToolkitError):
    """A property the construction guarantees was violated; indicates a bug
    or inputs that slipped past validation."""


# -- file formats -------------------------------------------------------------

class FileFormatError(ToolkitError):
    """A JSON input file is malformed or violates its schema."""
