"""Exception hierarchy for the subdivision-group kernel.

Every error carries a stable ``code`` string.  The command line layer keys
its exit status and JSON diagnostics off these codes, so they should be
treated as part of the public interface and never renamed casually.
"""


class OperadError(Exception):
    """Base class for all kernel errors."""

    code = "E_UNKNOWN"

    def __str__(self):
        msg = super().__str__()
        return f"{self.code}: {msg}" if msg else self.code


class ParseError(OperadError):
    """A literal does not conform to its grammar."""

    code = "E_PARSE"


def refuse_past(counts, cap: int, what: str):
    """Sum the counts in order and refuse at the first total past the cap,
    pulling no further count: the one refusal of every lazily counted cap."""
    total = 0
    for count in counts:
        total += count
        if total > cap:
            raise ParseError(f"at least {total} {what} exceed the cap {cap}")


class SlotRangeError(OperadError):
    """An input-slot index lies outside the arity of an operation."""

    code = "E_SLOT_RANGE"


class NotPartitionError(OperadError):
    """Cells fail to tile the unit cube, or a marking is not total."""

    code = "E_NOT_PARTITION"


class DepthError(OperadError):
    """An operation, given or computed, has a cell cut more than
    MAX_CELL_DEPTH times or more than MAX_OPERATION_CELLS cells; a literal
    nested past the depth cap is a parse error."""

    code = "E_DEPTH"


class NotGuillotineError(OperadError):
    """A cell pattern admits no sequence of straight axis cuts."""

    code = "E_NOT_GUILLOTINE"


class SizeMismatchError(OperadError):
    """Two sequences that must agree in length do not."""

    code = "E_SIZE_MISMATCH"


class DomainMismatchError(OperadError):
    """Composition attempted where codomain and domain words differ."""

    code = "E_DOMAIN_MISMATCH"


class CodomainMismatchError(OperadError):
    """A square filling was requested for arrows out of different objects."""

    code = "E_CODOMAIN_MISMATCH"


class BaseMismatchError(OperadError):
    """Two fractions or classes live over different base objects."""

    code = "E_BASE_MISMATCH"


class LengthError(OperadError):
    """A marking or word has the wrong length for its arrow."""

    code = "E_LENGTH"


class NotMultiballError(OperadError):
    """A class operation needed a multiball and got something else."""

    code = "E_NOT_MULTIBALL"


class NotInStabilizerError(OperadError):
    """Decomposition was requested for an element that moves the partition."""

    code = "E_NOT_IN_STABILIZER"


class NotSplitError(OperadError):
    """A construction requires a split object and the object is not split."""

    code = "E_NOT_SPLIT"


class NotFillingsError(OperadError):
    """The two arrows handed to the filling combiner do not both fill."""

    code = "E_NOT_FILLINGS"


class FlavorError(OperadError, ValueError):
    """A construction needs a flavor (planar or symmetric) it was not given."""

    code = "E_FLAVOR"


class UnsupportedBackendError(OperadError):
    """A construction is only defined for some backends, not the chosen one."""

    code = "E_UNSUPPORTED_BACKEND"


class UnknownError(OperadError):
    """A bounded search was inconclusive within its budget."""

    code = "E_UNKNOWN"
