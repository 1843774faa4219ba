"""Exception taxonomy shared across the package.

The split between "mathematical rejection" (a candidate fails an axiom)
and plain usage errors matters to the CLI, which maps them to distinct
exit codes.
"""


class MhsError(Exception):
    """Base class for all library errors."""


class DimensionMismatchError(MhsError):
    """Ragged matrix, or operands with different ambient dimensions."""


class FieldMismatchError(MhsError):
    """Operands over different ground fields."""


class ParseError(MhsError):
    """Malformed rational / Gaussian-rational string or JSON schema."""


class NotAnMhsError(MhsError):
    """A candidate (dim, W, F) fails the mixed Hodge structure axioms."""

    def __init__(self, problems):
        super().__init__("; ".join(problems) if problems else "invalid MHS")
        self.problems = list(problems)


class NotASubobjectError(MhsError):
    """A rational subspace does not underlie a subobject."""

    def __init__(self, problems):
        super().__init__("; ".join(problems) if problems else "not a subobject")
        self.problems = list(problems)


class DegenerateRangeError(MhsError):
    """Truncation index p makes W_p zero or everything."""


class RegimeError(MhsError):
    """Operation only available in the graded-Tate regime, at any rank."""


class ResourceGuardError(MhsError):
    """Tensor-space size exceeds the configured ceiling."""


class LocusError(MhsError):
    """Pencil locus computation failed or fell outside the linear regime."""
