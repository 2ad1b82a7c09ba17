"""Exception types shared across the toolkit."""


class ConvlabError(Exception):
    """Base class for toolkit-specific failures."""


class SingularMatrixError(ConvlabError):
    """The analysis system (I - transient block) is numerically singular."""


class ResourceLimitError(ConvlabError):
    """A request exceeds a fixed budget: simulation cells, exact's stages or a
    sweep range's deltas."""


class InsufficientDataError(ConvlabError):
    """A statistic needs more trials than the batch provides."""


class EmptyInputError(ConvlabError):
    """An operation received an empty collection."""


class InsufficientTailError(ConvlabError):
    """Too few distribution points survive the noise floor to fit a slope."""


class OutOfOrderError(ConvlabError):
    """An event stream violated non-decreasing timestamp order."""

