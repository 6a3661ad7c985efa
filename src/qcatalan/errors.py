"""Exception types shared across the package.

An error's base class decides its command-line exit code: a ``FamilyError``
exits 3, and every other error here is a ``ValueError`` and exits 2.
``FamilyError`` is not a ``ValueError``.
"""


class FamilyError(Exception):
    """Base class for parameter-family failures."""


class UnknownFamily(FamilyError):
    """Requested family name is not a builtin and not a loadable document."""


class SchemaError(FamilyError):
    """A family document does not match the expected schema."""


class NonNonnegativeParameter(FamilyError):
    """A generated r/s/t term has a negative coefficient."""


class SequenceExhausted(FamilyError):
    """A finite parameter sequence was asked for a term past its prefix."""


class MissingWitness(FamilyError):
    """An operation needed witness sequences the family does not carry."""


class NegativeWeight(FamilyError):
    """A computed arc weight has a negative coefficient."""


class ShapeError(ValueError):
    """Dimensions or index selections do not line up."""


class RequiresUnitGamma(ValueError):
    """The factored Hankel construction needs r_k = 1 for all relevant k."""


class CapExceeded(ValueError):
    """A request exceeds a cap: paths to enumerate, or an immanant's matrix size."""


class OutOfRange(ValueError):
    """An integer argument lies outside the supported range."""


class NotAPermutation(ValueError):
    """The given image list is not a bijection on {1, ..., n}."""
