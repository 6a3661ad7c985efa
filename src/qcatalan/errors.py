"""Exception types shared across the package."""


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


class ShapeError(Exception):
    """Dimensions or index selections do not line up."""


class NegativeWeight(Exception):
    """A computed arc weight has a negative coefficient."""


class RequiresUnitGamma(Exception):
    """The factored Hankel construction needs r_k = 1 for all relevant k."""


class CapExceeded(Exception):
    """A request exceeds a cap: paths to enumerate, or an immanant's matrix size."""


class OutOfRange(Exception):
    """An integer argument lies outside the supported range."""


class NotAPermutation(Exception):
    """The given image list is not a bijection on {1, ..., n}."""
