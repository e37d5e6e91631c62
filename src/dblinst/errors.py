"""Error taxonomy for the engine.

Errors signal "cannot compute" situations (non-finite closures, missing
structure); axiom violations are reported through validation reports
instead of raised.  ``SelfCheckFailed`` stands apart: it is not a
refusal of input but the library catching itself in a wrong answer.
"""


class DblinstError(Exception):
    """Base class for all engine errors."""


class IllFormedRelation(DblinstError):
    """A relation equates non-parallel words."""


class IllFormedPresentation(DblinstError):
    """A generator or a signed edge has an undeclared endpoint, an edge
    has a sign other than +1 or -1, a closure was asked for with a word
    bound below 1, a truncated theory family with a bound out of range,
    or a cyclic translation model whose translation is no involution."""


class FreeCategoryNotFinite(DblinstError):
    """A free (signed) category has paths at the configured length bound,
    or a feedback-loop count is asked of a signed graph with two loops
    at one vertex, whose involutive-loop quotient is infinite."""


class HomSetNotFinite(DblinstError):
    """Word enumeration of a presented category did not stabilize."""


class HomSetTooLarge(DblinstError):
    """An enumeration exceeded the configured cardinality cap."""


class TheoryMismatch(DblinstError):
    """Two models compared by a morphism search live over different
    theories, or a multicategory and a ``prom_trunc`` theory do not fit:
    a model read as a multicategory is not over ``prom_trunc(1)`` or
    ``prom_trunc(2)``, or a multifunctor and an instance are translated
    over a model that ``multicategory_to_model`` did not build, such as
    one read back from its document."""


class ModelMismatch(DblinstError):
    """Two instances compared by a morphism search live over different
    models, or a composite or restriction joins objects that differ, or
    a pair of spans is composed whose middle sets differ, or morphisms
    of a finite category or functors between finite categories are
    composed that are unknown or do not meet, or a coproduct is asked of
    instances of different models."""


class NotDiscreteOpfibration(DblinstError):
    """A witness was required but the morphism is not a discrete opfibration."""


class NoExtension(DblinstError):
    """Object components do not extend to a morphism of discrete opfibrations."""


class InvalidTheory(DblinstError):
    """A theory, or a multicategory, given to a construction fails its
    axiom check."""


class NotCartesian(DblinstError):
    """A construction that needs cartesian structure was given a theory
    without it, or an endpoint of a cartesian factorization that is not
    a cartesian model."""


class MiddleNotCartesian(DblinstError):
    """The middle object of a cartesian factorization failed cartesianness."""


class SquareNotCommutative(DblinstError):
    """A lifting problem was posed on a square that does not commute."""


class MarkedSquareNotPullback(DblinstError):
    """A sketch model sends a marked square to a non-pullback."""


class NameClash(DblinstError):
    """Two generators, or two objects, of one presentation got one name."""


class PartialMorphism(DblinstError):
    """A model morphism leaves an element without an image."""


class DuplicateLabel(DblinstError):
    """A finite set was given the same label twice."""


class NotAFunction(DblinstError):
    """A span is not one of finite sets: one of its three sets is not a
    ``FiniteSet``, or a leg is not a total function between its sets;
    or a table given to be inverted is not injective; or an instance is
    built without the action table of a loose arrow that needs one."""


class InvalidMorphism(DblinstError):
    """A model morphism given to a migration, a factorization or the
    collage-functor check fails its validation."""


class MalformedDocument(DblinstError):
    """A document, or a part of one, is not of the kind read there."""


class SelfCheckFailed(AssertionError):
    """The library's check of its own result failed: a closure that is
    not a presented category's action, or a migration, factorization or
    collage functor whose output breaks its axioms.  It reports an
    internal check failure, never a refusal of input, and it is raised
    also under ``python -O``."""
