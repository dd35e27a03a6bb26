"""Exception hierarchy and record base shared by all modules.

Every computational error raised by this package derives from
:class:`MultisecantError`, so callers (in particular the CLI) can map
library failures to exit codes without catching bare ``Exception``.
:class:`Record` is the base of the package's immutable value classes.
"""


class MultisecantError(Exception):
    """Base class for all errors raised by this package."""


class AmbientMismatchError(MultisecantError):
    """Operands live over projective spaces of different dimension."""


class NonUnitError(MultisecantError):
    """Inversion of a class whose degree-0 part vanishes."""


class HypothesisError(MultisecantError):
    """A numeric precondition of an operation is not met."""


class ParseError(MultisecantError):
    """Syntax or shape error in a bundle expression.

    ``position`` is the 0-based offset into the source string.
    """

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class Record:
    """Base of the package's value classes: a frozen dataclass on ``__slots__``.

    The fields are the subclass's ``__slots__``.  Records are equal when
    they have the same class and equal fields, hash like their field
    tuple, print as ``Name(field=value, ...)`` and refuse assignment.
    It lives here, in the one module every command loads, because
    ``dataclasses`` costs a one-shot command more than its arithmetic;
    no module imports ``dataclasses``.  Census rows are not records:
    ``census.CensusRow`` is a named tuple of the CSV columns, built and
    compared at C speed; ``verify_rows`` compares rows held in memory,
    and the readers compare a file's bytes with the rows they rebuild.
    A record is built from its fields in slot order, positionally only.
    Every record keeps these rules; none allows assignment or drops its
    hash.  A subclass defines its own ``__init__`` only to validate its
    fields, and then calls this one (``TruncatedClassPoly``);
    ``ChernVector`` sets its fields itself, because verify builds about
    30,000 of them a round and this loop is the slower build.
    ``Hypothesis`` and ``Verdict`` use the generic loop.
    """

    __slots__ = ()

    def __init__(self, *fields):
        if len(fields) != len(self.__slots__):
            raise TypeError(f"{type(self).__name__} takes the fields {self.__slots__}")
        for name, value in zip(self.__slots__, fields):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        # copy and pickle rebuild through __init__, past the assignment guard
        return type(self), self._fields()

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to field {name!r} of a {type(self).__name__}")

    __delattr__ = __setattr__
