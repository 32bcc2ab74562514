"""Immutable records: the value types of every module, without ``dataclasses``.

A subclass of ``Record`` lists its fields as class annotations, in order, and
may give trailing ones a default as a class attribute. It gets positional and
keyword construction, equality only with its own class, a hash equal to that
of the tuple of its fields, a ``Name(field=value, ...)`` repr and matching by
position; its instances refuse assignment and deletion. Nothing is generated
with ``exec`` when a class is defined, so defining one costs microseconds
where a frozen dataclass costs about a millisecond.

A subclass checks its values in ``__post_init__``, which runs once the fields
are set; it may normalise one with ``object.__setattr__``.
"""

from __future__ import annotations

from operator import attrgetter

_set = object.__setattr__


class Record:
    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _defaults: dict = {}

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        names = tuple(cls.__annotations__)
        cls._fields = cls.__match_args__ = names
        cls._defaults = {n: cls.__dict__[n] for n in names if n in cls.__dict__}
        get = attrgetter(*names)
        # the fields of a record as a tuple; attrgetter of one name returns
        # the value itself, not a 1-tuple
        cls._astuple = staticmethod(get if len(names) > 1 else lambda r: (get(r),))

    def __init__(self, *args, **kwargs) -> None:
        names = self._fields
        if kwargs or len(args) != len(names):
            args = self._bind(args, kwargs)
        # one setattr per field, as a frozen dataclass does: assigning __dict__
        # instead would allocate a separate dict for every record
        for name, value in zip(names, args):
            _set(self, name, value)
        self.__post_init__()

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> list:
        """The field values in order, from arguments that need sorting out."""
        names = cls._fields
        if len(args) > len(names) or not set(kwargs) <= set(names[len(args):]):
            raise TypeError(f"{cls.__name__}() got unexpected or repeated arguments")
        given = {**cls._defaults, **dict(zip(names, args)), **kwargs}
        missing = [n for n in names if n not in given]
        if missing:
            raise TypeError(f"{cls.__name__}() missing arguments {missing}")
        return [given[n] for n in names]

    def __post_init__(self) -> None:
        pass

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._astuple(self) == other._astuple(other)

    def __hash__(self) -> int:
        return hash(self._astuple(self))

    def __repr__(self) -> str:
        body = ", ".join(f"{n}={v!r}" for n, v in zip(self._fields, self._astuple(self)))
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


def replace(record: Record, **changes) -> Record:
    """A copy of the record with the given fields changed, checked anew."""
    return type(record)(**{**dict(zip(record._fields, record._astuple(record))), **changes})
