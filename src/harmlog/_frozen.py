"""Base of every immutable value class of the package.

A frozen dataclass would do the same job, but importing `dataclasses` loads
`inspect`: ~10 ms of each uncached CLI start-up, whose compute is under 1 ms.

A record keeps all its field values in one tuple, stored once by its
``__init__``: one ``object.__setattr__`` per record, where one per field cost
a sweep row more than the O(1) window it reports.  It is not a tuple
subclass (nor a namedtuple): a record must not iterate, index or compare
equal to a tuple, and its pickle must rebuild it through ``__init__``.
`_record` makes a record of values already checked without that call.
"""


class Frozen:
    """Equality, hash, repr and immutability of a frozen dataclass.

    A subclass names its fields in ``_fields``, in ``__init__``'s parameter
    order, declares ``__slots__ = ()``, and its ``__init__`` stores their
    values once with ``object.__setattr__(self, "_values", (...))``.  Each
    field is a read-only property over that tuple.
    """

    __slots__ = ("_values",)
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        for i, name in enumerate(cls.__dict__.get("_fields", ())):
            setattr(cls, name, property(lambda self, i=i: self._values[i], doc=name))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values == other._values

    def __hash__(self) -> int:
        return hash(self._values)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values))
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # copy and pickle rebuild through __init__, which validates again
        return self.__class__, self._values


_new = object.__new__
_store = Frozen._values.__set__


def _record(cls, values: tuple):
    """cls(*values) without the call of its ``__init__``, for values it would store as
    they are; pickle and copy of the record still rebuild through ``__init__``."""
    record = _new(cls)
    _store(record, values)
    return record
