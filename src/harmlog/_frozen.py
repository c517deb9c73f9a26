"""Base of every immutable value class of the package.

A frozen dataclass would do the same job, but importing `dataclasses` loads
`inspect`: ~10 ms of each uncached CLI start-up, whose compute is under 1 ms.
"""


class Frozen:
    """Equality, hash, repr and immutability of a frozen dataclass.

    The fields are the subclass's ``__slots__``, in order; its ``__init__``
    sets each once with ``object.__setattr__``, one straight-line call per
    field: a loop over the fields costs more than the dataclass it replaces.
    """

    __slots__ = ()

    def _astuple(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._astuple() == other._astuple()

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # copy and pickle rebuild through __init__, which validates again
        return self.__class__, self._astuple()
