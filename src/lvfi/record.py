"""Record classes: equality, hash and repr derived from ``__slots__``.

lvfi's records (systems, expression nodes, matches, detections, reports)
are plain classes with ``__slots__`` and a hand-written ``__init__`` that
derive from Record or Frozen.  A record's ``repr`` is
``Name(field=value, ...)`` over its slots in order, and ``==`` holds only
between instances of one class with equal fields.  A Record is unhashable;
a Frozen record hashes its field tuple and refuses assignment, so its
``__init__`` sets each slot with ``object.__setattr__``, and copy and pickle
rebuild it through ``__init__``.  Generating these classes with the
standard library's decorator would load ``inspect``, and with it about a
quarter of a cold ``import lvfi``.
"""

from __future__ import annotations


class Record:
    __slots__ = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, f) for f in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __repr__(self) -> str:
        fields = ", ".join([f"{f}={getattr(self, f)!r}" for f in self.__slots__])
        return f"{self.__class__.__qualname__}({fields})"


class Frozen(Record):
    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):  # copy and pickle rebuild through __init__
        return self.__class__, self._values()
