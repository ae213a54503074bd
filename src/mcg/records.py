"""Slotted records: the value types that cannot be tuples.

An immutable value type is a ``typing.NamedTuple``. One that is mutable,
compares by identity, holds memos or checks its fields is a ``Record``: it
names its fields in ``_fields``, in constructor order, and keeps them in
``__slots__`` before any memo slot. Its repr is ``Name(field=value, ...)``,
records of one type compare by their field tuples, and a plain ``Record`` is
unhashable. A ``Frozen`` record hashes as its field tuple and refuses
assignment: its constructor sets each slot with ``set_slot``, or checks its
values and builds the record with ``_raw``."""

set_slot = object.__setattr__


class Record:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _astuple(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other) -> bool:
        return self._astuple() == other._astuple() if type(other) is type(self) else NotImplemented

    def __repr__(self) -> str:
        return f"{type(self).__name__}({', '.join(f'{f}={getattr(self, f)!r}' for f in self._fields)})"


class Frozen(Record):
    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._astuple())

    @classmethod
    def _raw(cls, *values):
        """An instance with its fields set to ``values``, unchecked: for
        values known to pass the constructor's checks."""
        record = object.__new__(cls)
        for name, value in zip(cls._fields, values):
            set_slot(record, name, value)
        return record

    def __reduce__(self):  # copy and pickle rebuild through the constructor
        return type(self), self._astuple()

    def __setattr__(self, name: str, value=None) -> None:
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__
