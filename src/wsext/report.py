"""Immutable value records, and the result/report containers shared by the
checking operations.

Every value type of the package derives from :class:`Record`:

- Its fields are its annotated class attributes, in order, those of its
  base classes first.  A value assigned with the annotation is that
  field's default.
- ``__init__`` takes the fields positionally or by keyword; a missing,
  unknown or repeated argument raises ``TypeError``.  It then calls
  ``__post_init__``, where a record checks and normalises its fields (with
  ``object.__setattr__``) and may set private attributes that are not
  fields.
- Assigning or deleting an attribute raises ``AttributeError``.
  ``functools.cached_property`` still works: it writes the instance dict.
- Two records are equal when they have the same class and equal fields;
  ``hash`` is the hash of the tuple of fields, so a record with a dict or
  list field is unhashable.  ``repr`` is ``Name(field=value, ...)``.

Every record shares these methods; a class only builds its field getter,
once, when it is defined.  So defining the value types compiles no code
when the CLI starts.  :func:`_once` is the one memo of values derived
from a record.
"""

from __future__ import annotations

from functools import wraps
from operator import attrgetter
from typing import Any


class Record:
    """Base class of the immutable value records (see the module docstring)."""

    _fields: tuple[str, ...] = ()
    _defaults: dict[str, Any] = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        fields = cls._fields + tuple(cls.__dict__.get("__annotations__", ()))
        cls._fields = fields
        cls._defaults = {f: getattr(cls, f) for f in fields if hasattr(cls, f)}
        get = attrgetter(*fields)
        # the tuple of field values; attrgetter gives a bare value for one field
        cls._values = staticmethod(get if len(fields) > 1 else lambda self: (get(self),))

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):
            args = self._bind(args, kwargs)
        self.__dict__.update(zip(fields, args))
        self.__post_init__()

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> list:
        """The field values of a call that passes keywords or leaves out defaults."""
        fields, rest = cls._fields, set(cls._fields[len(args):])
        values = {**cls._defaults, **kwargs}
        if len(args) > len(fields) or not kwargs.keys() <= rest <= values.keys():
            raise TypeError(f"{cls.__qualname__}() takes the fields {', '.join(fields)}; got "
                            f"{len(args)} positional and the keywords {sorted(kwargs)}")
        return [*args, *map(values.__getitem__, fields[len(args):])]

    def __post_init__(self) -> None:
        pass

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values(self) == other._values(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        items = zip(self._fields, self._values(self))
        return f"{self.__class__.__qualname__}({', '.join(f'{f}={v!r}' for f, v in items)})"


def _once(f):
    """f(r, *args), a pure function of a record and hashable arguments,
    computed once per record and arguments; read the value only.  The
    memo, ``r._memo``, is not a field; an exception is not memoised."""
    @wraps(f)
    def once(r: Record, *args):
        memo = vars(r).setdefault("_memo", {})
        key = (f, *args)
        if key not in memo:
            memo[key] = f(r, *args)
        return memo[key]
    return once


class CheckResult(Record):
    """Boolean outcome plus the first counterexample found (or None).

    The counterexample payload is operation specific; it is always a
    JSON-serializable structure suitable for error messages.
    """

    ok: bool
    counterexample: Any = None

    def __bool__(self) -> bool:
        return self.ok


class ReportEntry(Record):
    name: str
    ok: bool
    detail: str = ""


class Report:
    """Ordered list of named pass/fail entries with stable rendering."""

    def __init__(self) -> None:
        self.entries: list[ReportEntry] = []

    # equal entries make equal reports; mutable, so unhashable
    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self.entries == other.entries
        return NotImplemented

    __hash__ = None

    def __repr__(self) -> str:
        return f"Report(entries={self.entries!r})"

    def add(self, name: str, ok: bool, detail: str = "") -> None:
        self.entries.append(ReportEntry(name, ok, detail))

    @property
    def ok(self) -> bool:
        return all(e.ok for e in self.entries)

    def entry(self, name: str) -> ReportEntry:
        for e in self.entries:
            if e.name == name:
                return e
        raise KeyError(name)

    def render(self) -> str:
        lines = []
        for e in self.entries:
            status = "PASS" if e.ok else "FAIL"
            suffix = f"  [{e.detail}]" if e.detail else ""
            lines.append(f"{e.name}: {status}{suffix}")
        return "\n".join(lines)

    def to_json(self) -> list[dict]:
        return [
            {"name": e.name, "ok": e.ok, "detail": e.detail}
            for e in self.entries
        ]
