"""Record types whose constructor checks or canonicalises its values.

Every type that `import backmap.pipeline` loads is a `typing.NamedTuple`,
or a plain class with `__slots__` where it is mutable state. A dataclass
costs far more to create than either, and `import dataclasses` pulls in
`inspect`; every `backmap` process would pay both before its first record.

A NamedTuple may not define `__new__`, so a checked type subclasses one:

    class _Window(NamedTuple):
        start: datetime
        end: datetime

    class Window(Checked, _Window):
        __slots__ = ()

        def _checked(self) -> Window:
            if not self.start < self.end:
                raise ValueError("window start must precede end")
            return self

`Window(...)`, by position or keyword, `Window._make(...)` and
`window._replace(...)` all build the tuple and return what `_checked` makes
of it: the record itself, or a canonical copy built with `tuple.__new__`.
"""

from __future__ import annotations


class Checked:
    """Mixin placed before a NamedTuple base: every construction goes
    through the subclass's `_checked`."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        return super().__new__(cls, *args, **kwargs)._checked()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)
