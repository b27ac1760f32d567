"""What voinet's checked value types share.

Each value type is one class statement, ``class T(Checked, namedtuple("T",
"a b c"))``, whose ``__new__`` checks (and may normalise or derive) the
fields. namedtuple's own ``_make``, which its ``_replace`` calls, builds the
tuple without ``__new__``; ``Checked`` sends both through ``__new__``, so no
way of constructing a value skips its checks. ``check_csv_text`` is the one
rule for text that a CSV prints: record and receiver ids and sweep series
labels, unquoted, and the names and notes in a sweep CSV's comment lines.
``finite``, ``non_negative``, ``positive`` and ``unit_interval`` are the range
rules for numbers: each holds the one comparison that NaN fails and the one
wording of its error. ``one_of`` is the membership rule for a value drawn from
a fixed set of choices, such as a quality mode or a sweep variable.
"""

from __future__ import annotations

import json
import math
import re
from collections.abc import Iterable

_CSV_SPECIAL = re.compile('[,"\r\n\ud800-\udfff]')
_COMMENT_SPECIAL = re.compile('[\r\n\ud800-\udfff]')


class Checked:
    """Mixin, listed before the namedtuple base, for a type that checks in ``__new__``.

    The last ``_derived`` fields are computed by ``__new__``, not passed to
    it: ``_make`` takes the other fields, and ``_replace`` refuses the
    derived ones and computes them afresh.
    """

    __slots__ = ()
    _derived = 0

    @classmethod
    def _make(cls, iterable: Iterable[object]) -> object:
        return cls(*iterable)

    def _replace(self, /, **changes: object) -> object:
        inputs = self._fields[: len(self._fields) - self._derived]
        result = self._make(map(changes.pop, inputs, self))
        if changes:
            raise ValueError(f"Got unexpected field names: {list(changes)!r}")
        return result

    __replace__ = _replace  # copy.replace (3.13); namedtuple's own skips __new__

    def __getnewargs__(self) -> tuple:  # copy and pickle rebuild through __new__
        return tuple(self)[: len(self) - self._derived]


def check_csv_text(name: str, value: str, comment: bool = False) -> None:
    """Raise if text a CSV prints could break its rows or its encoding.

    A field printed unquoted must hold no comma, quote or line break; text in a
    ``#`` comment line (comment=True), no line break. Neither may hold a lone
    surrogate, which UTF-8 cannot encode.
    """
    found = (_COMMENT_SPECIAL if comment else _CSV_SPECIAL).search(value)
    if found is None:
        return
    if found.group() >= "\ud800":
        why = "a lone surrogate"
    else:
        why = "a line break" if comment else "a comma, quote or line break"
    raise ValueError(f"field {name!r} must not hold {why}, got {json.dumps(value)}")


def finite(what: str, value: float) -> float:
    """value, unless it is infinite or NaN: then a ValueError naming what."""
    if not -math.inf < value < math.inf:
        raise ValueError(f"{what} must be finite, got {value}")
    return value


def non_negative(what: str, value: float) -> float:
    """value, unless it is negative or NaN: then a ValueError naming what."""
    if not value >= 0:
        raise ValueError(f"{what} must be non-negative, got {value}")
    return value


def positive(what: str, value: float) -> float:
    """value, unless it is zero, negative or NaN: then a ValueError naming what."""
    if not value > 0:
        raise ValueError(f"{what} must be positive, got {value}")
    return value


def unit_interval(what: str, value: float) -> float:
    """value, unless it lies outside [0, 1] or is NaN: then a ValueError naming what."""
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{what} must be in [0, 1], got {value}")
    return value


def one_of(what: str, value: object, choices: tuple) -> object:
    """value, unless it is not among choices: then a ValueError naming what and the choices."""
    if value not in choices:
        raise ValueError(f"{what} must be one of {choices}, got {value!r}")
    return value
