"""Positioned fiber configurations on rational elliptic surfaces.

A semi-stable rational elliptic surface with section has only multiplicative
singular fibers I_k over finitely many base points, and the indices k sum
to 12.  :class:`FiberConfig` records the indices in base-point order; the
labels are opaque identifiers, no coordinates are modeled.
"""

from __future__ import annotations

from _json import encode_basestring_ascii  # what json.encoder re-exports, without the json package
from operator import attrgetter

from .errors import MalformedInput, SumNot12, TooFewFibers

TOTAL_INDEX = 12
MIN_FIBERS = 4


class _Record:
    """Base of the immutable value types: ``_fields``, by default
    ``__slots__``, names the fields in constructor order and ``_compared``,
    if not all of them, the ones equality and hash read.  A field that is not
    a slot is a property over private slots.  Each ``__init__`` validates and
    sets every slot once."""

    __slots__ = ()
    _fields: tuple[str, ...]
    _compared: tuple[str, ...]

    def __init_subclass__(cls):
        cls._fields = getattr(cls, "_fields", cls.__slots__)
        # at least two names, so the key is the tuple of compared fields
        cls._key = attrgetter(*getattr(cls, "_compared", cls._fields))
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls.__slots__)

    def _set_fields(self, *values):
        """Set the slots in ``__slots__`` order.  The types of five or more
        fields use it, as do constructors off the hot path and the four-field
        partner build of ``product._partner``: with fewer fields, one
        ``object.__setattr__`` per field is slightly faster, but four such
        lines compile larger than one."""
        for setter, value in zip(self._setters, values):
            setter(self, value)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # rebuild through __init__, so a copy or an unpickled value is re-validated
        return type(self), tuple(getattr(self, name) for name in self._fields)


class FiberConfig(_Record):
    """Singular fibers I_{k_i} over labeled base points, indices summing to 12."""

    __slots__ = ("points", "indices")

    def __init__(self, points: tuple[str, ...], indices: tuple[int, ...]):
        points = tuple(points)
        indices = tuple(indices)
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "indices", indices)
        if len(points) != len(indices):
            raise MalformedInput("one point label per fiber index required")
        if not all(type(pt) is str for pt in points):  # the writers take exactly str
            raise MalformedInput(f"point labels must be strings: {points}")
        if any(type(k) is not int or k < 1 for k in indices):
            raise MalformedInput(f"fiber indices must be positive integers: {indices}")
        if len(indices) < MIN_FIBERS:
            raise TooFewFibers(f"need at least {MIN_FIBERS} singular fibers, got {len(indices)}")
        if sum(indices) != TOTAL_INDEX:
            raise SumNot12(f"indices sum to {sum(indices)}, expected {TOTAL_INDEX}")
        if len(set(points)) != len(points):
            raise MalformedInput(f"point labels must be pairwise distinct: {points}")

    def __len__(self):
        return len(self.indices)


def default_points(n: int) -> tuple[str, ...]:
    """Auto-generated base point labels P1..Pn (a list-fed tuple: see
    ``ProductDiagram.__init__``)."""
    return tuple([f"P{i}" for i in range(1, n + 1)])


def parse_config(text: str, labels=None) -> FiberConfig:
    """Parse compact digit notation ("9111") or CSV notation ("9,1,1,1").

    Multi-digit indices require the CSV form.  Point labels default to
    P1..Pn unless ``labels`` is given.
    """
    if type(text) is not str:
        raise MalformedInput(f"configuration text must be a str, got {text!r}")
    text = text.strip()
    if not text:
        raise MalformedInput("empty configuration text")
    csv = "," in text
    try:
        indices = tuple(map(_parse_int, map(str.strip, text.split(",")) if csv else text))
    except ValueError:
        form = "a comma separated list of integers" if csv else "a digit string"
        raise MalformedInput(f"not {form}: {text!r}") from None
    points = tuple(labels) if labels is not None else default_points(len(indices))
    return FiberConfig(points, indices)


def _parse_int(text: str) -> int:
    """An integer in ASCII digits with an optional leading '-'.  The one
    integer parser for input text: ``int`` also takes other scripts' digits,
    '+', '_' and surrounding whitespace."""
    digits = text[1:] if text.startswith("-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"invalid int value: {text!r}")
    return int(text)


def index_text(indices) -> str:
    """Compact digit form ("9111"), or CSV form when an index exceeds 9."""
    return ("" if all(k <= 9 for k in indices) else ",").join(map(str, indices))


def render_config(config: FiberConfig) -> str:
    """Inverse of :func:`parse_config` (labels are not rendered)."""
    return index_text(config.indices)


def descending(indices) -> tuple[int, ...]:
    """The partition of an index sequence: its multiset in descending order."""
    return tuple(sorted(indices, reverse=True))


def partition_of(config: FiberConfig) -> tuple[int, ...]:
    """Descending multiset of indices; positions and labels discarded."""
    return descending(config.indices)


_JSON_SCALARS = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    bool: lambda value: "true" if value else "false",
    type(None): lambda value: "null",
}


def _canonical_json(value) -> str:
    """The package's one JSON writer: two-space indent, sorted keys, ASCII
    escapes and a final newline, byte-equal to the standard library's
    encoder called with ``indent=2, sort_keys=True``.

    It takes exactly dict (str keys), list, str, int, bool and None; any
    other value or key, a ``str`` subclass included, raises TypeError rather
    than diverging.  With an indent the standard encoder runs in pure Python
    and costs nearly as much as the certification it serializes.
    """
    out = []
    _emit_json(value, out, "\n")
    out.append("\n")
    return "".join(out)


def _emit_json(value, out, newline):
    """Append ``value`` to ``out``; ``newline`` carries the current indent.
    Scalar members are written in place, without a recursive call."""
    kind = type(value)
    scalar = _JSON_SCALARS.get(kind)
    if scalar is not None:
        out.append(scalar(value))
    elif kind is list:
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        separator = "[" + inner
        for item in value:
            out.append(separator)
            scalar = _JSON_SCALARS.get(type(item))
            if scalar is None:
                _emit_json(item, out, inner)
            else:
                out.append(scalar(item))
            separator = "," + inner
        out.append(newline + "]")
    elif kind is dict:
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        separator = "{" + inner
        for key in sorted(value):
            if type(key) is not str:
                raise TypeError(f"JSON object keys must be str, not {type(key).__name__}")
            out.append(separator)
            out.append(encode_basestring_ascii(key))
            out.append(": ")
            item = value[key]
            scalar = _JSON_SCALARS.get(type(item))
            if scalar is None:
                _emit_json(item, out, inner)
            else:
                out.append(scalar(item))
            separator = "," + inner
        out.append(newline + "}")
    else:
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")
