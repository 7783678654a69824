"""Canonical JSON emission, and the typed readers of config numbers.

Every float is rendered with 17 significant digits so identical inputs
produce byte-identical output; infinities and NaN are rendered as the strings
"inf", "-inf" and "nan" to stay inside strict JSON.
"""

import math
import numbers


def _real(value, key):
    """A real number read from a config, as a float; a boolean, a string (also
    the "inf" that the output writes) or any other non-number is refused."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{key} must be a number, got {value!r}")
    return float(value)


def _whole(value, key):
    """A count read from a config, as an int; a fraction, inf or NaN is refused,
    not truncated, and so is anything that _real refuses."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not (
            isinstance(value, int) or float(value).is_integer()):
        raise ValueError(f"{key} must be a whole number, got {value!r}")
    return int(value)


def _format_float(x: float) -> str:
    if math.isnan(x):
        return '"nan"'
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    return format(float(x), ".17g")


def _escape(s: str) -> str:
    out = []
    for ch in s:
        if ch == '"':
            out.append('\\"')
        elif ch == "\\":
            out.append("\\\\")
        elif ord(ch) < 0x20:
            out.append(f"\\u{ord(ch):04x}")
        else:
            out.append(ch)
    return "".join(out)


def canonical_json(obj) -> str:
    return _emit(obj, "")


def _emit(obj, pad):
    """obj as canonical JSON, its nested lines indented by pad plus two spaces."""
    inner = pad + "  "
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _format_float(obj)
    if isinstance(obj, str):
        return f'"{_escape(obj)}"'
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f'{inner}"{_escape(str(key))}": {_emit(obj[key], inner)}'
                 for key in sorted(obj, key=str)]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if not len(obj):
            return "[]"
        items = [f"{inner}{_emit(v, inner)}" for v in obj]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    # numpy scalars and Fractions reduce to floats
    try:
        return _format_float(float(obj))
    except (TypeError, ValueError):
        raise TypeError(f"cannot serialize {type(obj).__name__}")
