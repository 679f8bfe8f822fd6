"""Parsing and canonical formatting of exact rational scalars."""

import re
from fractions import Fraction

_RATIONAL_RE = re.compile(r"^[+-]?\d+(?:/[+-]?\d+)?$")


def parse_scalar(text):
    """Turn "p", "-p" or "p/q" into a Fraction.

    Only integer ratios are accepted: no decimals, no whitespace inside the
    token.  Zero denominators are rejected.  Plain ints are passed through so
    JSON files may write small integers without quotes.
    """
    if isinstance(text, bool):
        raise ValueError(f"not a rational literal: {text!r}")
    if isinstance(text, int):
        return Fraction(text)
    if not isinstance(text, str) or not _RATIONAL_RE.match(text):
        raise ValueError(f"not a rational literal: {text!r}")
    if "/" in text:
        num, den = text.split("/")
        if int(den) == 0:
            raise ValueError(f"zero denominator in rational literal: {text!r}")
        return Fraction(int(num), int(den))
    return Fraction(int(text))


def format_scalar(q):
    """Canonical string form: lowest terms, "p" or "p/q" with q positive."""
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def format_vector(v):
    """Render a tuple of Fractions as a bracketed list of canonical scalars."""
    return "[" + ", ".join(format_scalar(c) for c in v) + "]"
