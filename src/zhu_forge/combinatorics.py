"""Exact scalar arithmetic shared by every other module.

Scalars are exact ``int`` or :class:`fractions.Fraction` values (a stored
combination keeps a coefficient as an ``int`` unless its denominator is
greater than 1, see :func:`zhu_forge.linalg.exact`); nothing in the package
touches floating point. The binomial helper extends the usual coefficient
to arbitrary integer upper arguments via the falling factorial, which is
what makes sums over binomials with negative upper entries exact.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction


def binomial(upper: int, lower: int) -> int:
    """Binomial coefficient with integer (possibly negative) upper argument.

    For ``lower >= 0`` this is the falling factorial
    ``upper*(upper-1)*...*(upper-lower+1) / lower!``, an integer for every
    integer ``upper``. A negative ``lower`` returns 0, matching the
    convention that sums over ``i >= 0`` silently exclude such terms.

    >>> binomial(5, 2)
    10
    >>> binomial(-1, 2)
    1
    >>> binomial(3, 5)
    0
    """
    if lower < 0:
        return 0
    if upper >= 0:
        return math.comb(upper, lower)
    # Reflection: C(n, k) = (-1)^k C(-n+k-1, k) for n < 0.
    return (-1) ** lower * math.comb(-upper + lower - 1, lower)


_RATIONAL_RE = re.compile(r"^([+-]?\d+)\s*(?:/\s*(\d+))?$")


def parse_rational(text: str) -> Fraction:
    """Parse a rational literal ``p/q`` or ``p``."""
    match = _RATIONAL_RE.match(text.strip())
    if match is None:
        raise ValueError(f"not a rational literal: {text!r}")
    denominator = int(match.group(2) or 1)
    if denominator == 0:
        raise ValueError(f"zero denominator in rational literal: {text!r}")
    return Fraction(int(match.group(1)), denominator)
