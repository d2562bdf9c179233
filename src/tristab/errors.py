"""Exception types shared across the library.

Domain violations (bad exponent ordering, nonpositive Beta arguments and the
like) raise plain ValueError.  The classes below mark query outcomes that are
legitimate answers of the theory rather than caller mistakes.
"""


class NoStandingWave(Exception):
    """No standing-wave profile exists at the requested (omega, gamma)."""


class NotOnCurve(Exception):
    """gamma lies outside the admissible range of the nonexistence curve."""


class DivergingIntegral(Exception):
    """The requested integral diverges (query point sits on the curve)."""


class UnsupportedRegime(Exception):
    """The requested quantity has no finite float value in this regime."""
