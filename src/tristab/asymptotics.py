"""Limit classification and guaranteed-sign statements for J(omega, gamma).

Each classifier encodes a decision table: the behavior of J as omega -> 0,
omega -> infinity, gamma -> +/-infinity, broken down by the exponent triple
(p, q, r) and the focusing/defocusing signs.  Equality branches (p = 5,
r = 7/3, 2p + q = 7, ...) compare the stored reals exactly; callers who want
border semantics must pass border values exactly.

One verbatim discrepancy between two source tables is preserved rather than
resolved: at r = 5 the gamma = 0 line joins the 0^- branch for omega ->
infinity in the DF case but the 0^+ branch in the FF case.  Each case
follows its own table.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import List, Optional

from .model import NonlinearityParams
from .boundary import endpoints
from .errors import UnsupportedRegime


class LimitKind(enum.Enum):
    NegInfinity = "NegInfinity"
    FiniteNegative = "FiniteNegative"
    ZeroMinus = "ZeroMinus"
    ExactZero = "ExactZero"
    ZeroPlus = "ZeroPlus"
    FinitePositive = "FinitePositive"
    PosInfinity = "PosInfinity"


@dataclass(frozen=True)
class LimitClass:
    """Classified limit of J along one direction, with the deciding branch."""

    kind: LimitKind
    detail: str = ""


class Direction(enum.Enum):
    OmegaToZero = "OmegaToZero"
    OmegaToInf = "OmegaToInf"
    GammaToInf = "GammaToInf"
    GammaToNegInf = "GammaToNegInf"


class GuaranteeStatement(enum.Enum):
    """Sign statements.

    The three OmegaZero* members extend the base set so the omega = 0 sign
    statements can be reported through the same channel.
    """

    AllStablePositiveJ = "AllStablePositiveJ"
    AllUnstableNegativeJ = "AllUnstableNegativeJ"
    UnstableForLargeOmega = "UnstableForLargeOmega"
    OmegaZeroAllPositive = "OmegaZeroAllPositive"
    OmegaZeroAllNegative = "OmegaZeroAllNegative"
    OmegaZeroSignChange = "OmegaZeroSignChange"


@dataclass(frozen=True)
class SignGuarantee:
    statement: GuaranteeStatement
    region: str


_SEVEN_THIRDS = 7.0 / 3.0


def _signed(gamma: float, pos: LimitKind, neg: LimitKind,
            detail: str) -> LimitClass:
    kind = pos if gamma > 0.0 else neg
    return LimitClass(kind, detail + (", gamma > 0" if gamma > 0.0
                                      else ", gamma < 0"))


def _omega_zero_focusing(params: NonlinearityParams,
                         gamma: float) -> LimitClass:
    """omega -> 0 for focusing-lowest-power cases (FF and FD).

    The two differ only on the p = 5, gamma = 0 sub-table, where the r vs 9
    comparison lands on opposite signs: FD's is FF's flipped.
    """
    p, q, r = params.p, params.q, params.r
    if p > 5.0:
        return LimitClass(LimitKind.NegInfinity, "p > 5")
    if p == 5.0:
        if gamma != 0.0:
            if q > 9.0:
                return _signed(gamma, LimitKind.ZeroPlus, LimitKind.ZeroMinus,
                               "p = 5, q > 9")
            if q == 9.0:
                return _signed(gamma, LimitKind.FinitePositive,
                               LimitKind.FiniteNegative, "p = 5, q = 9")
            return _signed(gamma, LimitKind.PosInfinity,
                           LimitKind.NegInfinity, "p = 5, q < 9")
        if r > 9.0:
            kind, rel = LimitKind.ZeroMinus, ">"
        elif r == 9.0:
            kind, rel = LimitKind.FiniteNegative, "="
        else:
            kind, rel = LimitKind.NegInfinity, "<"
        if params.case == "FD":  # LimitKind runs from -inf to +inf
            kind = list(LimitKind)[-1 - list(LimitKind).index(kind)]
        return LimitClass(kind, "p = 5, gamma = 0, r %s 9" % rel)
    if p > _SEVEN_THIRDS:
        return LimitClass(LimitKind.PosInfinity, "7/3 < p < 5")
    if p == _SEVEN_THIRDS:
        return LimitClass(LimitKind.FinitePositive, "p = 7/3")
    return LimitClass(LimitKind.ZeroPlus, "p < 7/3")


def _omega_zero_defocusing(params: NonlinearityParams,
                           gamma: float) -> LimitClass:
    """omega -> 0 for defocusing-lowest-power cases: the J(0, gamma) value."""
    from .stability import eval_J0

    p, q, r = params.p, params.q, params.r
    if params.case == "DD":
        _, gamma1, _ = endpoints(params)
        if gamma >= gamma1:
            raise ValueError(
                "no standing waves near omega = 0 for gamma >= %.17g in DD"
                % gamma1)
    if p >= _SEVEN_THIRDS:
        return LimitClass(LimitKind.NegInfinity, "p >= 7/3")
    if params.case == "DF":
        if 2.0 * q + r < 7.0:
            return LimitClass(LimitKind.FinitePositive, "2q + r < 7")
        if 2.0 * p + q > 7.0:
            return LimitClass(LimitKind.FiniteNegative, "2p + q > 7")
    val = eval_J0(params, gamma)
    verdict = val.verdict()
    if verdict == "stable":
        return LimitClass(LimitKind.FinitePositive,
                          "J(0, gamma) evaluated > 0")
    if verdict == "unstable":
        return LimitClass(LimitKind.FiniteNegative,
                          "J(0, gamma) evaluated < 0")
    raise UnsupportedRegime(
        "J(0, gamma) = %.12g +- %.12g decides no sign%s"
        % (val.j, val.abs_error, "" if val.converged else " (unconverged)"))


def _omega_inf(params: NonlinearityParams, gamma: float) -> LimitClass:
    """omega -> infinity for *F cases; r = 5 gamma = 0 follows each table."""
    r = params.r
    if r > 5.0:
        return LimitClass(LimitKind.ZeroMinus, "r > 5")
    if r == 5.0:
        if params.case == "FF":
            if gamma > 0.0:
                return LimitClass(LimitKind.ZeroMinus, "r = 5, gamma > 0")
            return LimitClass(LimitKind.ZeroPlus, "r = 5, gamma <= 0")
        if gamma >= 0.0:
            return LimitClass(LimitKind.ZeroMinus, "r = 5, gamma >= 0")
        return LimitClass(LimitKind.ZeroPlus, "r = 5, gamma < 0")
    if r > _SEVEN_THIRDS:
        return LimitClass(LimitKind.ZeroPlus, "7/3 < r < 5")
    if r == _SEVEN_THIRDS:
        return LimitClass(LimitKind.FinitePositive, "r = 7/3")
    return LimitClass(LimitKind.PosInfinity, "r < 7/3")


def _gamma_inf(params: NonlinearityParams) -> LimitClass:
    """gamma -> +infinity; FF requires q < 7/3 on the r + 2q branches while
    DF states them without that guard, and each is followed literally."""
    q, r = params.q, params.r
    if r < _SEVEN_THIRDS:
        return LimitClass(LimitKind.PosInfinity, "r < 7/3")
    if r == _SEVEN_THIRDS:
        return LimitClass(LimitKind.FinitePositive, "r = 7/3")
    if params.case == "FF" and q >= _SEVEN_THIRDS:
        return LimitClass(LimitKind.NegInfinity, "q >= 7/3")
    if r + 2.0 * q < 7.0:
        return LimitClass(LimitKind.ZeroPlus, "r + 2q < 7")
    if r + 2.0 * q == 7.0:
        return LimitClass(LimitKind.ExactZero, "r + 2q = 7")
    return LimitClass(LimitKind.ZeroMinus, "r + 2q > 7")


def _gamma_neg_inf(params: NonlinearityParams) -> LimitClass:
    """gamma -> -infinity; the q = 5 line sides with 0^+ only when the
    lowest power is focusing."""
    q = params.q
    if params.sign1 == 1:
        if q <= 5.0:
            return LimitClass(LimitKind.ZeroPlus, "q <= 5")
        return LimitClass(LimitKind.ZeroMinus, "q > 5")
    if q < 5.0:
        return LimitClass(LimitKind.ZeroPlus, "q < 5")
    return LimitClass(LimitKind.ZeroMinus, "q >= 5")


def classify_limit(params: NonlinearityParams, direction: Direction,
                   gamma_or_omega: float) -> LimitClass:
    """Classify the limit of J along one direction of the (omega, gamma) plane.

    For the omega directions the supplied value is the fixed gamma; for the
    gamma directions it is the fixed omega.  Directions along which no
    standing waves survive (omega -> infinity in *D, gamma -> +infinity in
    FD/DD, omega -> 0 in DD at gamma >= gamma_1) raise ValueError.  An
    omega -> 0 limit read from a J(0, gamma) whose sign its error bar does
    not decide raises UnsupportedRegime.
    """
    if not isinstance(direction, Direction):
        raise ValueError("direction must be a Direction member")
    v = float(gamma_or_omega)
    if not math.isfinite(v):
        raise ValueError("gamma_or_omega must be finite")
    case = params.case
    if direction is Direction.OmegaToZero:
        if params.sign1 == 1:
            return _omega_zero_focusing(params, v)
        return _omega_zero_defocusing(params, v)
    if direction is Direction.OmegaToInf:
        if params.sign3 != 1:
            raise ValueError(
                "no standing waves for large omega in case %s" % case)
        return _omega_inf(params, v)
    if direction is Direction.GammaToInf:
        if case in ("FD", "DD"):
            raise ValueError(
                "no standing waves for large gamma in case %s" % case)
        return _gamma_inf(params)
    return _gamma_neg_inf(params)


def sign_guarantees(params: NonlinearityParams) -> List[SignGuarantee]:
    """All guaranteed-sign statements whose hypotheses hold for params."""
    p, q, r = params.p, params.q, params.r
    out: List[SignGuarantee] = []
    case = params.case
    if case == "FD" and q <= 5.0:
        out.append(SignGuarantee(
            GuaranteeStatement.AllStablePositiveJ,
            "J > 0 on the whole existence region 0 < omega < omega*(gamma)"))
    if case == "DF" and q >= 5.0:
        out.append(SignGuarantee(
            GuaranteeStatement.AllUnstableNegativeJ,
            "J < 0 for every omega > 0 and every gamma"))
    if case == "FF" and q > 5.0:
        out.append(SignGuarantee(
            GuaranteeStatement.UnstableForLargeOmega,
            "J < 0 for all omega above a threshold, uniformly in gamma"))
    if case == "DF" and 2.0 * q + r < 7.0:
        out.append(SignGuarantee(
            GuaranteeStatement.OmegaZeroAllPositive,
            "J(0, gamma) > 0 for every gamma"))
    if case == "DF" and 2.0 * p + q > 7.0:
        out.append(SignGuarantee(
            GuaranteeStatement.OmegaZeroAllNegative,
            "J(0, gamma) < 0 for every gamma"))
    if case == "DF" and 2.0 * p + q < 7.0 < 2.0 * q + r:
        out.append(SignGuarantee(
            GuaranteeStatement.OmegaZeroSignChange,
            "J(0, .) changes sign: positive for gamma << 0, negative for "
            "gamma >> 0"))
    return out


def asymptotic_exponent(params: NonlinearityParams, direction: Direction,
                        gamma: Optional[float] = None) -> Optional[float]:
    """Power-law exponent of J in the first zero a along the direction.

    Returns None when the proofs supply no power law (gamma -> +infinity,
    omega -> 0 with a defocusing lowest power, omega -> infinity with a
    defocusing highest power).  The p = 5 and r = 5 borders depend on
    whether gamma is zero; gamma defaults to the generic nonzero branch.
    """
    if not isinstance(direction, Direction):
        raise ValueError("direction must be a Direction member")
    p, q, r = params.p, params.q, params.r
    if direction is Direction.OmegaToZero:
        if params.sign1 != 1:
            return None
        if p != 5.0:
            return (7.0 - 3.0 * p) / 4.0
        if gamma is not None and gamma == 0.0:
            return (r - 9.0) / 2.0
        return (q - 9.0) / 2.0
    if direction is Direction.OmegaToInf:
        if params.sign3 != 1:
            return None
        if r != 5.0:
            return (7.0 - 3.0 * r) / 4.0
        if gamma is not None and gamma == 0.0:
            return (p - 9.0) / 2.0
        return (q - 9.0) / 2.0
    if direction is Direction.GammaToNegInf:
        if q != 5.0:
            return 1.0
        return (p + 1.0) / 2.0
    return None
