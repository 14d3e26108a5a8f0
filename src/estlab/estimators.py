"""Per-sample statistics and the attribute-assisted estimator family.

Given a sample of n units with mean ``ybar`` and attribute proportion ``p``,
and a population with known proportion ``P``, the family estimates the
population mean Ybar by

    t = (ybar + b_phi * (P - p)) / (m1 * p + m2) * (m1 * P + m2)

where ``b_phi`` is the sample regression coefficient of y on the attribute
and the constants ``m1`` (nonzero) and ``m2`` are either plain numbers or
known population constants of the attribute (its kurtosis, its coefficient
of variation, or the point-biserial correlation).  Ten named members
``t1 .. t10`` pin particular choices; the plain ratio estimator
``t_NG = ybar * P / p`` (Naik-Gupta) is t1's form, (m1, m2) = (1, 0), with
the slope term dropped (b_phi = 0).

On a 0/1 attribute ``b_phi`` is the difference of group means.  The scalar
estimators below and the batch kernel in :mod:`estlab.simulation` resolve
each named row through ``_row_form`` and evaluate it through
:func:`family_estimate`; the kernel does so once per row over the attribute
counts a = 0..n, with ybar = 1 and b_phi = 0, for the factor that scales the
slope-adjusted sample mean at each a.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateSampleError,
    SampleTooSmallError,
    UndefinedConstantError,
    UndefinedEstimateError,
)
from .population import PopulationParams, _checked_columns, _readonly

__all__ = [
    "FAMILY_FORMS",
    "EstimatorForm",
    "EstimatorId",
    "ParamValue",
    "SampleData",
    "SampleStats",
    "Symbol",
    "compute_sample_stats",
    "estimate_general",
    "estimate_named",
    "resolve_form",
]


class EstimatorId(str, enum.Enum):
    """Named members of the estimator family."""

    NG = "ng"
    T1 = "t1"
    T2 = "t2"
    T3 = "t3"
    T4 = "t4"
    T5 = "t5"
    T6 = "t6"
    T7 = "t7"
    T8 = "t8"
    T9 = "t9"
    T10 = "t10"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class Symbol(str, enum.Enum):
    """Known population constants usable as m1 or m2.

    Each value names the :class:`PopulationParams` field it resolves to.
    """

    BETA2_PHI = "beta2_phi"
    CP = "C_p"
    RHO_PB = "rho_pb"


# A form constant is either a plain number or a named population constant.
ParamValue = float | int | Symbol


@dataclass(frozen=True)
class EstimatorForm:
    """The (m1, m2) pair defining one member of the family; m1 must resolve nonzero."""

    m1: ParamValue
    m2: ParamValue


#: (m1, m2) for the named members t1..t10.  t1 divides by p alone, making it
#: the pure shift-free form; the other nine shift the denominator by known
#: attribute constants.
FAMILY_FORMS: dict[EstimatorId, EstimatorForm] = {
    EstimatorId.T1: EstimatorForm(1.0, 0.0),
    EstimatorId.T2: EstimatorForm(1.0, Symbol.BETA2_PHI),
    EstimatorId.T3: EstimatorForm(1.0, Symbol.CP),
    EstimatorId.T4: EstimatorForm(1.0, Symbol.RHO_PB),
    EstimatorId.T5: EstimatorForm(Symbol.BETA2_PHI, Symbol.CP),
    EstimatorId.T6: EstimatorForm(Symbol.CP, Symbol.BETA2_PHI),
    EstimatorId.T7: EstimatorForm(Symbol.CP, Symbol.RHO_PB),
    EstimatorId.T8: EstimatorForm(Symbol.RHO_PB, Symbol.CP),
    EstimatorId.T9: EstimatorForm(Symbol.BETA2_PHI, Symbol.RHO_PB),
    EstimatorId.T10: EstimatorForm(Symbol.RHO_PB, Symbol.BETA2_PHI),
}


@dataclass(frozen=True)
class SampleData:
    """A drawn sample: paired y values and 0/1 attribute values, n >= 2."""

    y: np.ndarray
    phi: np.ndarray

    def __post_init__(self) -> None:
        y, phi = _checked_columns(self.y, self.phi, SampleTooSmallError, "sample")
        object.__setattr__(self, "y", _readonly(y))
        object.__setattr__(self, "phi", _readonly(phi))

    @property
    def n(self) -> int:
        return len(self.y)


@dataclass(frozen=True)
class SampleStats:
    """Per-sample quantities feeding every estimator.

    ``ybar`` is the sample mean and ``p = a/n`` the share of the sample's a
    attribute holders.  ``b_phi`` is the sample regression slope of y on the
    attribute, the difference of group means ``ybar1 - ybar0``, or None when
    the sample attribute is constant (a = 0 or n) and the slope is undefined.
    """

    ybar: float
    p: float
    b_phi: float | None


def compute_sample_stats(sample: SampleData) -> SampleStats:
    """Compute the sample mean, attribute share and slope; SampleData ensures n >= 2."""
    n = sample.n
    ybar = float(sample.y.mean())
    a = int(sample.phi.sum())
    b_phi = None
    if 0 < a < n:
        yc = sample.y - ybar  # both group means carry ybar's rounding; it cancels
        b_phi = float(yc @ sample.phi) / a - float(yc @ (1 - sample.phi)) / (n - a)
    return SampleStats(ybar=ybar, p=a / n, b_phi=b_phi)


def _resolve_param(value: ParamValue, params: PopulationParams) -> float:
    """Resolve a form constant to a number, looking symbols up in ``params``."""
    if isinstance(value, Symbol):
        return float(getattr(params, value.value))
    return float(value)


def resolve_form(form: EstimatorForm, params: PopulationParams) -> tuple[float, float]:
    """Resolve (m1, m2) against population constants; m1 must be nonzero."""
    m1 = _resolve_param(form.m1, params)
    m2 = _resolve_param(form.m2, params)
    if m1 == 0.0:
        raise UndefinedConstantError("m1 resolved to zero; the family requires m1 != 0")
    return m1, m2


def _row_form(estimator: EstimatorId, params: PopulationParams) -> tuple[float, float, bool]:
    """Resolve a named row to (m1, m2, uses_slope); NG is t1's (1, 0) without the slope."""
    uses_slope = estimator is not EstimatorId.NG
    m1, m2 = resolve_form(FAMILY_FORMS[estimator if uses_slope else EstimatorId.T1], params)
    return m1, m2, uses_slope


def family_estimate(
    ybar: float | np.ndarray,
    p: float | np.ndarray,
    P: float,
    b_phi: float | np.ndarray,
    m1: float,
    m2: float,
) -> np.ndarray:
    """Family estimate ``(ybar + b_phi*(P - p)) / (m1*p + m2) * (m1*P + m2)``, elementwise.

    Exactly ybar where p == P.  With b_phi = 0, m1 = 1 and m2 = 0 it is the
    plain ratio estimate ``(ybar / p) * P`` bit for bit.  Rows with an
    undefined b_phi or a zero denominator are the caller's to exclude.
    """
    return np.where(p == P, ybar, (ybar + b_phi * (P - p)) / (m1 * p + m2) * (m1 * P + m2))


def _estimate(stats: SampleStats, P: float, m1: float, m2: float, uses_slope: bool) -> float:
    """Check the denominator, then the slope, then evaluate; at p == P that gives ybar."""
    if m1 * stats.p + m2 == 0.0:
        if stats.p == 0.0:
            raise UndefinedEstimateError("zero sample proportion")
        raise UndefinedEstimateError(f"zero denominator: m1*p + m2 = 0 at p = {stats.p}")
    b_phi = stats.b_phi if uses_slope else 0.0
    if b_phi is None:
        raise DegenerateSampleError("b_phi undefined on this sample (constant attribute)")
    return float(family_estimate(stats.ybar, stats.p, P, b_phi, m1, m2))


def estimate_general(
    stats: SampleStats, P: float, form: EstimatorForm, params: PopulationParams
) -> float:
    """Evaluate the family estimator for an arbitrary (m1, m2) form."""
    return _estimate(stats, P, *resolve_form(form, params), True)


def estimate_named(
    stats: SampleStats, P: float, estimator: EstimatorId, params: PopulationParams
) -> float:
    """Evaluate a named family member, or the plain ratio estimator for NG."""
    return _estimate(stats, P, *_row_form(estimator, params))
