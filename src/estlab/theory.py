"""First-order mean squared error theory for the estimator family.

All results are design-based under SRSWOR and truncated at the first order
of a Taylor expansion in (p - P, ybar - Ybar).  Writing fpc = (1 - n/N)/n,
which is computed, and n checked against N, in one place for every
quantity below:

* variance of the sample mean:  V(ybar) = fpc * S_y2
* every ratio-type row:         MSE = fpc * (G^2 S_phi2 + S_e2)

where S_e2 is the within-group variance of y, G = Ybar0/P for the plain
ratio estimator (NG), and G = R = Ybar * m1 / (m1 * P + m2) for a family
member.  Both terms are nonnegative, so no MSE can come out negative by
cancellation.  On a 0/1 attribute S_e2 = S_y2 (1 - rho^2), which gives the
classical family form R^2 S_phi2 + S_y2 (1 - rho^2); and R1 - B_phi =
Ybar0/P with R1 = Ybar/P, which gives the classical NG form
S_y2 + R1^2 S_phi2 - 2 R1 S_yphi.  The NG MSE is exactly 0 when y is
proportional to the attribute (y = c * phi), where NG equals Ybar on every
sample that has both groups.

For a family member the expanded Taylor route
(R + B_phi)^2 S_phi2 - 2 (R + B_phi) S_yphi + S_y2 collapses its cross
terms to the same value.  It is implemented separately
(:func:`mse_from_linearization`, next to :func:`mse_proposed`) and the two
must agree.

Efficiency comparisons come in two equivalent statements: the direct MSE
difference, and a threshold inequality on the squared point-biserial
correlation.  Against the sample mean the two are algebraically identical.
Against the plain ratio estimator the classical threshold form drops a
factor of R1 on its correlation cross term, so the direct difference is
authoritative and any sign disagreement is reported as a flag.

Percent relative efficiency (PRE) is 100 * V(ybar) / MSE; the fpc factor
cancels, so PRE needs neither n nor N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import (
    DegeneratePopulationError,
    InvalidSampleSizeError,
    MissingPopulationSizeError,
    UndefinedConstantError,
    UndefinedPreError,
)
from .estimators import FAMILY_FORMS, EstimatorForm, EstimatorId, resolve_form
from .population import PopulationParams

__all__ = [
    "DISPLAY_ORDER",
    "ComparisonResult",
    "MseReport",
    "PreRow",
    "efficiency_vs_mean",
    "efficiency_vs_ng",
    "form_ratio_constant",
    "k_yp",
    "linearization_coefficients",
    "mse_from_linearization",
    "mse_proposed",
    "mse_report",
    "pre_table",
    "pre_vs_mean",
    "rank_pre_rows",
    "ratio_constant",
    "variance_sample_mean",
]

#: Fixed display order for efficiency tables: the sample mean first, then the
#: plain ratio estimator, then the family members by index.
DISPLAY_ORDER: tuple[str, ...] = ("mean",) + tuple(e.value for e in EstimatorId)


@dataclass(frozen=True)
class MseReport:
    """First-order MSE of one estimator at sample size n, with its PRE.

    ``pre_vs_mean`` is None when the MSE is zero and the PRE is undefined.
    """

    estimator: EstimatorId
    mse: float
    n: int
    pre_vs_mean: float | None


@dataclass(frozen=True)
class ComparisonResult:
    """Outcome of one efficiency comparison.

    ``margin`` is the MSE difference (baseline minus estimator) with the
    common fpc factor normalised to 1; nonnegative means the estimator wins.
    ``threshold_margin`` is the slack in the equivalent correlation-threshold
    inequality, and ``threshold_agrees`` records whether the two statements
    agree in sign.
    """

    beats: bool
    margin: float
    threshold_margin: float
    threshold_agrees: bool


@dataclass(frozen=True)
class PreRow:
    """One row of a percent-relative-efficiency table."""

    estimator: str
    pre: float


def _fpc(params: PopulationParams, n: int) -> float:
    """(1 - n/N)/n, validating n against a known population size."""
    if params.N is None:
        raise MissingPopulationSizeError("mean squared error needs the population size N")
    if not 1 <= n <= params.N:
        raise InvalidSampleSizeError(f"sample size must satisfy 1 <= n <= {params.N}, got {n}")
    return (1.0 - n / params.N) / n


def variance_sample_mean(params: PopulationParams, n: int) -> float:
    """Design variance of the sample mean under SRSWOR: ((1-f)/n) * S_y2.

    ``f = n/N`` is the sampling fraction, so a census (n = N) gives zero.
    Requires a known population size.
    """
    return _fpc(params, n) * params.S_y2


def form_ratio_constant(params: PopulationParams, form: EstimatorForm) -> float:
    """Ratio constant R = Ybar * m1 / (m1 * P + m2) for an arbitrary form."""
    m1, m2 = resolve_form(form, params)
    denominator = m1 * params.P + m2
    if denominator == 0.0:
        raise UndefinedConstantError(f"zero denominator: m1*P + m2 = 0 for form ({m1}, {m2})")
    return params.Ybar * m1 / denominator


def ratio_constant(estimator: EstimatorId, params: PopulationParams) -> float:
    """Ratio constant of a named family member (t1..t10)."""
    if estimator is EstimatorId.NG:
        raise ValueError("the plain ratio estimator shares t1's constant Ybar/P; ask for t1")
    return form_ratio_constant(params, FAMILY_FORMS[estimator])


def k_yp(params: PopulationParams) -> float:
    """Scaled correlation rho_pb * C_y / C_p used in the NG comparison."""
    return params.rho_pb * params.C_y / params.C_p


def _unit_mse(params: PopulationParams, estimator: EstimatorId) -> float:
    """MSE without the fpc factor, G^2 S_phi2 + S_e2; NG takes G = Ybar0/P."""
    ng = estimator is EstimatorId.NG
    g = params.Ybar0 / params.P if ng else ratio_constant(estimator, params)
    return g * g * params.S_phi2 + params.S_e2


def mse_proposed(params: PopulationParams, n: int, estimator: EstimatorId) -> float:
    """First-order MSE of any ratio-type row: fpc * (G^2 S_phi2 + S_e2), with
    G = R for a family member and Ybar0/P for NG."""
    return _fpc(params, n) * _unit_mse(params, estimator)


def mse_from_linearization(params: PopulationParams, n: int, form: EstimatorForm) -> float:
    """First-order MSE via the expanded Taylor route.

    Computes fpc * (S_y2 + G^2 S_phi2 - 2 G S_yphi) with G = R + B_phi.
    Algebraically identical to :func:`mse_proposed` on the matching form.
    """
    if params.S_phi2 == 0.0:
        raise DegeneratePopulationError("attribute variance is zero; B_phi undefined")
    g = form_ratio_constant(params, form) + params.B_phi
    return _fpc(params, n) * (
        params.S_y2 + g * g * params.S_phi2 - 2.0 * g * params.S_yphi
    )


def linearization_coefficients(
    params: PopulationParams, form: EstimatorForm
) -> tuple[float, float]:
    """First-order expansion coefficients of the family estimator.

    With b_phi held at its population value B_phi,

        t - Ybar  ~=  coef_ybar * (ybar - Ybar) + coef_p * (p - P)

    where coef_ybar = 1 and coef_p = -(B_phi + R).  Returned as
    (coef_p, coef_ybar).
    """
    ratio = form_ratio_constant(params, form)
    return -(params.B_phi + ratio), 1.0


def pre_vs_mean(
    params: PopulationParams, estimator: EstimatorId, n: int | None = None
) -> float:
    """Percent relative efficiency 100 * V(ybar) / MSE(estimator).

    The fpc factor cancels, so the result does not depend on n; passing n
    merely validates it against a known N.
    """
    if n is not None and params.N is not None:
        _fpc(params, n)
    unit_mse = _unit_mse(params, estimator)
    if unit_mse == 0.0:
        raise UndefinedPreError(f"{estimator.value} has zero mean squared error")
    return 100.0 * params.S_y2 / unit_mse


def efficiency_vs_mean(params: PopulationParams, estimator: EstimatorId) -> ComparisonResult:
    """Does the family member beat the sample mean?

    Evaluates both the direct MSE difference V(ybar) - MSE(t) and the
    equivalent threshold inequality rho^2 > (S_phi2/S_y2) R^2; the two are
    the same expression scaled by S_y2 and must agree in sign.
    """
    if estimator is EstimatorId.NG:
        raise ValueError("the comparison is defined for the family members t1..t10")
    ratio = ratio_constant(estimator, params)
    margin = params.S_y2 - _unit_mse(params, estimator)
    threshold_margin = params.rho_pb**2 - (params.S_phi2 / params.S_y2) * ratio * ratio
    return ComparisonResult(
        beats=margin >= 0.0,
        margin=margin,
        threshold_margin=threshold_margin,
        threshold_agrees=(margin >= 0.0) == (threshold_margin >= 0.0),
    )


def efficiency_vs_ng(params: PopulationParams, estimator: EstimatorId) -> ComparisonResult:
    """Does the family member beat the plain ratio estimator?

    Ground truth is the direct difference MSE(NG) - MSE(t).  The classical
    threshold statement rho^2 >= (S_phi2/S_y2)(R^2 - R1^2 + 2 R1 K_yp) is
    also evaluated; it drops a factor of R1 on the cross term, so a sign
    disagreement is possible and is reported via ``threshold_agrees`` rather
    than altering the predicate.
    """
    if estimator is EstimatorId.NG:
        raise ValueError("the comparison is defined for the family members t1..t10")
    ratio = ratio_constant(estimator, params)
    r1 = params.Ybar / params.P
    g_ng = params.Ybar0 / params.P
    margin = params.S_phi2 * (g_ng * g_ng - ratio * ratio)  # the shared S_e2 cancels exactly
    threshold_margin = params.rho_pb**2 - (params.S_phi2 / params.S_y2) * (
        ratio * ratio - r1 * r1 + 2.0 * r1 * k_yp(params)
    )
    return ComparisonResult(
        beats=margin >= 0.0,
        margin=margin,
        threshold_margin=threshold_margin,
        threshold_agrees=(margin >= 0.0) == (threshold_margin >= 0.0),
    )


def mse_report(params: PopulationParams, n: int, estimator: EstimatorId) -> MseReport:
    """MSE and PRE of one estimator at sample size n; a zero MSE has no PRE."""
    mse = mse_proposed(params, n, estimator)
    try:
        pre = pre_vs_mean(params, estimator)
    except UndefinedPreError:
        pre = None
    return MseReport(estimator=estimator, mse=mse, n=n, pre_vs_mean=pre)


def pre_table(params: PopulationParams, n: int | None = None) -> tuple[PreRow, ...]:
    """PRE of every estimator against the sample mean, in fixed display order.

    The first row is the sample mean itself (100 by definition), then the
    plain ratio estimator, then t1..t10.  Rows are never sorted here; see
    :func:`rank_pre_rows` for the ranking view.
    """
    rows = (PreRow(e.value, pre_vs_mean(params, e, n)) for e in EstimatorId)
    return (PreRow("mean", 100.0), *rows)


def rank_pre_rows(rows: tuple[PreRow, ...]) -> tuple[PreRow, ...]:
    """Sort PRE rows descending; ties break toward the earlier display position."""
    order = {label: i for i, label in enumerate(DISPLAY_ORDER)}
    return tuple(sorted(rows, key=lambda r: (-r.pre, order.get(r.estimator, math.inf))))
