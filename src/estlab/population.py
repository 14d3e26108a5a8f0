"""Finite populations and their summary parameters.

A population is a paired vector of study values ``y`` and a binary attribute
``phi`` over ``N`` units.  Everything downstream (estimators, mean squared
error theory, simulation) consumes the derived :class:`PopulationParams`:

* ``Ybar``      population mean of y
* ``P``, ``Q``  attribute proportion and its complement
* ``S_y2``, ``S_phi2``, ``S_yphi``  variances and covariance with divisor N-1
* ``rho_pb``    point-biserial correlation S_yphi / (S_y * S_phi)
* ``C_y``, ``C_p``  coefficients of variation S_y/Ybar and S_phi/P
* ``beta2_phi`` kurtosis of the attribute
* ``Ybar0``     mean of y over the units without the attribute
* ``S_e2``      within-group variance of y, divisor N-1, which is
                S_y2 (1 - rho_pb^2); it feeds the MSE of every ratio-type row

Parameters can also be reconstructed from published summary moments via
:func:`params_from_moments`, for datasets where only the moments survive.
Quantities that depend on the sample size, such as the design variance of
the sample mean, live in :mod:`estlab.theory`.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterable

import numpy as np

from .errors import (
    DegeneratePopulationError,
    InvalidMomentsError,
    PopulationParseError,
)

__all__ = [
    "FinitePopulation",
    "PopulationParams",
    "bernoulli_kurtosis",
    "compute_params",
    "load_population",
    "params_from_moments",
]


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, copy=True)
    a.setflags(write=False)
    return a


def _checked_columns(y, phi, too_small: type[Exception], what: str) -> tuple[np.ndarray, np.ndarray]:
    """Check paired columns and return y as float64 and phi as int64: one length of
    at least 2 (else ``too_small``, naming ``what``), y finite and phi 0 or 1."""
    try:
        y = np.asarray(y, dtype=np.float64)
    except (TypeError, ValueError):
        raise PopulationParseError("study values must be numeric") from None
    phi_raw = np.asarray(phi)
    if y.ndim != 1 or phi_raw.ndim != 1:
        raise PopulationParseError("y and phi must be one-dimensional vectors")
    if len(y) != len(phi_raw):
        raise PopulationParseError(f"length mismatch: {len(y)} study values vs {len(phi_raw)} attribute values")
    if len(y) < 2:
        raise too_small(f"{what} needs at least 2 units, got {len(y)}")
    if not np.all(np.isfinite(y)):
        raise PopulationParseError("study values must be finite")
    try:
        phi_f = np.asarray(phi_raw, dtype=np.float64)
    except (TypeError, ValueError):
        raise PopulationParseError("attribute values must be numeric 0 or 1") from None
    binary = np.isin(phi_f, (0.0, 1.0))
    if not binary.all():
        bad = int(np.flatnonzero(~binary)[0])
        raise PopulationParseError(f"attribute must be 0 or 1, unit {bad + 1} is {phi_raw[bad]!r}")
    return y, phi_f.astype(np.int64)


@dataclass(frozen=True)
class FinitePopulation:
    """Paired study variable and binary attribute for N units.

    ``y`` is float64, ``phi`` is int64 with every element 0 or 1, and both
    have the same length N >= 2.  Instances are immutable; the arrays are
    marked read-only.
    """

    y: np.ndarray
    phi: np.ndarray

    def __post_init__(self) -> None:
        y, phi = _checked_columns(self.y, self.phi, PopulationParseError, "population")
        object.__setattr__(self, "y", _readonly(y))
        object.__setattr__(self, "phi", _readonly(phi))

    @property
    def N(self) -> int:
        return len(self.y)

    @property
    def attribute_count(self) -> int:
        """Number of units possessing the attribute."""
        return int(self.phi.sum())


@dataclass(frozen=True)
class PopulationParams:
    """Population moments and derived constants.

    ``N`` is None when the parameters were reconstructed from summary
    moments that did not include a population size.
    """

    Ybar: float
    P: float
    Q: float
    S_y2: float
    S_phi2: float
    S_yphi: float
    rho_pb: float
    C_y: float
    C_p: float
    beta2_phi: float
    Ybar0: float
    S_e2: float
    N: int | None = None

    @property
    def B_phi(self) -> float:
        """Population regression coefficient of y on the attribute."""
        return self.S_yphi / self.S_phi2


def bernoulli_kurtosis(p: float) -> float:
    """Kurtosis mu4/mu2^2 of a 0/1 indicator with success probability p.

    Equals (1 - 3pq) / (pq) with q = 1 - p; minimised at 1.0 for p = 1/2.
    """
    if not 0.0 < p < 1.0:
        raise InvalidMomentsError(f"attribute proportion must lie strictly in (0,1), got {p}")
    return _kurtosis_from_pq(p * (1.0 - p))


def _kurtosis_from_pq(pq: float) -> float:
    """Bernoulli kurtosis (1 - 3pq) / (pq), given the product pq."""
    return (1.0 - 3.0 * pq) / pq


def load_population(source: str | Path | IO[str] | Iterable[str]) -> FinitePopulation:
    """Parse a two-column population CSV.

    Expected format: UTF-8 text, header exactly ``y,phi``, one unit per row,
    ``y`` a decimal literal and ``phi`` either 0 or 1.  LF and CRLF line
    endings are both accepted.  ``source`` may be a path, an open text
    stream, or any iterable of lines.
    """
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8", newline="") as fh:
            return load_population(fh)

    rows = [line.rstrip("\r\n") for line in source]
    while rows and rows[-1] == "":
        rows.pop()
    if not rows:
        raise PopulationParseError("empty input, expected header 'y,phi'", line=1)
    if rows[0] != "y,phi":
        raise PopulationParseError(f"expected header 'y,phi', got {rows[0]!r}", line=1)

    ys: list[float] = []
    phis: list[int] = []
    for lineno, row in enumerate(rows[1:], start=2):
        parts = row.split(",")
        if len(parts) != 2:
            raise PopulationParseError(f"expected 2 comma-separated fields, got {len(parts)}", line=lineno)
        y_tok, phi_tok = parts[0].strip(), parts[1].strip()
        try:
            y_val = float(y_tok)
        except ValueError:
            raise PopulationParseError(f"study value {y_tok!r} is not a number", line=lineno) from None
        if not math.isfinite(y_val):
            raise PopulationParseError(f"study value {y_tok!r} is not finite", line=lineno)
        try:
            phi_val = float(phi_tok)
        except ValueError:
            raise PopulationParseError(f"attribute value {phi_tok!r} is not a number", line=lineno) from None
        if phi_val not in (0.0, 1.0):
            raise PopulationParseError(f"non-binary attribute value {phi_tok!r}", line=lineno)
        ys.append(y_val)
        phis.append(int(phi_val))
    return FinitePopulation(y=np.array(ys), phi=np.array(phis))


def compute_params(pop: FinitePopulation) -> PopulationParams:
    """Compute every population moment and derived constant.

    Variances and the covariance use divisor N-1.  For a binary attribute
    the variance has the closed form N*P*Q/(N-1), which is used directly so
    the identity holds to the last bit.  The attribute kurtosis likewise
    uses its closed form (1-3PQ)/(PQ).

    Raises DegeneratePopulationError when the attribute is constant
    (P would be 0 or 1), y is constant (zero variance), its moments overflow,
    its variance is below the smallest normal float64 (where it would keep
    too few digits), or its mean is below the smallest normal float64 in
    magnitude or so near zero that C_y is not finite.
    """
    n_units = pop.N
    a = pop.attribute_count
    if a == 0 or a == n_units:
        raise DegeneratePopulationError(
            f"attribute is constant ({a} of {n_units} units possess it); proportion must lie in (0,1)"
        )
    p = a / n_units
    q = (n_units - a) / n_units  # correctly rounded; 1 - p loses digits as p nears 1
    holds = pop.phi == 1
    try:
        with np.errstate(over="raise"):
            ybar = float(pop.y.mean())
            dev_y = pop.y - ybar
            s_y2 = float(dev_y @ dev_y) / (n_units - 1)
            s_yphi = float(dev_y @ (pop.phi - p)) / (n_units - 1)
            ybar0 = float(pop.y[~holds].mean())
            dev_e = pop.y - np.where(holds, float(pop.y[holds].mean()), ybar0)
            s_e2 = float(dev_e @ dev_e) / (n_units - 1)
    except FloatingPointError:
        raise DegeneratePopulationError("the moments of y overflow float64; rescale the study values") from None
    if pop.y.min() == pop.y.max():  # the rounded mean can leave s_y2 a residue
        raise DegeneratePopulationError("study variable is constant; its variance is zero")
    if s_y2 < sys.float_info.min:
        raise DegeneratePopulationError(
            f"the variance of y, S_y2 = {s_y2:g}, is below the smallest normal float64; rescale the study values"
        )
    s_y = math.sqrt(s_y2)
    c_y = s_y / ybar if ybar else math.inf
    if abs(ybar) < sys.float_info.min or not math.isfinite(c_y):
        raise DegeneratePopulationError(
            f"population mean is zero or too near zero (Ybar = {ybar:g}); C_y = S_y/Ybar needs a finite"
            f" ratio and |Ybar| of at least the smallest normal float64 ({sys.float_info.min:g})"
        )
    s_phi2 = n_units * p * q / (n_units - 1)
    s_phi = math.sqrt(s_phi2)
    return PopulationParams(
        Ybar=ybar,
        P=p,
        Q=q,
        S_y2=s_y2,
        S_phi2=s_phi2,
        S_yphi=s_yphi,
        rho_pb=s_yphi / (s_y * s_phi),
        C_y=c_y,
        C_p=s_phi / p,
        beta2_phi=_kurtosis_from_pq(p * q),
        Ybar0=ybar0,
        S_e2=s_e2,
        N=n_units,
    )


def params_from_moments(
    Ybar: float,
    P: float,
    rho_pb: float,
    C_y: float,
    C_p: float,
    beta2_phi: float | None = None,
    N: int | None = None,
) -> PopulationParams:
    """Reconstruct population parameters from summary moments.

    Rebuilds S_y = C_y*Ybar, S_phi = C_p*P and S_yphi = rho_pb*S_y*S_phi,
    then Ybar0 = Ybar - P*B_phi and S_e2 = S_y2 (1 - rho_pb^2), which hold
    for a 0/1 attribute.
    When ``beta2_phi`` is omitted it is filled in from the closed form
    (1-3PQ)/(PQ).  ``N`` may be omitted; operations that need the finite
    population correction will then refuse to run.  Every moment given must
    be finite, and a ``Ybar`` or a variance below the smallest normal
    float64, or a variance that overflows, is refused.
    """
    given = {"Ybar": Ybar, "P": P, "rho_pb": rho_pb, "C_y": C_y, "C_p": C_p, "beta2_phi": beta2_phi}
    for name, value in given.items():
        if value is not None and not math.isfinite(value):
            raise InvalidMomentsError(f"{name} must be finite, got {value}")
    if not 0.0 < P < 1.0:
        raise InvalidMomentsError(f"P must lie strictly in (0,1), got {P}")
    if not Ybar >= sys.float_info.min:
        raise InvalidMomentsError(
            f"Ybar must be positive, and not below the smallest normal float64 ({sys.float_info.min:g}), got {Ybar}"
        )
    if not C_y > 0.0:
        raise InvalidMomentsError(f"C_y must be positive, got {C_y}")
    if not C_p > 0.0:
        raise InvalidMomentsError(f"C_p must be positive, got {C_p}")
    if not abs(rho_pb) <= 1.0:
        raise InvalidMomentsError(f"rho_pb must lie in [-1,1], got {rho_pb}")
    if N is not None and N < 2:
        raise InvalidMomentsError(f"N must be at least 2, got {N}")
    s_y = C_y * Ybar
    s_phi = C_p * P
    s_yphi = rho_pb * s_y * s_phi
    s_y2, s_phi2 = s_y * s_y, s_phi * s_phi
    if not (sys.float_info.min <= s_y2 < math.inf and sys.float_info.min <= s_phi2 < math.inf):
        raise InvalidMomentsError(
            f"variances S_y2 = {s_y2:g} and S_phi2 = {s_phi2:g} must be finite and positive, and not below"
            f" the smallest normal float64 ({sys.float_info.min:g}); rescale the study values (Ybar)"
        )
    ybar0 = float(Ybar) - P * (s_yphi / s_phi2)
    if not math.isfinite(ybar0):
        raise InvalidMomentsError(f"Ybar0 = Ybar - P*S_yphi/S_phi2 = {ybar0:g} must be finite")
    return PopulationParams(
        Ybar=float(Ybar),
        P=float(P),
        Q=1.0 - float(P),
        S_y2=s_y2,
        S_phi2=s_phi2,
        S_yphi=s_yphi,
        rho_pb=float(rho_pb),
        C_y=float(C_y),
        C_p=float(C_p),
        beta2_phi=float(beta2_phi) if beta2_phi is not None else bernoulli_kurtosis(P),
        Ybar0=ybar0,
        S_e2=s_y2 * (1.0 - rho_pb * rho_pb),
        N=int(N) if N is not None else None,
    )

