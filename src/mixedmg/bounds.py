"""Closed-form rounding-error constants for the finite-precision two-grid cycle.

The cycle's accumulated deviation from its exact-arithmetic counterpart is
bounded by ``delta_rho = c3 + c4 + c5`` relative to the energy norm of the
true solution, where the constants ``c0 .. c5`` below are evaluated
verbatim from the structural inputs.  :func:`per_line_bounds` exposes the
sixteen intermediate inequalities of the accumulation proof so a cycle can
be instrumented line by line, and :func:`gamma_constants` gives the
simplified asymptotic coefficients of the leading precision-conditioning
term ``pi_dot = sqrt(kappa) * u``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields

from .precision import (
    CARRIER_BITS,
    PrecisionFormat,
    PrecisionUnachievableError,
    mdot_plus_eps,
)

#: Labels of the sixteen instrumented proof inequalities, in execution
#: order.  ``*_step`` lines bound the fresh rounding committed by one
#: kernel application on already-perturbed inputs; ``*_total`` lines bound
#: the accumulated deviation of a stage from the exact-arithmetic cycle.
#: Norms: Euclidean through ``restrict_step`` and for ``correction_sub_step``
#: and ``post_relax_step``; coarse energy for ``coarse_correction_total``;
#: fine energy for the rest.
PROOF_LINES = (
    "rhs_quantize",
    "pre_relax_step",
    "pre_relax_total",
    "pre_residual_step",
    "pre_residual_total",
    "restrict_step",
    "coarse_correction_total",
    "prolong_step",
    "prolong_total",
    "correction_sub_step",
    "corrected_total",
    "post_residual_step",
    "post_residual_total",
    "post_relax_step",
    "post_relax_total",
    "final_sub_step",
)


@dataclass(frozen=True)
class BoundInputs:
    """Structural parameters the constants are evaluated from.

    ``m_A`` and ``m_P`` are the row counts (most nonzeros in a row) of
    ``A`` and ``P``; ``mdot_A`` and ``mdot_P`` are their inflation factors
    ``(m + 1) / (1 - (m + 1) * eps)``.  ``alpha_M`` and ``alpha_N`` certify
    the relaxation kernels' Euclidean rounding error
    ``norm(fl(Mz) - Mz) <= alpha_M * eps * norm(z)``.
    """

    eps: float
    kappa: float
    kappa_c: float
    eta_A: float
    eta_P: float
    eta_M: float
    eta_N: float
    m_A: int
    m_P: int
    alpha_M: float
    alpha_N: float

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value}")
        if not 0.0 <= self.eps < 1.0:
            raise ValueError(f"eps must be in [0, 1), got {self.eps}")
        if self.kappa < 1.0 or self.kappa_c < 1.0:
            raise ValueError("condition numbers must be >= 1")
        for name in ("eta_A", "eta_P", "eta_M", "eta_N", "m_A", "m_P",
                     "alpha_M", "alpha_N"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        # PrecisionTooLowError unless both inflation factors are defined
        mdot_plus_eps(max(self.m_A, self.m_P), self.eps)

    @property
    def mdot_A(self) -> float:
        return mdot_plus_eps(self.m_A, self.eps)

    @property
    def mdot_P(self) -> float:
        return mdot_plus_eps(self.m_P, self.eps)


#: Column order of the serialized report, fixed for downstream stability.
REPORT_COLUMNS = (
    "n", "n_c", "significand_bits",
    "eps", "kappa", "kappa_c",
    "eta_A", "eta_P", "eta_M", "eta_N", "alpha_M", "alpha_N",
    "c0", "c1", "c2", "c3", "c4", "c5",
    "delta_rho", "rho_star", "rho_tg", "pi_dot", "xi",
    "gamma1", "gamma2", "gamma3", "gamma4", "gamma5",
)


@dataclass(frozen=True)
class BoundReport:
    """All computed constants for one (hierarchy, format) configuration."""

    n: int
    n_c: int
    significand_bits: int
    inputs: BoundInputs
    c0: float
    c1: float
    c2: float
    c3: float
    c4: float
    c5: float
    delta_rho: float
    rho_star: float
    rho_tg: float
    pi_dot: float
    xi: float
    gamma: tuple[float, float, float, float, float] = field(repr=False)

    def as_dict(self) -> dict:
        """The report's values under :data:`REPORT_COLUMNS`, in that order."""
        values = {**vars(self.inputs), **vars(self),
                  **{f"gamma{i}": g for i, g in enumerate(self.gamma, start=1)}}
        return {name: values[name] for name in REPORT_COLUMNS}

    def to_json(self) -> str:
        """Strict JSON: a NaN (``rho_star`` not measured) is ``null``, and an
        infinite constant raises ``ValueError``."""
        return json.dumps({name: None if math.isnan(value) else value
                           for name, value in self.as_dict().items()},
                          indent=2, allow_nan=False)

    def csv_fields(self) -> list:
        return list(self.as_dict().values())


def _c_constants(p: BoundInputs) -> tuple[float, float, float, float, float, float]:
    e = p.eps
    s = math.sqrt(p.kappa)
    sc = math.sqrt(p.kappa_c)
    hA, hP, hM, hN = p.eta_A, p.eta_P, p.eta_M, p.eta_N
    aM = p.alpha_M
    mA, mP = p.mdot_A, p.mdot_P
    c0 = (1 + mA * (1 + hA * hM) + mA * e
          + (1 + mA * e) * hA * (hM + aM * (1 + e))) * e
    c1 = sc * (hP * c0 + e * mP * hP * (1 + hA * hM + c0))
    c2 = 2 * sc * e * mP * hP * (1 + c1) + 2 * c1
    c3 = c2 + ((2 + c2) * s + (hM + aM * (1 + e)) * (1 + e)) * e
    c4 = hA * c3 + mA * ((hA * (2 + c3) + 1) * s + e) * e
    c5 = (2 + c3 + hN * c4 + e * (1 + s * c4)) * s * e
    return c0, c1, c2, c3, c4, c5


def compute_constants(
    inputs: BoundInputs,
    rho_star: float = math.nan,
    *,
    n: int = 0,
    n_c: int = 0,
    significand_bits: int = 0,
) -> BoundReport:
    """Evaluate the six accumulation constants and assemble a report.

    ``rho_star`` (the exact-arithmetic two-grid contraction factor) is
    measured elsewhere; when omitted the report carries NaN there and in
    ``rho_tg = rho_star + delta_rho``.  Otherwise it must be finite and
    ``>= 0``.
    """
    if not (math.isnan(rho_star) or 0.0 <= rho_star < math.inf):
        raise ValueError(f"rho_star must be finite and >= 0, got {rho_star}")
    c0, c1, c2, c3, c4, c5 = _c_constants(inputs)
    delta_rho = c3 + c4 + c5
    pi_dot = math.sqrt(inputs.kappa) * inputs.eps
    xi = math.sqrt(inputs.kappa_c / inputs.kappa)
    return BoundReport(
        n=n,
        n_c=n_c,
        significand_bits=significand_bits,
        inputs=inputs,
        c0=c0, c1=c1, c2=c2, c3=c3, c4=c4, c5=c5,
        delta_rho=delta_rho,
        rho_star=rho_star,
        rho_tg=rho_star + delta_rho,
        pi_dot=pi_dot,
        xi=xi,
        gamma=gamma_constants(inputs),
    )


def gamma_constants(inputs: BoundInputs) -> tuple[float, float, float, float, float]:
    """Simplified asymptotic coefficients of the leading ``pi_dot`` term.

    The inflation factors enter at their zero-roundoff limit ``m + 1``;
    ``eps`` is not read.  These are coarse structural estimates, not exact
    derivatives: they drop conditioning-ratio factors in some terms (see
    the linearization study in the acceptance suite).
    """
    xi = math.sqrt(inputs.kappa_c / inputs.kappa)
    hA, hP, hM = inputs.eta_A, inputs.eta_P, inputs.eta_M
    aM = inputs.alpha_M
    mA, mP = inputs.m_A + 1, inputs.m_P + 1
    g1 = xi * (hP * (1 + mA * (1 + hA * hM) + hA * (hM + aM))
               + mP * hP * (1 + hA * hM))
    g2 = 2 * mP * hP + 2 * g1
    g3 = xi * g2 + 2 + hM
    g4 = hA * g3 + mA * (2 * hA + 1)
    g5 = 2.0
    return (g1, g2, g3, g4, g5)


def per_line_bounds(inputs: BoundInputs) -> dict[str, float]:
    """Coefficients of the sixteen instrumented proof inequalities.

    Each value multiplies the energy norm of the true solution to bound
    the deviation recorded under the same key in a cycle trace.  The
    ``coarse_correction_total`` line stores ``2 * c1``: the traced
    quantity is bounded by twice the constant, which itself enters
    ``c2`` without the factor.
    """
    e = inputs.eps
    s = math.sqrt(inputs.kappa)
    sc = math.sqrt(inputs.kappa_c)
    hA, hP, hM, hN = inputs.eta_A, inputs.eta_P, inputs.eta_M, inputs.eta_N
    aM, aN = inputs.alpha_M, inputs.alpha_N
    mA, mP = inputs.mdot_A, inputs.mdot_P
    c0, c1, c2, c3, c4, c5 = _c_constants(inputs)
    return {
        "rhs_quantize": e,
        "pre_relax_step": aM * (1 + e) * e,
        "pre_relax_total": (hM + aM * (1 + e)) * e,
        "pre_residual_step": mA * (1 + hA * hM + e
                                   + hA * (hM + aM * (1 + e)) * e) * e,
        "pre_residual_total": c0,
        "restrict_step": e * mP * hP * (1 + hA * hM + c0),
        "coarse_correction_total": 2 * c1,
        "prolong_step": 2 * sc * e * mP * hP * (1 + c1),
        "prolong_total": c2,
        "correction_sub_step": ((2 + c2) * s + (hM + aM * (1 + e)) * e) * e,
        "corrected_total": c3,
        "post_residual_step": mA * ((hA * (2 + c3) + 1) * s + e) * e,
        "post_residual_total": c4,
        "post_relax_step": aN * e * (1 + s * c4),
        "post_relax_total": hN * c4 + e * (1 + s * c4),
        "final_sub_step": c5,
    }


def progressive_epsilon(kappa: float, pi_target: float) -> PrecisionFormat:
    """Coarsest format whose roundoff keeps ``sqrt(kappa) * u <= pi_target``."""
    if not 0.0 < pi_target < 1.0:
        raise ValueError(f"pi_target must be in (0, 1), got {pi_target}")
    if kappa < 1.0:
        raise ValueError(f"kappa must be >= 1, got {kappa}")
    need = pi_target / math.sqrt(kappa)
    bits = max(2, math.ceil(-math.log2(need)))
    while 2.0**-bits > need:
        bits += 1
    while bits > 2 and 2.0 ** -(bits - 1) <= need:
        bits -= 1
    if bits > CARRIER_BITS:
        raise PrecisionUnachievableError(
            f"pi_target {pi_target} at kappa {kappa} needs {bits} significand "
            f"bits; the carrier provides {CARRIER_BITS}"
        )
    return PrecisionFormat(bits)
