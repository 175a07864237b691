"""Closed-form rounding-error constants for the finite-precision two-grid cycle.

The cycle's accumulated deviation from its exact-arithmetic counterpart is
bounded by ``delta_rho = c3 + c4 + c5`` relative to the energy norm of the
true solution.  :func:`per_line_bounds` evaluates the sixteen intermediate
inequalities of the accumulation proof verbatim from the structural inputs,
so a cycle can be instrumented line by line; the constants ``c0 .. c5``
are the coefficients of its total lines.  :func:`gamma_constants` gives the
simplified asymptotic coefficients of the leading precision-conditioning
term ``pi_dot = sqrt(kappa) * u``.  :data:`STAGE_LINES` states, once, the
proof's line table, which the instrumented cycle measures and
:data:`PROOF_LINES` flattens into the sixteen labels; :data:`KERNEL_BOUNDS`
states, once, the error model of each emulated kernel the cycle runs,
which the proof lines compose stage by stage.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field, fields

from .precision import (
    CARRIER_BITS,
    PrecisionFormat,
    PrecisionUnachievableError,
    mdot_plus_eps,
)

#: The proof's line table: each stage of the cycle's step sequence
#: (:func:`mixedmg.cycles._cycle`), in step order, with its step line and
#: its total line, ``None`` where it has none, each with the norm it is
#: measured in: ``"2"`` Euclidean, ``"A"`` fine energy, ``"A_c"`` coarse
#: energy.  A ``*_step`` line bounds the fresh rounding one kernel
#: application commits on already-perturbed inputs, measured against the
#: stage's operation run in the carrier on the computed inputs; a
#: ``*_total`` line bounds the accumulated deviation of the stage from the
#: exact-arithmetic cycle.
STAGE_LINES = {
    "r": (None, ("rhs_quantize", "2")),
    "y_mu": (("pre_relax_step", "2"), ("pre_relax_total", "2")),
    "r_mu": (("pre_residual_step", "2"), ("pre_residual_total", "2")),
    "r_c": (("restrict_step", "2"), None),
    "d_c": (None, ("coarse_correction_total", "A_c")),
    "d": (("prolong_step", "A"), ("prolong_total", "A")),
    "y_nu": (("correction_sub_step", "2"), ("corrected_total", "A")),
    "r_nu": (("post_residual_step", "A"), ("post_residual_total", "A")),
    "r_N": (("post_relax_step", "2"), ("post_relax_total", "A")),
    "y": (("final_sub_step", "A"), None),
}

#: Labels of the sixteen instrumented proof inequalities, in execution
#: order: :data:`STAGE_LINES` flattened, each stage's step line before its
#: total line.
PROOF_LINES = tuple(line[0] for lines in STAGE_LINES.values() for line in lines if line)


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
    # c0..c5 are the bounds of the total lines; the coarse line holds 2 * c1
    lines = per_line_bounds(inputs)
    c0, c2, c3, c4, c5 = (lines[name] for name in (
        "pre_residual_total", "prolong_total", "corrected_total",
        "post_residual_total", "final_sub_step"))
    c1 = lines["coarse_correction_total"] / 2
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


def _rows_bound(u, z, *, m, eta):
    """``K z`` row by row: ``u mdot(m) eta ||z||``."""
    return u * mdot_plus_eps(m, u) * (eta * z)


#: The normwise error bound of each reduced-format kernel in the standard
#: model, keyed by its operation in :func:`mixedmg.cycles._operations`:
#: ``||fl(op) - op||_2 <= KERNEL_BOUNDS[op](u, *norms, **params)`` for unit
#: roundoff ``u``.  The norms are Euclidean, of the operation's inputs in
#: its argument order (``quantize`` ``||r||``, ``relax`` ``||z||``,
#: ``residual`` ``||y||`` and ``||r||`` of ``A y - r``, ``restrict`` and
#: ``prolong`` ``||z||``), but of the exact difference ``||v - w||`` for
#: ``subtract``; given per-column arrays of a block, a bound is one per
#: column.  ``m`` is the most stored nonzeros in a row of the layout the
#: row kernel runs on (``A.row_layout``, ``P_t_layout``, ``P_layout`` of a
#: :class:`mixedmg.hierarchy.GridLevel`), ``eta`` bounds the spectral norm
#: of that operator's entrywise absolute value from above (``eta_A``,
#: ``eta_P`` of :class:`mixedmg.hierarchy.GridLevel`), and
#: ``alpha`` certifies the scaling ``s z``, ``alpha >= |s|`` for ``s``
#: representable in the format (:attr:`mixedmg.cycles.RelaxationOp.alpha`).
#: An undefined ``mdot`` raises :class:`mixedmg.precision.PrecisionTooLowError`.
KERNEL_BOUNDS = {
    "quantize": lambda u, r: u * r,
    "relax": lambda u, z, *, alpha: alpha * u * z,
    "residual": lambda u, y, r, *, m, eta: u * mdot_plus_eps(m, u) * (r + eta * y),
    "restrict": _rows_bound,
    "prolong": _rows_bound,
    "subtract": lambda u, d: u * d,
}


def per_line_bounds(inputs: BoundInputs) -> dict[str, float]:
    """Coefficients of the sixteen instrumented proof inequalities, keyed
    by their labels in :data:`STAGE_LINES`.

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
    # the pre-relaxed iterate's deviation per unit of e
    relax = hM + aM * (1 + e)
    c0 = (1 + mA * (1 + hA * hM) + mA * e + (1 + mA * e) * hA * relax) * e
    restrict = e * mP * hP * (1 + hA * hM + c0)
    c1 = sc * (hP * c0 + restrict)
    prolong = 2 * sc * e * mP * hP * (1 + c1)
    c2 = prolong + 2 * c1
    c3 = c2 + ((2 + c2) * s + relax * (1 + e)) * e
    post_residual = mA * ((hA * (2 + c3) + 1) * s + e) * e
    c4 = hA * c3 + post_residual
    return {
        "rhs_quantize": e,
        "pre_relax_step": aM * (1 + e) * e,
        "pre_relax_total": relax * e,
        "pre_residual_step": mA * (1 + hA * hM + e + hA * relax * e) * e,
        "pre_residual_total": c0,
        "restrict_step": restrict,
        "coarse_correction_total": 2 * c1,
        "prolong_step": prolong,
        "prolong_total": c2,
        "correction_sub_step": ((2 + c2) * s + relax * e) * e,
        "corrected_total": c3,
        "post_residual_step": post_residual,
        "post_residual_total": c4,
        "post_relax_step": aN * e * (1 + s * c4),
        "post_relax_total": hN * c4 + e * (1 + s * c4),
        "final_sub_step": (2 + c3 + hN * c4 + e * (1 + s * c4)) * s * e,
    }


def progressive_epsilon(kappa: float, pi_target: float) -> PrecisionFormat:
    """Coarsest format whose roundoff keeps ``sqrt(kappa) * u <= pi_target``."""
    if not 0.0 < pi_target < 1.0:
        raise ValueError(f"pi_target must be in (0, 1), got {pi_target}")
    if not 1.0 <= kappa < math.inf:
        raise ValueError(f"kappa must be finite and >= 1, got {kappa}")
    need = pi_target / math.sqrt(kappa)
    # the smallest width with 2**-bits <= need; 2.0**-1075 is 0.0, so it ends
    bits = next(b for b in itertools.count(2) if 2.0**-b <= need)
    if bits > CARRIER_BITS:
        raise PrecisionUnachievableError(
            f"pi_target {pi_target} at kappa {kappa} needs {bits} significand "
            f"bits; the carrier provides {CARRIER_BITS}"
        )
    return PrecisionFormat(bits)
