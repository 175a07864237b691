"""Two-grid and V-cycle solvers with per-line rounding-error instrumentation.

The reduced-precision cycle and its exact-arithmetic reference execute the
same ten steps:

1.  round the right-hand side into the working format
2.  pre-relax on the zero initial guess, ``y <- M r``
3.  residual of the pre-relaxed iterate, ``A y - r``
4.  restrict the residual to the coarse level
5.  coarse correction ``B_c A_c^{-1} r_c`` (always in the carrier)
6.  prolong the correction to the fine level
7.  subtract the correction from the iterate
8.  residual of the corrected iterate
9.  precondition that residual, ``N r``
10. subtract to obtain the post-relaxed result

Steps 2-4 and 6-10 run through the certified kernels of
:mod:`mixedmg.precision`; step 5 is a carrier-precision solve, optionally
perturbed or realized by a recursive cycle.  :func:`tg_cycle` additionally
measures, for every step, the deviation of the computed quantity from the
exact reference computed with the same operators, in the norm the
accumulation proof uses for that line (see
:data:`mixedmg.bounds.PROOF_LINES`).

Every cycle, coarse solve and relaxation takes one right-hand side ``(n,)``
or a block ``(n, T)`` of them, which runs through each kernel in one call.
Each column of a block gives bit for bit what it gives on its own, so a
block of trials reproduces the per-trial results exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bounds import PROOF_LINES
from .hierarchy import GridLevel, coarsest_level
from .linops import (
    SparseSpd,
    energy_norm,
    energy_operator_norm,
    solve_spd,
)
from .precision import (
    CARRIER,
    PrecisionFormat,
    column_norms,
    quantize_vector,
    rounded_add_sub,
    rounded_matvec,
    rounded_residual,
    rounded_scale,
    _columns,
    _from_columns,
    _round_array,
)


class ContractionError(ValueError):
    """The relaxation does not contract in the energy norm."""


@dataclass(frozen=True, eq=False)
class RelaxationOp:
    """A diagonal (damped Jacobi) or scalar (Richardson) relaxation operator.

    The diagonal entries are quantized into the working format at
    construction, so applying the operator costs exactly one rounded
    multiply per entry and the certified constant ``alpha`` satisfies
    ``norm(fl(M z) - M z) <= alpha * u * norm(z)``.

    ``eta_euclid`` is the Euclidean operator norm (used when the operator
    pre-relaxes), ``eta_energy`` the energy operator norm (used when it
    post-relaxes); ``contraction`` is the energy norm of ``I - M A``.
    """

    kind: str
    diag: np.ndarray
    fmt: PrecisionFormat
    eta_euclid: float
    eta_energy: float
    alpha: float
    contraction: float

    def apply_exact(self, z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=np.float64)
        return (self.diag[:, None] * z.reshape(len(self.diag), -1)).reshape(z.shape)

    def apply_rounded(self, z: np.ndarray, fmt: PrecisionFormat):
        """``(fl(M z), bound)`` for a vector, or per column for a block."""
        if fmt != self.fmt:
            raise ValueError("relaxation operator was built for a different format")
        out = rounded_scale(self.diag, z, fmt, self.alpha)
        return out.value, out.a_priori_bound


def _finalize_relaxation(kind: str, A: SparseSpd, diag: np.ndarray,
                         fmt: PrecisionFormat) -> RelaxationOp:
    eta_euclid = float(np.abs(diag).max())
    W, Wi = A.sqrt_dense, A.inv_sqrt_dense
    # A^(1/2) (I - M A) A^(-1/2) = I - A^(1/2) M A^(1/2), symmetric for
    # diagonal M; symmetrize against formation roundoff before eigensolving.
    S = W @ (diag[:, None] * W)
    S = 0.5 * (S + S.T)
    contraction = float(np.abs(np.linalg.eigvalsh(np.eye(A.n) - S)).max())
    if contraction >= 1.0:
        raise ContractionError(
            f"{kind} relaxation does not contract: energy norm of the error "
            f"propagator is {contraction:.6f}"
        )
    eta_energy = float(np.linalg.norm(W @ (diag[:, None] * Wi), 2))
    alpha = eta_euclid * (1.0 + fmt.unit_roundoff)
    return RelaxationOp(
        kind=kind,
        diag=diag,
        fmt=fmt,
        eta_euclid=eta_euclid,
        eta_energy=eta_energy,
        alpha=alpha,
        contraction=contraction,
    )


def make_jacobi(A: SparseSpd, omega: float, fmt: PrecisionFormat) -> RelaxationOp:
    """Damped Jacobi ``M = omega * diag(A)^{-1}`` quantized into ``fmt``."""
    d = A.diagonal()
    if np.any(d <= 0):
        raise ContractionError("matrix diagonal must be positive")
    diag = _round_array(omega / d, fmt.significand_bits)
    return _finalize_relaxation("jacobi", A, diag, fmt)


def make_richardson(A: SparseSpd, omega: float, fmt: PrecisionFormat) -> RelaxationOp:
    """Richardson ``M = omega * I`` with ``omega`` quantized into ``fmt``."""
    w = float(_round_array(np.float64(omega), fmt.significand_bits))
    diag = np.full(A.n, w)
    return _finalize_relaxation("richardson", A, diag, fmt)


@dataclass(frozen=True, eq=False)
class CoarseSolver:
    """The coarse correction ``B_c A_c^{-1}`` with its measured deviation.

    ``bc_deviation`` is the energy norm of ``B_c - I`` on the coarse level:
    zero for the exact variant, the prescribed perturbation size for the
    perturbed variant, and the measured contraction of one recursive cycle
    (run in the carrier, so the map stays linear) for the recursive variant.
    """

    variant: str
    bc_deviation: float
    bc_matrix: np.ndarray | None = None
    sub_levels: tuple[GridLevel, ...] | None = None
    sub_smoothers: tuple | None = None
    mu: int = 1
    nu: int = 1

    def apply(self, level: GridLevel, r_c: np.ndarray) -> np.ndarray:
        """``B_c A_c^{-1} r_c`` for a coarse vector or block."""
        if self.variant == "exact":
            return solve_spd(level.A_c, r_c)
        if self.variant == "perturbed":
            x = solve_spd(level.A_c, r_c)
            # one matrix-vector product per contiguous column: a dense
            # matrix times a block goes through gemm, which rounds
            # differently from the gemv a lone vector gets
            cols = _columns(x, level.A_c.n)
            return _from_columns(np.stack([self.bc_matrix @ c for c in cols]), x)
        if self.variant == "recursive":
            return v_cycle(list(self.sub_levels), self.mu, self.nu, r_c,
                           CARRIER, smoothers=list(self.sub_smoothers))
        raise ValueError(f"unknown coarse solver variant {self.variant!r}")

    def solve_matrix(self, level: GridLevel) -> np.ndarray:
        """Dense ``B_c A_c^{-1}``: the solver applied to the identity block."""
        return np.ascontiguousarray(self.apply(level, np.eye(level.A_c.n)))


def make_exact_coarse() -> CoarseSolver:
    return CoarseSolver(variant="exact", bc_deviation=0.0)


def make_perturbed_coarse(level: GridLevel, sigma: float, seed: int = 0) -> CoarseSolver:
    """Synthetic perturbation ``B_c = I + sigma * G`` with ``norm_{A_c}(G) = 1``.

    ``G`` is a fixed seeded random symmetric matrix, so ``bc_deviation``
    equals ``sigma`` exactly and is reproducible across runs.
    """
    if not 0.0 <= sigma < 1.0:
        raise ValueError(f"sigma must be in [0, 1), got {sigma}")
    if sigma == 0.0:
        return make_exact_coarse()
    n_c = level.A_c.n
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((n_c, n_c))
    G = 0.5 * (G + G.T)
    G /= energy_operator_norm(G, level.A_c)
    return CoarseSolver(
        variant="perturbed",
        bc_deviation=sigma,
        bc_matrix=np.eye(n_c) + sigma * G,
    )


def default_smoothers(levels, fmt: PrecisionFormat, omega: float = 2.0 / 3.0):
    """Damped Jacobi pre/post pair for every non-coarsest level."""
    return [(make_jacobi(l.A, omega, fmt),) * 2 for l in levels[:-1]]


def make_recursive_coarse(levels, mu: int, nu: int, smoothers=None) -> CoarseSolver:
    """Coarse solver that runs one carrier-precision cycle on the sub-hierarchy.

    With only two levels the recursion bottoms out immediately and the
    solver degenerates to the exact direct solve.
    """
    if len(levels) < 2:
        raise ValueError("a recursive coarse solver needs at least two levels")
    if len(levels) == 2:
        return make_exact_coarse()
    sub_levels = tuple(levels[1:])
    if smoothers is None:
        smoothers = default_smoothers(list(sub_levels), CARRIER)
    dev = measure_bc_deviation(levels, mu, nu, smoothers=smoothers)
    if dev >= 1.0:
        raise ContractionError(
            f"recursive coarse solve does not contract (deviation {dev:.4f})"
        )
    return CoarseSolver(
        variant="recursive",
        bc_deviation=dev,
        sub_levels=sub_levels,
        sub_smoothers=tuple(smoothers),
        mu=mu,
        nu=nu,
    )


@dataclass(frozen=True, eq=False)
class CycleTrace:
    """Measured per-line deviations of one reduced-precision cycle.

    ``line_norms`` maps every label in :data:`mixedmg.bounds.PROOF_LINES`
    to the norm of the corresponding deviation (step lines: fresh kernel
    error given perturbed inputs; total lines: accumulated deviation from
    the exact reference run with identical operators).
    ``delta_y_energy`` is the energy norm of the final accumulated
    deviation and ``y_reference`` the exact-arithmetic result.  For a block
    of right-hand sides every norm is an array with one entry per column.
    """

    line_norms: dict[str, float | np.ndarray]
    delta_y_energy: float | np.ndarray
    y_reference: np.ndarray


@dataclass(frozen=True, eq=False)
class _Stages:
    y_mu: np.ndarray
    r_mu: np.ndarray
    r_c: np.ndarray
    d_c: np.ndarray
    d: np.ndarray
    y_nu: np.ndarray
    r_nu: np.ndarray
    r_N: np.ndarray
    y: np.ndarray


def _reference_stages(level: GridLevel, r, M: RelaxationOp, N: RelaxationOp,
                      coarse: CoarseSolver) -> _Stages:
    A = level.A.matrix
    r = np.asarray(r, dtype=np.float64)
    y_mu = M.apply_exact(r)
    r_mu = A @ y_mu - r
    r_c = level.P_t @ r_mu
    d_c = coarse.apply(level, r_c)
    d = level.P @ d_c
    y_nu = y_mu - d
    r_nu = A @ y_nu - r
    r_N = N.apply_exact(r_nu)
    y = y_nu - r_N
    return _Stages(y_mu, r_mu, r_c, d_c, d, y_nu, r_nu, r_N, y)


def exact_tg_reference(level: GridLevel, r, M: RelaxationOp, N: RelaxationOp,
                       coarse: CoarseSolver) -> np.ndarray:
    """The ten-step cycle in the carrier: the exact-arithmetic proxy."""
    return _reference_stages(level, r, M, N, coarse).y


def tg_cycle(level: GridLevel, r, M: RelaxationOp, N: RelaxationOp,
             coarse: CoarseSolver, fmt: PrecisionFormat):
    """One reduced-precision two-grid cycle with a full deviation trace.

    ``r`` is one right-hand side ``(n,)`` or a block ``(n, T)`` of them.
    Returns the computed result and a :class:`CycleTrace` whose entries are
    measured against the exact reference computed with the same ``M``,
    ``N`` and coarse solver.
    """
    if level.P is None:
        raise ValueError("tg_cycle needs a level with a coarse grid")
    A = level.A
    rq = quantize_vector(r, fmt).value  # rejects a non-finite right-hand side
    r = np.asarray(r, dtype=np.float64)
    ref = _reference_stages(level, r, M, N, coarse)

    eta_A = level.a_constants.eta_abs
    eta_P = level.p_constants.eta_abs

    y_mu, _ = M.apply_rounded(rq, fmt)
    r_mu = rounded_residual(A, y_mu, rq, fmt, eta_abs=eta_A).value
    r_c = rounded_matvec(level.P_t_layout, r_mu, fmt, eta_abs=eta_P).value
    d_c = coarse.apply(level, r_c)
    d = rounded_matvec(level.P_layout, d_c, fmt, eta_abs=eta_P).value
    y_nu = rounded_add_sub(y_mu, d, "-", fmt).value
    r_nu = rounded_residual(A, y_nu, rq, fmt, eta_abs=eta_A).value
    r_N, _ = N.apply_rounded(r_nu, fmt)
    y = rounded_add_sub(y_nu, r_N, "-", fmt).value

    euclid = column_norms
    e_A = lambda v: energy_norm(v, A)  # noqa: E731
    e_Ac = lambda v: energy_norm(v, level.A_c)  # noqa: E731
    Am = A.matrix
    norms = {
        "rhs_quantize": euclid(rq - r),
        "pre_relax_step": euclid(y_mu - M.apply_exact(rq)),
        "pre_relax_total": euclid(y_mu - ref.y_mu),
        "pre_residual_step": euclid(r_mu - (Am @ y_mu - rq)),
        "pre_residual_total": euclid(r_mu - ref.r_mu),
        "restrict_step": euclid(r_c - level.P_t @ r_mu),
        "coarse_correction_total": e_Ac(d_c - ref.d_c),
        "prolong_step": e_A(d - level.P @ d_c),
        "prolong_total": e_A(d - ref.d),
        "correction_sub_step": euclid(y_nu - (y_mu - d)),
        "corrected_total": e_A(y_nu - ref.y_nu),
        "post_residual_step": e_A(r_nu - (Am @ y_nu - rq)),
        "post_residual_total": e_A(r_nu - ref.r_nu),
        "post_relax_step": euclid(r_N - N.apply_exact(r_nu)),
        "post_relax_total": e_A(r_N - ref.r_N),
        "final_sub_step": e_A(y - (y_nu - r_N)),
    }
    assert set(norms) == set(PROOF_LINES)
    trace = CycleTrace(
        line_norms=norms,
        delta_y_energy=e_A(y - ref.y),
        y_reference=ref.y,
    )
    return y, trace


def rho_star(level: GridLevel, M: RelaxationOp, N: RelaxationOp,
             coarse: CoarseSolver) -> float:
    """Energy norm of the exact-arithmetic two-grid error propagator.

    Assembles ``(I - N A)(I - P B_c A_c^{-1} P' A)(I - M A)`` densely and
    returns its energy operator norm.  A value >= 1 is reported, not
    raised: the convergence bound is then vacuous for this configuration.
    """
    A = level.A
    n = A.n
    W = coarse.solve_matrix(level)
    Pd = level.P.toarray()
    correction = np.eye(n) - Pd @ (W @ (Pd.T @ A.dense))
    pre = np.eye(n) - M.diag[:, None] * A.dense
    post = np.eye(n) - N.diag[:, None] * A.dense
    return energy_operator_norm(post @ correction @ pre, A)


def v_cycle(levels, mu: int, nu: int, r, fmt: PrecisionFormat, *,
            smoothers=None) -> np.ndarray:
    """Recursive V(mu, nu)-cycle over a hierarchy, all levels in ``fmt``.

    ``r`` is one right-hand side ``(n,)`` or a block ``(n, T)`` of them.
    The first pre-relaxation sweep on the zero initial guess is the literal
    ``y <- M r``; later sweeps run the full residual/relax/subtract kernel
    sequence.  The coarsest system is solved directly in the carrier.  With
    two levels and ``mu = nu = 1`` the kernel sequence is identical to
    :func:`tg_cycle` with an exact coarse solver.

    ``smoothers`` is one ``(M, N)`` pair per non-coarsest level; damped
    Jacobi (omega = 2/3) pairs are built when omitted.
    """
    if len(levels) < 2:
        raise ValueError("v_cycle needs at least two levels")
    if mu < 0 or nu < 0 or mu + nu < 1:
        raise ValueError("need mu, nu >= 0 with mu + nu >= 1")
    if smoothers is None:
        smoothers = default_smoothers(levels, fmt)
    if len(smoothers) != len(levels) - 1:
        raise ValueError("need one smoother pair per non-coarsest level")

    level = levels[0]
    M, N = smoothers[0]
    A = level.A
    eta_A = level.a_constants.eta_abs
    eta_P = level.p_constants.eta_abs
    r = np.asarray(r, dtype=np.float64)
    rq = quantize_vector(r, fmt).value

    y = np.zeros_like(rq)
    for sweep in range(mu):
        if sweep == 0:
            y, _ = M.apply_rounded(rq, fmt)
        else:
            res = rounded_residual(A, y, rq, fmt, eta_abs=eta_A).value
            z, _ = M.apply_rounded(res, fmt)
            y = rounded_add_sub(y, z, "-", fmt).value

    r_mu = rounded_residual(A, y, rq, fmt, eta_abs=eta_A).value
    r_c = rounded_matvec(level.P_t_layout, r_mu, fmt, eta_abs=eta_P).value
    if len(levels) == 2:
        d_c = solve_spd(level.A_c, r_c)
    else:
        d_c = v_cycle(levels[1:], mu, nu, r_c, fmt, smoothers=smoothers[1:])
    d = rounded_matvec(level.P_layout, d_c, fmt, eta_abs=eta_P).value
    y = rounded_add_sub(y, d, "-", fmt).value

    for _ in range(nu):
        r_nu = rounded_residual(A, y, rq, fmt, eta_abs=eta_A).value
        r_N, _ = N.apply_rounded(r_nu, fmt)
        y = rounded_add_sub(y, r_N, "-", fmt).value
    return y


def measure_bc_deviation(levels, mu: int, nu: int, *, smoothers=None) -> float:
    """Energy deviation from identity of the effective recursive coarse solve.

    Applies the carrier-precision recursive cycle (direct solve when the
    hierarchy below has a single level) to the coarse identity block to
    assemble ``B_c A_c^{-1}`` densely, multiplies by ``A_c`` and returns
    the coarse energy norm of ``B_c - I``.
    """
    if len(levels) < 2:
        raise ValueError("need at least two levels")
    level = levels[0]
    A_c = level.A_c
    n_c = A_c.n
    if len(levels) == 2:
        solver = CoarseSolver(variant="exact", bc_deviation=0.0)
        W = solver.solve_matrix(level)
    else:
        sub = levels[1:]
        if smoothers is None:
            smoothers = default_smoothers(sub, CARRIER)
        elif len(smoothers) == len(levels) - 1:
            smoothers = smoothers[1:]
        W = v_cycle(sub, mu, nu, np.eye(n_c), CARRIER, smoothers=smoothers)
    B_c = W @ A_c.dense
    return energy_operator_norm(B_c - np.eye(n_c), A_c)


def _projector_similarity(level: GridLevel) -> np.ndarray:
    # orthogonal complement projector of range(A^(1/2) P); the energy
    # projector below is its similarity transform by A^(-1/2)
    A = level.A
    Q = A.sqrt_dense @ level.P.toarray()
    U, _ = np.linalg.qr(Q)
    S = np.eye(A.n) - U @ U.T
    return 0.5 * (S + S.T)


def coarse_complement_projector(level: GridLevel) -> np.ndarray:
    """The energy-orthogonal projector ``I - P (P' A P)^{-1} P' A``.

    Formed through an orthonormal basis of ``A^(1/2) P`` so that the
    computed matrix is idempotent up to roundoff.
    """
    A = level.A
    return A.inv_sqrt_dense @ _projector_similarity(level) @ A.sqrt_dense


def projector_energy_norm(level: GridLevel) -> float:
    """Energy operator norm of the coarse complement projector.

    The energy norm of the projector equals the Euclidean norm of its
    similarity form ``I - U U'``; measuring that form directly avoids the
    condition-number amplification a redundant conjugation round trip
    through ``A^(1/2) .. A^(-1/2)`` would add.
    """
    return float(np.linalg.norm(_projector_similarity(level), 2))
