"""Two-grid and V-cycle solvers with per-line rounding-error instrumentation.

Every cycle runs one step sequence, written once:

1.  round the right-hand side into the working format
2.  pre-relax ``mu`` times; the first sweep on the zero initial guess is
    ``y <- S r``, each later one ``y <- y - S (A y - r)``
3.  residual of the pre-relaxed iterate, ``A y - r``
4.  restrict the residual to the coarse level
5.  coarse correction ``B_c A_c^{-1} r_c`` (always in the carrier)
6.  prolong the correction to the fine level
7.  subtract the correction from the iterate
8.  residual of the corrected iterate
9.  precondition that residual, ``S r``
10. subtract to obtain the post-relaxed result

and repeats steps 8-10 for each of ``nu`` post-relaxation sweeps.  Each
level relaxes with one operator ``S`` before and after its coarse
correction.  In a reduced format the steps other than 5 run through the
certified kernels of :mod:`mixedmg.precision`; in the carrier they are the
plain float64 operations, which give the bits of those kernels at 53
bits.  The exact-arithmetic reference is this sequence in the carrier.
Step 5 is a :class:`CoarseSolver`, which holds one of two carrier maps: a
sine-mode solve (the exact solve or its perturbation in the coarse sine
basis, one :func:`mixedmg.linops.solve_spd` either way) or a carrier
V-cycle below the coarse grid; in :func:`v_cycle` it is the V-cycle one
level down.  Every coarse solver carries its Fourier form, which holds
its level and its deviation and from which :func:`rho_star` is certified.

The sequence is a generator of its named stages.  :func:`tg_cycle` runs it
with ``mu = nu = 1`` in the working format and in the carrier, in lockstep,
and measures, for every step, the deviation of the computed quantity from
the exact reference, in the norm the accumulation proof uses for that line
(see :data:`mixedmg.bounds.PROOF_LINES`).  Each line is measured as soon as
the stages it reads exist, and each stage is released once no later line
reads it, so a cycle holds a few blocks at a time rather than both full
sequences.  :func:`v_cycle` runs the sequence to its end.

Every cycle, coarse solve and relaxation takes one right-hand side ``(n,)``
or a block ``(n, T)`` of them, which runs through each kernel in one call.
Each column of a block gives bit for bit what it gives on its own, so a
block of trials reproduces the per-trial results exactly.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import fourier
from .bounds import PROOF_LINES
from .hierarchy import GridLevel, spectrum_ends
from .linops import SparseSpd, energy_norm, solve_spd
from .precision import (
    CARRIER,
    PrecisionFormat,
    RoundedResult,
    column_norms,
    quantize_vector,
    rounded_add_sub,
    rounded_matvec,
    rounded_residual,
    rounded_scale,
    _round_array,
)


class ContractionError(ValueError):
    """The relaxation does not contract in the energy norm."""


@dataclass(frozen=True, eq=False)
class RelaxationOp:
    """A damped Jacobi or Richardson relaxation ``S = w I`` of order ``n``.

    On a stencil matrix the Jacobi diagonal is the constant centre ``c_0``,
    so both relaxations are the scalar ``w``, quantized into the working
    format at construction: applying the operator costs exactly one rounded
    multiply per entry, and the certified constant ``alpha`` satisfies
    ``norm(fl(S z) - S z) <= alpha * u * norm(z)``.

    ``eta = |w|`` is the operator norm of ``S``, Euclidean and energy alike,
    since ``S`` commutes with ``A``; ``contraction`` is the energy norm of
    ``I - S A``, whose eigenvalues are ``1 - w lambda`` over the spectrum of
    ``A``, with the certified ends the stencil symbol of ``A`` gives
    (:func:`mixedmg.hierarchy.spectrum_ends`).
    """

    w: float
    n: int
    fmt: PrecisionFormat
    eta: float
    alpha: float
    contraction: float

    def apply_exact(self, z: np.ndarray) -> np.ndarray:
        return self.w * np.asarray(z, dtype=np.float64)

    def apply_rounded(self, z: np.ndarray, fmt: PrecisionFormat) -> RoundedResult:
        """``fl(S z)`` and its bound, per column for a block."""
        if fmt != self.fmt:
            raise ValueError("relaxation operator was built for a different format")
        return rounded_scale(self.w, z, fmt, self.alpha)


def _finalize_relaxation(kind: str, A: SparseSpd, w: float,
                         fmt: PrecisionFormat) -> RelaxationOp:
    lo, hi = spectrum_ends(A)
    # the eigenvalues of w A lie in [bottom, top]; the energy norm of I - w A
    # is the larger of the two ends' distances from one
    bottom, top = sorted((w * lo, w * hi))
    contraction = fourier._up(max(fourier._up(top) - 1.0, 1.0 - fourier._down(bottom)))
    if contraction >= 1.0:
        raise ContractionError(
            f"{kind} relaxation does not contract: energy norm of the error "
            f"propagator is {contraction:.6f}"
        )
    return RelaxationOp(
        w=w,
        n=A.n,
        fmt=fmt,
        eta=abs(w),
        alpha=abs(w) * (1.0 + fmt.unit_roundoff),
        contraction=contraction,
    )


def make_jacobi(A: SparseSpd, omega: float, fmt: PrecisionFormat) -> RelaxationOp:
    """Damped Jacobi ``S = omega * diag(A)^{-1}`` quantized into ``fmt``.

    ``A`` is a stencil matrix (:attr:`SparseSpd.stencil`), whose diagonal is
    its centre ``c_0``, so ``S`` is ``w = fl(omega / c_0)`` times ``I``.
    """
    c_0 = float(A.stencil[0].flat[0])
    if c_0 <= 0:
        raise ContractionError("matrix diagonal must be positive")
    w = float(_round_array(np.float64(omega / c_0), fmt.significand_bits))
    return _finalize_relaxation("jacobi", A, w, fmt)


def make_richardson(A: SparseSpd, omega: float, fmt: PrecisionFormat) -> RelaxationOp:
    """Richardson ``S = omega * I`` with ``omega`` quantized into ``fmt``."""
    w = float(_round_array(np.float64(omega), fmt.significand_bits))
    return _finalize_relaxation("richardson", A, w, fmt)


@dataclass(frozen=True, eq=False)
class CoarseSolver:
    """The coarse correction ``r_c -> B_c A_c^{-1} r_c`` of one level.

    ``correction`` is that map on a coarse vector or block, run in the
    carrier so that it stays linear: a sine-mode solve
    (:func:`mixedmg.linops.solve_spd` with the stored factors of ``B_c``) or
    a carrier V-cycle below the coarse grid.  ``fourier`` is the map's
    Fourier form, built with it, which :func:`rho_star` reads; it is the
    one home of the solver's :attr:`level` and :attr:`bc_deviation`.
    """

    correction: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    fourier: fourier.CoarseBlocks = field(repr=False)

    @property
    def level(self) -> GridLevel:
        return self.fourier.level

    @property
    def bc_deviation(self) -> float:
        """The energy norm of ``B_c - I`` on the level's coarse grid
        (:attr:`mixedmg.fourier.CoarseBlocks.deviation`)."""
        return self.fourier.deviation

    def apply(self, r_c: np.ndarray) -> np.ndarray:
        """``B_c A_c^{-1} r_c`` for a coarse vector or block."""
        return self.correction(r_c)


def _sine_coarse(level: GridLevel, factors: np.ndarray) -> CoarseSolver:
    """The sine-mode solve of ``level`` scaling coarse mode ``j`` by ``factors[j]``:
    ``B_c = Phi diag(f) Phi'``, with ``Phi`` the orthonormal DST-I of the
    coarse grid in Kronecker order in 2D."""
    factors.flags.writeable = False
    return CoarseSolver(lambda r_c: solve_spd(level.A_c, r_c, factors),
                        fourier.sine_blocks(level, factors))


def make_exact_coarse(level: GridLevel) -> CoarseSolver:
    """The direct carrier solve ``A_c^{-1} r_c`` of ``level``: ``B_c = I``."""
    return _sine_coarse(level, np.ones(level.n_c))


def make_perturbed_coarse(level: GridLevel, sigma: float, seed: int = 0) -> CoarseSolver:
    """Synthetic perturbation ``B_c = I + sigma Phi diag(s) Phi'``.

    ``Phi`` is the orthonormal DST-I of the coarse grid (Kronecker order in
    2D) and ``s`` a vector of signs +-1 drawn from ``seed``.  The sine modes
    diagonalise ``A_c``, so ``B_c A_c^{-1}`` is symmetric and every mode is
    perturbed by the full ``sigma``.  ``B_c`` scales mode ``j`` by the
    stored ``f_j = fl(1 + sigma s_j)``, and ``bc_deviation`` is
    ``max |f_j - 1|``.  Each ``f_j - 1`` is exact (Sterbenz, or ``f_j = 1 -
    sigma`` exactly when ``sigma >= 1/2``), so the deviation is ``sigma`` up
    to the rounding of ``1 + sigma s_j``, and ``sigma`` itself at
    ``sigma = 1/2``.  At ``sigma = 0`` every ``f_j`` is one: the exact solve.
    """
    if not 0.0 <= sigma < 1.0:
        raise ValueError(f"sigma must be in [0, 1), got {sigma}")
    signs = np.random.default_rng(seed).choice((-1.0, 1.0), size=level.n_c)
    return _sine_coarse(level, 1.0 + sigma * signs)


def make_recursive_coarse(levels, mu: int, nu: int, smoothers) -> CoarseSolver:
    """Coarse solver of ``levels[0]`` that runs one carrier V-cycle on ``levels[1:]``.

    ``smoothers`` is required: one carrier smoother per level of
    ``levels[1:]``, and there must be at least one such level.
    ``bc_deviation`` is the certified contraction of one cycle, from its
    Fourier blocks.
    """
    level, sub, smoothers = levels[0], tuple(levels[1:]), tuple(smoothers)
    if not sub:
        raise ValueError("a recursive coarse solve needs a grid below the coarse grid")
    _check_cycle(sub, mu, nu, smoothers)
    blocks = fourier.coarse_blocks(level, tuple(zip(sub, smoothers)), mu, nu)
    if blocks.deviation >= 1.0:
        raise ContractionError(f"recursive coarse solve does not contract "
                               f"(deviation {blocks.deviation:.4f})")
    return CoarseSolver(lambda r_c: v_cycle(sub, mu, nu, r_c, CARRIER, smoothers=smoothers),
                        blocks)


@dataclass(frozen=True, eq=False)
class CycleTrace:
    """Measured per-line deviations of one reduced-precision cycle.

    ``line_norms`` maps every label in :data:`mixedmg.bounds.PROOF_LINES`
    to the norm of the corresponding deviation (step lines: fresh kernel
    error given perturbed inputs; total lines: accumulated deviation from
    the exact reference run with identical operators).
    ``y_reference`` is the exact-arithmetic result and ``y`` the computed
    one.  For a block of right-hand sides every norm is an array with one
    entry per column.
    """

    line_norms: dict[str, float | np.ndarray]
    y_reference: np.ndarray
    y: np.ndarray = field(repr=False)
    A: SparseSpd = field(repr=False)

    @cached_property
    def delta_y_energy(self) -> float | np.ndarray:
        """The energy norm of the final accumulated deviation, computed on first read."""
        return energy_norm(self.y - self.y_reference, self.A)


def _operations(level: GridLevel, fmt: PrecisionFormat):
    """The five operations of a cycle step on ``level`` in ``fmt``.

    ``(relax, residual, restrict, prolong, subtract)``: ``K z``,
    ``A y - r``, ``P' z``, ``P z`` and ``v - w``.

    A reduced format runs the certified kernels; the carrier runs the plain
    float64 operations, which give the bits of those kernels at 53 bits.
    """
    if fmt == CARRIER:
        return (lambda K, z: K.apply_exact(z),
                lambda y, r: level.A.matrix @ y - r,
                lambda z: level.P_t @ z,
                lambda z: level.P @ z,
                lambda v, w: v - w)
    eta_A, eta_P = level.eta_A, level.eta_P
    return (lambda K, z: K.apply_rounded(z, fmt).value,
            lambda y, r: rounded_residual(level.A, y, r, fmt, eta_abs=eta_A).value,
            lambda z: rounded_matvec(level.P_t_layout, z, fmt, eta_abs=eta_P).value,
            lambda z: rounded_matvec(level.P_layout, z, fmt, eta_abs=eta_P).value,
            lambda v, w: rounded_add_sub(v, w, "-", fmt).value)


def _cycle(level: GridLevel, r, S: RelaxationOp, mu: int, nu: int, coarse,
           fmt: PrecisionFormat):
    """The cycle's step sequence in ``fmt``; ``coarse`` maps ``r_c`` to ``d_c``.

    A generator of ``(stage, value)`` pairs in step order: ``r`` (the
    rounded right-hand side), ``y_mu``, ``r_mu``, ``r_c``, ``d_c``, ``d``,
    ``y_nu``, then ``r_nu``, ``r_N`` and ``y`` for each post-relaxation
    sweep.  The last value is the cycle's result.  The generator keeps only
    ``r``, the iterate and the latest stage, so a consumer that drops a
    stage releases it.
    """
    relax, residual, restrict, prolong, subtract = _operations(level, fmt)
    rq = quantize_vector(r, fmt).value  # rejects a non-finite right-hand side
    yield "r", rq
    y = np.zeros_like(rq)
    for sweep in range(mu):
        y = relax(S, rq) if sweep == 0 else subtract(y, relax(S, residual(y, rq)))
    yield "y_mu", y
    z = residual(y, rq)
    yield "r_mu", z
    z = restrict(z)
    yield "r_c", z
    z = coarse(z)
    yield "d_c", z
    z = prolong(z)
    yield "d", z
    y = subtract(y, z)
    yield "y_nu", y
    for _ in range(nu):
        z = residual(y, rq)
        yield "r_nu", z
        z = relax(S, z)
        yield "r_N", z
        y = subtract(y, z)
        yield "y", y


def tg_cycle(r, S: RelaxationOp, coarse: CoarseSolver, fmt: PrecisionFormat):
    """One reduced-precision two-grid cycle on ``coarse.level``, with a full deviation trace.

    ``r`` is one right-hand side ``(n,)`` or a block ``(n, T)`` of them.
    Returns the computed result and a :class:`CycleTrace` whose entries are
    measured against the exact reference computed with the same ``S`` and
    coarse solver.

    The cycle and its reference advance in lockstep, one stage at a time:
    each proof line is measured as soon as its stages exist, and a stage is
    released once no later line reads it.
    """
    level = coarse.level
    cycle = zip(_cycle(level, r, S, 1, 1, coarse.apply, fmt),
                _cycle(level, r, S, 1, 1, coarse.apply, CARRIER))

    def stage(name):
        """The next computed stage and its reference."""
        (got, value), (_, reference) = next(cycle)
        assert got == name
        return value, reference

    # step oracles: the carrier operation applied to the computed inputs
    relax, residual, restrict, prolong, subtract = _operations(level, CARRIER)
    euclid = column_norms
    e_A = lambda v: energy_norm(v, level.A)  # noqa: E731
    e_Ac = lambda v: energy_norm(v, level.A_c)  # noqa: E731
    norms = {}
    rq, ref = stage("r")
    norms["rhs_quantize"] = euclid(rq - ref)
    y_mu, ref = stage("y_mu")
    norms["pre_relax_step"] = euclid(y_mu - relax(S, rq))
    norms["pre_relax_total"] = euclid(y_mu - ref)
    r_mu, ref = stage("r_mu")
    norms["pre_residual_step"] = euclid(r_mu - residual(y_mu, rq))
    norms["pre_residual_total"] = euclid(r_mu - ref)
    r_c, ref = stage("r_c")
    norms["restrict_step"] = euclid(r_c - restrict(r_mu))
    del r_mu, r_c
    d_c, ref = stage("d_c")
    norms["coarse_correction_total"] = e_Ac(d_c - ref)
    d, ref = stage("d")
    norms["prolong_step"] = e_A(d - prolong(d_c))
    norms["prolong_total"] = e_A(d - ref)
    del d_c
    y_nu, ref = stage("y_nu")
    norms["correction_sub_step"] = euclid(y_nu - subtract(y_mu, d))
    norms["corrected_total"] = e_A(y_nu - ref)
    del y_mu, d
    r_nu, ref = stage("r_nu")
    norms["post_residual_step"] = e_A(r_nu - residual(y_nu, rq))
    norms["post_residual_total"] = e_A(r_nu - ref)
    r_N, ref = stage("r_N")
    norms["post_relax_step"] = euclid(r_N - relax(S, r_nu))
    norms["post_relax_total"] = e_A(r_N - ref)
    del r_nu
    y, y_ref = stage("y")
    norms["final_sub_step"] = e_A(y - subtract(y_nu, r_N))
    assert list(norms) == list(PROOF_LINES)
    return y, CycleTrace(line_norms=norms, y_reference=y_ref, y=y, A=level.A)


def rho_star(S: RelaxationOp, coarse: CoarseSolver) -> float:
    """Energy norm of the exact-arithmetic two-grid error propagator of ``coarse.level``.

    ``E = (I - S A)(I - P X P' A)(I - S A)`` with ``X = B_c A_c^{-1}``.  This
    is the certified upper end of :func:`mixedmg.fourier.two_grid_norm`, from
    small blocks over the sine harmonics, for every coarse solve: each
    coarse solver carries its Fourier form.  It raises
    :class:`mixedmg.fourier.StructureError` when an operator is not the
    matrix of its stencil.  A value >= 1 is reported, not raised: the
    convergence bound is then vacuous for this configuration.
    """
    return fourier.two_grid_norm(coarse.fourier, S)


def _check_cycle(levels, mu: int, nu: int, smoothers):
    if not levels:
        raise ValueError("v_cycle needs at least one level")
    if mu < 0 or nu < 0 or mu + nu < 1:
        raise ValueError("need mu, nu >= 0 with mu + nu >= 1")
    if len(smoothers) != len(levels):
        raise ValueError("need one smoother per level")


def v_cycle(levels, mu: int, nu: int, r, fmt: PrecisionFormat, *,
            smoothers) -> np.ndarray:
    """Recursive V(mu, nu)-cycle over a hierarchy, all levels in ``fmt``.

    ``levels`` is a list of two-grid levels, as :func:`build_multilevel`
    gives it; ``r`` is one right-hand side ``(n,)`` or a block ``(n, T)`` of
    them.  Each level runs the step sequence of :func:`tg_cycle` with ``mu``
    pre- and ``nu`` post-relaxation sweeps, and its coarse correction is the
    V-cycle one level down; the coarsest system, ``levels[-1].A_c``, is
    solved directly in the carrier (:func:`mixedmg.linops.solve_spd`).  In
    the carrier the cycle is the exact-arithmetic proxy.  With one level and
    ``mu = nu = 1`` the result is bit for bit that of :func:`tg_cycle` with
    an exact coarse solver.

    ``smoothers`` is required: one smoother per level.
    """
    _check_cycle(levels, mu, nu, smoothers)
    level = levels[0]
    if len(levels) == 1:
        coarse = lambda r_c: solve_spd(level.A_c, r_c)  # noqa: E731
    else:
        coarse = lambda r_c: v_cycle(levels[1:], mu, nu, r_c, fmt,  # noqa: E731
                                     smoothers=smoothers[1:])
    for _, y in _cycle(level, r, smoothers[0], mu, nu, coarse, fmt):
        pass  # the last stage is the cycle's result
    return y
