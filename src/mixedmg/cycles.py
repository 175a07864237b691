"""Two-grid and V-cycle solvers with per-line rounding-error instrumentation.

Every cycle runs one step sequence, written once:

1.  round the right-hand side into the working format
2.  pre-relax ``mu`` times; the first sweep on the zero initial guess is
    ``y <- S r``, each later one ``y <- y - S (A y - r)``
3.  residual of the pre-relaxed iterate, ``A y - r``
4.  restrict the residual to the coarse level
5.  coarse correction ``B_c A_c^{-1} r_c`` (always in the carrier, so a
    computed value and its reference run it as one call)
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

The sequence is :func:`_cycle`, which names each stage, its operation and
its input stages once, and runs every step through a ``stage`` function
its caller gives: :func:`v_cycle` runs the operations of one format.
:func:`tg_cycle` runs the sequence once, with ``mu = nu = 1``, on pairs of
a computed value in the working format and its exact reference in the
carrier; step 5, the same carrier map on both, is one call on the two
side by side.  For every stage it measures the lines that the proof's line
table, :data:`mixedmg.bounds.STAGE_LINES`, gives it, each in the norm the
table names: a step line against the stage's own operation run in the
carrier on the computed inputs, a total line against the reference.  The
table's stages are those of :func:`_cycle`, in its step order.  A value is
held only while a later step reads it, so a cycle holds a few blocks at a
time rather than both full sequences.

Every cycle, coarse solve and relaxation takes one right-hand side ``(n,)``
or a block ``(n, T)`` of them, which runs through each kernel in one call.
A smoother is quantized into its format when it is built, and that format
is the one a cycle runs in: no cycle takes a format of its own.
:func:`tg_cycle` also takes one smoother per column, so one block may hold
the trials of several formats; a :func:`v_cycle` runs in one.  Each column
of a block gives bit for bit what it gives on its own in its own format, so
a block of trials reproduces the per-trial results exactly.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from . import fourier
from .bounds import STAGE_LINES
from .hierarchy import GridLevel
from .linops import SparseSpd, energy_norm, solve_spd
from .precision import (
    CARRIER,
    PrecisionFormat,
    Rounding,
    column_norms,
    quantize_vector,
    rounded_add_sub,
    rounded_matvec,
    rounded_residual,
    rounded_scale,
    _as_block,
    _round_array,
    _row,
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

    ``fmt`` is that format, the one home of the format a cycle relaxing
    with ``S`` runs in.  ``fl(S z)`` is the ``relax`` operation of the
    cycles, :func:`mixedmg.precision.rounded_scale` of ``w``, whose error
    :data:`mixedmg.bounds.KERNEL_BOUNDS` ``["relax"]`` bounds with ``alpha``.

    ``eta = |w|`` is the operator norm of ``S``, Euclidean and energy alike,
    since ``S`` commutes with ``A``; ``contraction`` is the energy norm of
    ``I - S A``, whose eigenvalues are ``1 - w lambda`` over the spectrum of
    ``A``, with the certified ends the stencil symbol of ``A`` gives
    (:attr:`mixedmg.linops.SparseSpd.spectrum_ends`).
    """

    w: float
    n: int
    fmt: PrecisionFormat
    eta: float
    alpha: float
    contraction: float


def _finalize_relaxation(kind: str, A: SparseSpd, w: float,
                         fmt: PrecisionFormat) -> RelaxationOp:
    lo, hi = A.spectrum_ends
    # the eigenvalues of w A lie in [bottom, top]; the energy norm of I - w A
    # is the larger of the two ends' distances from one
    bottom, top = sorted((w * lo, w * hi))
    contraction = fourier._up(max(fourier._up(top) - 1.0, 1.0 - fourier._down(bottom)))
    if not contraction < 1.0:
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
    c_0 = float(A.stencil.flat[0])  # positive, as A is certified positive definite
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
    (:func:`mixedmg.linops.solve_spd`, with the stored factors of a
    perturbed ``B_c``) or a carrier V-cycle below the coarse grid.
    ``fourier`` is the map's Fourier form, built with it, which
    :func:`rho_star` reads; it is the one home of the solver's
    :attr:`level` and :attr:`bc_deviation`.
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


def _sine_coarse(level: GridLevel, factors: np.ndarray | None = None) -> CoarseSolver:
    """The sine-mode solve of ``level`` scaling coarse mode ``j`` by ``factors[j]``:
    ``B_c = Phi diag(f) Phi'``, with ``Phi`` the orthonormal DST-I of the
    coarse grid in Kronecker order in 2D.  Without ``factors`` the solve is
    the exact one, which skips the scaling by ones; its Fourier blocks are
    still those of ``f = 1``, which keeps ``rho_star`` and the zero
    deviation as they were."""
    blocks = fourier.sine_blocks(level, np.ones(level.n_c) if factors is None else factors)
    if factors is not None:
        factors.flags.writeable = False
    return CoarseSolver(lambda r_c: solve_spd(level.A_c, r_c, factors), blocks)


def make_exact_coarse(level: GridLevel) -> CoarseSolver:
    """The direct carrier solve ``A_c^{-1} r_c`` of ``level``: ``B_c = I``."""
    return _sine_coarse(level)


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

    ``smoothers`` is required: one smoother built for the carrier per level
    of ``levels[1:]``, and there must be at least one such level.
    ``bc_deviation`` is the certified contraction of one cycle, from its
    Fourier blocks.
    """
    level, sub, smoothers = levels[0], tuple(levels[1:]), tuple(smoothers)
    if not sub:
        raise ValueError("a recursive coarse solve needs a grid below the coarse grid")
    _check_cycle(sub, mu, nu, smoothers)
    blocks = fourier.coarse_blocks(level, tuple(zip(sub, smoothers)), mu, nu)
    if smoothers[0].fmt != CARRIER:
        raise ValueError("a recursive coarse solve runs in the carrier; "
                         "its smoothers must be built for it")
    if not blocks.deviation < 1.0:
        raise ContractionError(f"recursive coarse solve does not contract "
                               f"(deviation {blocks.deviation:.4f})")
    return CoarseSolver(lambda r_c: v_cycle(sub, mu, nu, r_c, smoothers=smoothers), blocks)


@dataclass(frozen=True, eq=False)
class CycleTrace:
    """Measured per-line deviations of one reduced-precision cycle.

    ``line_norms`` maps every label in :data:`mixedmg.bounds.PROOF_LINES`
    to the norm of the corresponding deviation (step lines: fresh kernel
    error given perturbed inputs; total lines: accumulated deviation from
    the exact reference run with identical operators).
    ``y_reference`` is the exact-arithmetic result; the computed one is
    :func:`tg_cycle`'s own return value.  For a block of right-hand sides
    every norm is an array with one entry per column.
    """

    line_norms: dict[str, float | np.ndarray]
    y_reference: np.ndarray


def _operations(level: GridLevel, S, coarse, carrier: bool = False) -> dict:
    """The operations of a cycle step on ``level``, by name.

    ``S`` is one smoother, or one per column of the block the operations
    run on, and the operations run in the format each smoother was built
    for, through one :class:`mixedmg.precision.Rounding` made from the
    smoothers' formats; with ``carrier`` set, or when every smoother was
    built for the carrier, they run in the carrier and make none.
    ``quantize`` rounds the right-hand side into that format, ``zero`` is
    the zero iterate of its shape, ``relax`` is ``S z`` (the smoothers' ``w``
    as a row over the columns), ``residual`` ``A y - r``, ``restrict`` ``P'
    z``, ``coarse`` the map ``r_c -> d_c`` (run as given), ``prolong`` ``P
    z`` and ``subtract`` ``v - w``.  A reduced format runs the emulated
    kernels, whose error models are the entries of
    :data:`mixedmg.bounds.KERNEL_BOUNDS` under the same names, with ``m``
    read from the layout each kernel runs on; the carrier runs the plain
    float64 operations, which give the bits of those kernels at 53 bits.
    So the carrier's ``quantize`` is the identity with the kernel's
    finiteness check: it returns the right-hand side uncopied, and a
    non-finite entry raises ``ValueError`` in either format.
    """
    smoothers = (S,) if isinstance(S, RelaxationOp) else tuple(S)
    n = level.n
    for op in set(smoothers):
        if op.n != n:
            raise ValueError(f"smoother has order {op.n}, not the level's order {n}")
    w = _row([op.w for op in smoothers])
    ops = {"zero": np.zeros_like, "coarse": coarse}
    if carrier or all(op.fmt == CARRIER for op in smoothers):
        return ops | {"quantize": lambda r: _as_block(r, "r").reshape(np.shape(r)),
                      "relax": lambda z: w * z,
                      "residual": lambda y, r: level.A.matrix @ y - r,
                      "restrict": lambda z: level.P_t @ z,
                      "prolong": lambda z: level.P @ z,
                      "subtract": lambda v, w: v - w}
    rounding = Rounding([op.fmt for op in smoothers])
    return ops | {
        "quantize": lambda r: quantize_vector(r, rounding).value,
        "relax": lambda z: rounded_scale(w, z, rounding).value,
        "residual": lambda y, r: rounded_residual(level.A, y, r, rounding).value,
        "restrict": lambda z: rounded_matvec(level.P_t_layout, z, rounding).value,
        "prolong": lambda z: rounded_matvec(level.P_layout, z, rounding).value,
        "subtract": lambda v, w: rounded_add_sub(v, w, "-", rounding).value}


def _cycle(r, mu: int, nu: int, stage):
    """The cycle's step sequence, each step written once; returns its result.

    ``stage(name, op, *inputs)`` runs the operation ``op`` (a key of
    :func:`_operations`) on ``inputs``, the right-hand side or earlier
    stages' values, and returns the value of stage ``name``.  The stages,
    in step order: ``r`` (the rounded right-hand side), ``y_mu`` after each
    pre-relaxation sweep (the zero iterate when ``mu = 0``), ``r_mu``,
    ``r_c``, ``d_c``, ``d``, ``y_nu``, then ``r_nu``, ``r_N`` and ``y`` for
    each post-relaxation sweep.  A pre-relaxation sweep after the first
    runs the steps of a post-relaxation sweep; its residual and relaxed
    residual are unnamed (``None``).  The result is the last ``y``.

    Each value other than ``r`` and the iterate is an argument of the one
    step that reads it, so it is dropped when that step returns.
    """
    def sweep(y, residual, relaxed, result):
        """One relaxation sweep ``y - S (A y - r)``, its three stages so named."""
        return stage(result, "subtract", y,
                     stage(relaxed, "relax", stage(residual, "residual", y, rq)))

    rq = stage("r", "quantize", r)
    y = stage("y_mu", "relax" if mu else "zero", rq)
    for _ in range(1, mu):
        y = sweep(y, None, None, "y_mu")
    y = stage("y_nu", "subtract", y,
              stage("d", "prolong",
                    stage("d_c", "coarse",
                          stage("r_c", "restrict",
                                stage("r_mu", "residual", y, rq)))))
    for _ in range(nu):
        y = sweep(y, "r_nu", "r_N", "y")
    return y


def _side_by_side(apply, v: np.ndarray, w: np.ndarray):
    """``apply(v)`` and ``apply(w)`` from one call on the block ``[v | w]``
    of their columns, each a C-contiguous array of its input's shape.  A map
    that treats its columns independently gives each half the bits of its
    own call."""
    T = v.size // len(v)
    out = apply(np.hstack((v.reshape(len(v), -1), w.reshape(len(w), -1))))
    return (np.ascontiguousarray(out[:, :T]).reshape(v.shape),
            np.ascontiguousarray(out[:, T:]).reshape(w.shape))


def tg_cycle(r, S, coarse: CoarseSolver):
    """One reduced-precision two-grid cycle on ``coarse.level``, with a full deviation trace.

    ``r`` is one right-hand side ``(n,)`` or a block ``(n, T)`` of them.
    ``S`` is one smoother, or a sequence of ``T``, one per column, and each
    column runs in the format of its smoother: a block may hold trials of
    several formats, and each column gives bit for bit what it gives alone
    in its own format.  Returns the computed result and a
    :class:`CycleTrace` whose entries are measured against the exact
    reference computed with the same smoothers and coarse solver.

    The cycle runs once on pairs, each stage's computed value and its
    reference, and measures the lines of :data:`mixedmg.bounds.STAGE_LINES`
    as it goes: a stage's step line as soon as the stage is made, its total
    line when the next stage begins (or the cycle ends), once the cycle has
    dropped the inputs only that stage read.  The coarse correction runs in
    the carrier on both sides, so it is one :meth:`CoarseSolver.apply` call
    on the value and its reference side by side, ``(n_c, 2T)``.
    """
    level = coarse.level
    run, exact = (_operations(level, S, coarse.apply, carrier) for carrier in (False, True))
    norms, due = {}, []

    def measure(line, v):
        label, norm = line
        norms[label] = column_norms(v) if norm == "2" else energy_norm(v, getattr(level, norm))

    def settle():
        """Measure the total line the last stage left due.  Its deviation is
        formed here, next to its norm, so that the norm reads it from cache."""
        while due:
            line, got, ref = due.pop()
            measure(line, got - ref)

    def stage(name, op, *inputs):
        settle()
        args, ref_args = zip(*inputs)
        step, total = STAGE_LINES[name]
        if op == "coarse":
            # the one step both sides run in the carrier, so one call serves
            # both; it has no step line
            got, ref = _side_by_side(coarse.apply, *args, *ref_args)
        else:
            got = run[op](*args)
            if step:
                measure(step, got - exact[op](*args))
            ref = exact[op](*ref_args)
        if total:
            due.append((total, got, ref))
        return got, ref

    y, y_ref = _cycle((r, r), 1, 1, stage)
    settle()
    return y, CycleTrace(line_norms=norms, y_reference=y_ref)


def rho_star(S, coarse: CoarseSolver) -> float | list[float]:
    """Energy norm of the exact-arithmetic two-grid error propagator of ``coarse.level``.

    ``E = (I - S A)(I - P X P' A)(I - S A)`` with ``X = B_c A_c^{-1}``.  This
    is the certified upper end of :func:`mixedmg.fourier.two_grid_norm`, from
    small blocks over the sine harmonics, for every coarse solve: each
    coarse solver carries its Fourier form.  ``S`` is one smoother, which
    gives a float, or a sequence of them, say one per format, which gives
    the list of their values from one pass over the blocks; each value has
    the bits of its smoother's own call.  It raises
    :class:`mixedmg.fourier.StructureError` when a smoother is not of the
    level's order.  A value >= 1 is reported, not raised: the convergence
    bound is then vacuous for this configuration.
    """
    return fourier.two_grid_norm(coarse.fourier,
                                 S if isinstance(S, RelaxationOp) else tuple(S))


def _check_cycle(levels, mu: int, nu: int, smoothers):
    if not levels:
        raise ValueError("v_cycle needs at least one level")
    if mu < 0 or nu < 0 or mu + nu < 1:
        raise ValueError("need mu, nu >= 0 with mu + nu >= 1")
    if len(smoothers) != len(levels):
        raise ValueError("need one smoother per level")
    bits = {op.fmt.significand_bits for op in smoothers}
    if len(bits) > 1:
        raise ValueError(f"a V-cycle runs in one format; its smoothers were "
                         f"built for bits {sorted(bits)}")


def v_cycle(levels, mu: int, nu: int, r, *, smoothers) -> np.ndarray:
    """Recursive V(mu, nu)-cycle over a hierarchy, all levels in the format
    of its smoothers.

    ``levels`` is a list of two-grid levels, as :func:`build_multilevel`
    gives it; ``r`` is one right-hand side ``(n,)`` or a block ``(n, T)`` of
    them.  Each level runs the step sequence of :func:`tg_cycle` with ``mu``
    pre- and ``nu`` post-relaxation sweeps, and its coarse correction is the
    V-cycle one level down; the coarsest system, ``levels[-1].A_c``, is
    solved directly in the carrier (:func:`mixedmg.linops.solve_spd`).  In
    the carrier the cycle is the exact-arithmetic proxy.  With one level and
    ``mu = nu = 1`` the result is bit for bit that of :func:`tg_cycle` with
    an exact coarse solver.

    ``smoothers`` is required: one smoother per level, all built for one
    format.
    """
    _check_cycle(levels, mu, nu, smoothers)
    level = levels[0]
    if len(levels) == 1:
        coarse = lambda r_c: solve_spd(level.A_c, r_c)  # noqa: E731
    else:
        coarse = lambda r_c: v_cycle(levels[1:], mu, nu, r_c,  # noqa: E731
                                     smoothers=smoothers[1:])
    ops = _operations(level, smoothers[0], coarse)
    return _cycle(r, mu, nu, lambda _, op, *inputs: ops[op](*inputs))
