"""Certified Fourier-block norms of the exact two-grid and V-cycle propagators.

On the model problems every operator a cycle uses is diagonalised, or mapped
mode to mode, by the orthonormal sine basis: ``A`` and ``A_c`` are symmetric
stencils with one value per offset, ``P`` is a scalar times the (bi)linear
interpolation stencil, and the smoothers are scalars ``w`` (local
Fourier analysis: Trottenberg, Oosterlee and Schüller, *Multigrid*, 2001,
ch. 3-4; Wienands and Oosterlee, SISC 23, 2001, for more than two grids).
With ``theta_j = j pi / (k + 1)`` on a grid of ``k`` points per axis:

- ``A`` has the symbol ``c_0 + c_1 2 cos theta`` (1D) or
  ``sum c_ab (2 cos theta_0)^a (2 cos theta_1)^b`` (2D) on its sine modes;
- ``P'`` maps the fine modes ``j`` and ``k + 1 - j`` to the coarse mode ``j``
  with the weights ``+-p (1 + cos theta) / sqrt(2)`` per axis, ``p`` the
  stored centre weight, and the middle mode ``(k + 1) / 2`` to zero.

So the propagator ``E = (I - S A)^nu (I - P X P' A) (I - S A)^mu``, with
``S = w I`` the level's one relaxation, splits into blocks over the
harmonic groups a coarse group pulls back to: 2 modes (1D) or 4 modes (2D)
per coarse mode for an exact coarse solve, ``2^(L-1)`` or ``4^(L-1)`` for
a V-cycle over ``L`` grids, and a lone mode with ``(I - S A)^(mu + nu)``
only where a middle mode has no coarse image.  A coarse V-cycle enters as
``X = (I - E_sub) A_c^{-1}``, block by block (:func:`coarse_blocks`), and a
sine-mode perturbation of the direct solve as its blocks scaled mode by
mode (:func:`sine_blocks`); no order-``n`` matrix is formed, and only this
module reads :attr:`CoarseBlocks.X`.  The smoother-free part of a level's
blocks, the symbol of ``A`` and ``I - P X P' A`` per class, is built once
per coarse solve (:attr:`CoarseBlocks.core`), with the square roots of the
symbols that scale the blocks to the energy norm; a format's smoother adds
only ``(1 - w lambda)^mu`` and ``(1 - w lambda)^nu``, and the smoothers of
every format are applied in one pass, on a leading axis of every block.  The coarse solve's
deviation, the ``A_c``-norm of ``X A_c - I``, is read off the same blocks:
for a V-cycle ``X A_c - I`` is minus the sub-cycle's propagator.

Every block entry is computed in midpoint-radius arithmetic (:class:`_Ball`):
the radius bounds the float64 rounding of each operation and the error of
the cosines, so the exact block of the stored operators lies within it
entrywise.  Weyl's inequality adds the radius's Frobenius norm to the top
singular value of the computed block, which is the square root of the top
eigenvalue of its Gram matrix plus the Gram product's ``gamma_G`` rounding
and the symmetric eigensolver's backward error, taken as ``4 G u`` times the
Gram norm for a block of order ``G``.  The largest such bound is reported,
rounded up.

The blocks read a level's stencils where the operators were made from
them: ``level.d``, ``level.k``, the interpolation weight ``level.p`` and
the stencils of ``level.A`` and ``level.A_c``
(:class:`mixedmg.linops.SparseSpd`), so no matrix is read back.  A smoother
is its scalar ``w`` (:class:`mixedmg.cycles.RelaxationOp`), of the level's
order; one of another order, or a lower level that is not the coarse grid
of the one above, raises :class:`StructureError` naming the level.  There
is no dense fallback.

The same symbols give the set-up constants of :mod:`mixedmg.hierarchy`:
:func:`symbol_ends` encloses the spectrum of a stencil matrix and
:func:`interpolation_norm` the norm of a scaled interpolation.  They also
give the direct solves of :mod:`mixedmg.linops`: :func:`sine_eigenvalues`
is a stencil matrix's eigenvalue on every sine mode.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

_U = float(np.finfo(np.float64).eps) / 2  # unit roundoff of the carrier


class StructureError(ValueError):
    """Operators that do not fit together: a level whose grids do not coarsen,
    a smoother of another order, or a lower level that is not the coarse grid."""


def _gamma(m: int) -> float:
    return m * _U / (1.0 - m * _U)


class _Ball:
    """Midpoint-radius arrays: each exact value lies within ``rad`` of ``mid``.

    Every operation adds the rounding of its result, ``u |mid|``, and widens
    the radius by ``(1 + 8u)`` for the rounding of the radius formula itself.
    """

    __slots__ = ("mid", "rad")

    def __init__(self, mid, rad=0.0):
        self.mid = np.asarray(mid, dtype=np.float64)
        self.rad = np.asarray(rad, dtype=np.float64)  # 0-d, or the shape of mid

    @staticmethod
    def _of(x) -> _Ball:
        return x if isinstance(x, _Ball) else _Ball(x)

    @staticmethod
    def _rounded(mid, rad) -> _Ball:
        return _Ball(mid, (rad + _U * np.abs(mid)) * (1.0 + 8 * _U))

    def __add__(self, other):
        other = _Ball._of(other)
        return _Ball._rounded(self.mid + other.mid, self.rad + other.rad)

    __radd__ = __add__

    def __neg__(self):
        return _Ball(-self.mid, self.rad)

    def __sub__(self, other):
        return self + (-_Ball._of(other))

    def __rsub__(self, other):
        return _Ball._of(other) + (-self)

    def __mul__(self, other):
        other = _Ball._of(other)
        rad = (np.abs(self.mid) * other.rad + self.rad * np.abs(other.mid)
               + self.rad * other.rad)
        return _Ball._rounded(self.mid * other.mid, rad)

    __rmul__ = __mul__

    def reciprocal(self) -> _Ball:
        size = np.abs(self.mid)
        if np.any(size <= self.rad):
            raise ArithmeticError("reciprocal of a ball that contains zero")
        return _Ball._rounded(1.0 / self.mid, self.rad / (size * (size - self.rad)))

    def sqrt(self) -> _Ball:
        if np.any(self.mid <= self.rad):
            raise ArithmeticError("square root of a ball that reaches zero")
        root = np.sqrt(self.mid)
        return _Ball._rounded(root, self.rad / root)

    def __pow__(self, power: int):
        out = _Ball(np.ones_like(self.mid))
        for _ in range(power):
            out = out * self
        return out

    def map(self, fn) -> _Ball:
        """The ball whose mid and radius are ``fn`` of these (an exact rearrangement)."""
        return _Ball(fn(self.mid), fn(self.rad) if self.rad.ndim else self.rad)


_HALF_SQRT2 = _Ball(math.sqrt(0.5), _U * math.sqrt(0.5))


def _harmonics(F: np.ndarray, k: int) -> tuple[_Ball, _Ball]:
    """``4 sin^2(theta / 2)`` and ``1 + cos theta`` at ``theta = F pi / (k + 1)``.

    Both come from the half angle ``phi`` of the nearer end of ``[0, pi]``,
    as ``4 sin^2 phi`` and ``2 cos^2 phi`` or the other way round, so each is
    accurate to a few units of roundoff relative even where ``1 - cos`` or
    ``1 + cos`` would cancel.  ``phi`` is within ``4u`` of itself relative,
    and the sine and cosine functions within 4 units in the last place.
    """
    high = 2 * F > k + 1
    phi = np.where(high, k + 1 - F, F) * np.pi / (2 * (k + 1))
    sin, cos = np.sin(phi), np.cos(phi)
    sin = _Ball(sin, 4 * _U * phi + 8 * _U * sin)
    cos = _Ball(cos, 4 * _U * phi + 8 * _U * cos)
    sin2, cos2 = sin * sin, cos * cos

    def pick(low, other):
        return _Ball(np.where(high, other.mid, low.mid), np.where(high, other.rad, low.rad))

    return 4.0 * pick(sin2, cos2), 2.0 * pick(cos2, sin2)


@cache
def _corners(k: int) -> _Ball:
    """``4 sin^2(theta / 2)`` of :func:`_harmonics` at the two corner modes
    ``1`` and ``k`` on ``k`` points, where every symbol takes its ends:
    computed once per ``k``, its arrays read-only."""
    s = _harmonics(np.array([[1, k]]), k)[0]
    for array in (s.mid, s.rad):
        array.flags.writeable = False  # shared by every later call
    return s


def _down(x) -> float:
    """The float below the smallest entry of ``x``: a lower end of every exact
    value that rounds to an entry."""
    return float(np.nextafter(np.min(x), -np.inf))


def _up(x) -> float:
    """The float above the largest entry of ``x``: an upper end of every exact
    value that rounds to an entry."""
    return float(np.nextafter(np.max(x), np.inf))


def _expand(per_axis: list[_Ball]) -> list[_Ball]:
    """Per-axis ``(B_a, g_a)`` balls, broadcastable to ``(B_1..B_d, g_1..g_d)``."""
    d = len(per_axis)
    out = []
    for a, x in enumerate(per_axis):
        shape = [1] * (2 * d)
        shape[a], shape[d + a] = x.mid.shape
        out.append(x.map(lambda v, s=tuple(shape): v.reshape(s)))
    return out


def _flatten(x: _Ball, d: int) -> _Ball:
    """A ``(B_1..B_d, g_1..g_d)`` ball as ``(B, G)`` blocks, in Kronecker order."""
    B = int(np.prod(x.mid.shape[:d]))
    return x.map(lambda v: v.reshape(B, -1))


def _symbol(c: np.ndarray, s: list[_Ball]) -> _Ball:
    """The stencil ``c`` on the modes of one class: ``(B, G)`` eigenvalues.

    With ``2 cos theta = 2 - s`` per axis, the symbol is a polynomial in the
    ``s`` of :func:`_harmonics` whose coefficients are exactly rounded sums of
    the stencil values, so it does not cancel at low frequencies.
    """
    d = len(s)
    t = _expand(s)
    shape = tuple(int(max(x.mid.shape[i] for x in t)) for i in range(2 * d))
    total = _Ball(np.zeros(shape))
    for S in itertools.product((0, 1), repeat=d):
        # c[a] prod (2 - s_i) over the axes of a; the coefficient of prod s_i
        # over the axes of S sums c[a] 2^(|a| - |S|) over every a that covers S
        coeff = (-1) ** sum(S) * math.fsum(
            c[a] * 2.0 ** (sum(a) - sum(S)) for a in itertools.product((0, 1), repeat=d)
            if all(x >= y for x, y in zip(a, S)))
        if coeff == 0.0:
            continue
        term = _Ball(np.full(shape, coeff), _U * abs(coeff))
        for x, on in zip(t, S):
            if on:
                term = term * x
        total = total + term
    return _flatten(total, d)


def symbol_ends(c: np.ndarray, k: int) -> tuple[float, float]:
    """Certified ends of the spectrum of the stencil ``c`` on ``k`` points per axis.

    The lower end of the smallest eigenvalue and the upper end of the
    largest.  The symbol is multilinear in the ``cos theta_i``, so both
    extremes lie at corners of the mode box, where each ``theta_i`` is
    ``pi / (k + 1)`` or ``k pi / (k + 1)``; the half-angle form of
    :func:`_symbol` keeps each within a few units of roundoff relative.
    """
    lam = _symbol(c, [_corners(k)] * c.ndim)
    return _down(lam.mid - lam.rad), _up(lam.mid + lam.rad)


def sine_eigenvalues(c: np.ndarray, k: int) -> np.ndarray:
    """The eigenvalues of the stencil ``c`` on ``k`` points per axis, on its
    orthonormal sine modes, shaped as the grid (axis ``i`` holds mode ``j``
    at index ``j - 1``): the mids of :func:`_symbol` over every mode."""
    s = _harmonics(np.arange(1, k + 1)[:, None], k)[0]
    return _symbol(c, [s] * c.ndim).mid.reshape((k,) * c.ndim)


def interpolation_norm(p: float, d: int, k: int) -> float:
    """Certified upper end of ``norm(P)`` for ``P = p`` times the (bi)linear
    interpolation from ``k`` fine points per axis in ``d`` dimensions.

    Per axis ``P' P`` has the symbol ``p^2 (1 + cos^2 theta)`` on the coarse
    modes, ``theta = j pi / (k + 1)``, largest at ``j = 1``.
    """
    cos = _harmonics(np.array([[1]]), k)[1] - 1.0
    top = abs(p) * (1.0 + cos * cos).sqrt() ** d
    return _up(top.mid + top.rad)


def _identity(B: int, G: int) -> _Ball:
    """``B`` identity blocks of order ``G``."""
    return _Ball(np.broadcast_to(np.eye(G), (B, G, G)))


def _core(level, coarse_classes, X):
    """The smoother-free part of one level's propagator blocks: ``I - P X P' A``.

    ``coarse_classes`` lists the frequency classes of the coarse grid, each a
    ``(B, g)`` array of ``B`` groups of ``g`` frequencies, and ``X`` maps a
    class key (one class index per axis) to the coarse solve's ``(B, G, G)``
    blocks.  Returns the fine grid's classes, and per key the ``(B, G)``
    symbol of ``A`` and the core blocks (the identity on a class with no
    coarse image).
    """
    d, k = level.d, level.k
    # each coarse group pulls back to its fine modes j and k + 1 - j on every
    # axis; the middle mode has no coarse image and is a class of its own
    classes = [np.hstack([F, k + 1 - F]) for F in coarse_classes]
    classes.append(np.array([[(k + 1) // 2]]))
    # the harmonics depend on the class alone, and so does the P' weight of
    # each fine mode of a class with a coarse image: +-(1 + cos) / sqrt(2)
    harmonics = [_harmonics(F, k) for F in classes]
    weights = [one_plus_cos * _HALF_SQRT2
               * np.where(np.arange(F.shape[1]) < F.shape[1] // 2, 1.0, -1.0)
               for F, (_, one_plus_cos) in zip(classes[:-1], harmonics)]
    symbols, cores = {}, {}
    for key in itertools.product(range(len(classes)), repeat=d):
        lam = _symbol(level.A.stencil, [harmonics[i][0] for i in key])
        core = _identity(*lam.mid.shape)
        if key in X:
            r = _flatten(_prod(_expand([weights[i] for i in key])), d) * level.p
            sizes = [classes[i].shape[1] // 2 for i in key]
            cidx = np.ravel_multi_index(
                np.meshgrid(*[np.arange(2 * g) % g for g in sizes], indexing="ij"),
                sizes).ravel()
            Xg = X[key].map(lambda v: v[:, cidx[:, None], cidx[None, :]])
            core = core - r.map(lambda v: v[:, :, None]) * Xg * (r * lam).map(
                lambda v: v[:, None, :])
        symbols[key], cores[key] = lam, core
    return classes, symbols, cores


def _smoothed(level, S, mu: int, nu: int, symbols, cores, depth: int) -> dict:
    """Per class key the propagator blocks ``(I - S A)^nu core (I - S A)^mu``
    of one level, for its smoother ``S = w I``: ``(B, G, G)`` balls, or
    ``(F, B, G, G)`` for a sequence of ``F`` smoothers, one on each index of
    the leading axis."""
    many = isinstance(S, (list, tuple))
    for one in S if many else (S,):
        if one.n != level.n:
            raise StructureError(f"level {depth}: smoother has order {one.n}, not {level.n}")
    w = np.array([one.w for one in S])[:, None, None] if many else S.w
    E = {}
    for key, lam in symbols.items():
        s = 1.0 - lam * w
        E[key] = (s ** nu).map(lambda v: v[..., :, None]) * cores[key] * (s ** mu).map(
            lambda v: v[..., None, :])
    return E


def _prod(balls: list[_Ball]) -> _Ball:
    out = balls[0]
    for b in balls[1:]:
        out = out * b
    return out


@dataclass(frozen=True, eq=False)
class CoarseBlocks:
    """The Fourier form of a coarse solve ``X ~ A_c^{-1}`` on a level's coarse grid.

    ``classes`` lists the frequency classes of the coarse grid per axis,
    and ``X`` maps a class key (one class index per axis) to the solve's
    ``(B, G, G)`` blocks on it.  ``deviation`` is a certified upper end of
    the ``A_c``-norm of ``X A_c - I``, the energy norm of ``B_c - I``.
    :attr:`core` is the smoother-free part of ``level``'s two-grid blocks,
    which every format's smoother shares, with the square roots of the
    symbols that scale them to the energy norm.
    """

    level: object
    classes: list
    X: dict
    deviation: float

    @cached_property
    def core(self):
        """``(classes, symbols, cores, roots)`` of ``level`` with this solve,
        built once (:func:`_core`, :func:`_roots`)."""
        classes, symbols, cores = _core(self.level, self.classes, self.X)
        return classes, symbols, cores, _roots(symbols)


def coarse_blocks(level, below, mu: int, nu: int) -> CoarseBlocks:
    """The Fourier blocks of the coarse solve of ``level``.

    With ``below`` empty, ``X`` is the direct solve of ``level.A_c`` and the
    deviation is zero; otherwise it is the carrier V(mu, nu)-cycle over the
    ``(level, S)`` of ``below``, ``X = (I - E) A^{-1}`` with ``A`` the top
    one's matrix, which must be ``level.A_c``, and ``E`` that level's
    propagator, so ``X A_c - I = -E`` and the deviation is the energy norm of
    ``E``.
    """
    chain = [level] + [l for l, _ in below]
    for depth in range(1, len(chain)):
        above, here = chain[depth - 1].A_c, chain[depth].A
        if here.k != above.k or not np.array_equal(here.stencil, above.stencil):
            raise StructureError(f"level {depth} is not the coarse grid of level {depth - 1}")
    coarsest, d = chain[-1].A_c, level.d
    k = coarsest.k
    classes = [np.arange(1, k + 1)[:, None]]
    lam = _symbol(coarsest.stencil, [_harmonics(classes[0], k)[0]] * d)
    X = {(0,) * d: lam.reciprocal().map(lambda v: v[:, :, None])}
    for depth, (sub, S) in reversed(list(enumerate(below, start=1))):
        classes, symbols, cores = _core(sub, classes, X)
        E = _smoothed(sub, S, mu, nu, symbols, cores, depth)
        X = {key: (_identity(*e.mid.shape[:2]) - e) * symbols[key].reciprocal().map(
            lambda v: v[:, None, :]) for key, e in E.items()}
    return CoarseBlocks(level, classes, X,
                        _energy_norm(E, _roots(symbols)) if below else 0.0)


def sine_blocks(level, factors: np.ndarray) -> CoarseBlocks:
    """The direct solve's blocks of ``level`` with coarse sine mode ``j``
    scaled by ``factors[j]``, in Kronecker order in 2D: the Fourier form of
    ``B_c A_c^{-1}`` with ``B_c = Phi diag(f) Phi'``, whose deviation is
    ``max |f_j - 1|``."""
    direct = coarse_blocks(level, (), 1, 1)
    # the direct solve has one class: every coarse mode, a 1x1 block each
    (key, X), = direct.X.items()
    return CoarseBlocks(level, direct.classes, {key: X * factors[:, None, None]},
                        float(np.abs(factors - 1.0).max()))


def _norm_bound(blocks) -> float | np.ndarray:
    """Upper end of the largest spectral norm over ``(..., B, G, G)`` balls,
    rounded up: a float for ``(B, G, G)`` balls, else an array over the
    leading axes.  Each block is bounded on its own, as one of a flat batch
    of ``(G, G)`` blocks."""
    best = 0.0
    for x in blocks:
        lead, G = x.mid.shape[:-2], x.mid.shape[-1]
        mid = x.mid.reshape(-1, G, G)
        gram = np.swapaxes(mid, -1, -2) @ mid
        top = np.linalg.eigvalsh(gram)[..., -1]
        fro2 = np.einsum("bij,bij->b", mid, mid) * (1.0 + _gamma(G * G))
        slack = (_gamma(G) + 4 * G * _U) * fro2 * (1.0 + 4 * _U)
        sigma = np.sqrt(np.maximum(top, 0.0) + slack) * (1.0 + 2 * _U)
        rad = np.broadcast_to(x.rad, x.mid.shape).reshape(-1, G, G)
        radius = np.sqrt(np.einsum("bij,bij->b", rad, rad)) * (1.0 + _gamma(G * G + 2))
        best = np.maximum(best, ((sigma + radius) * (1.0 + 2 * _U)).reshape(lead).max(axis=-1))
    best = np.nextafter(best, np.inf)
    return float(best) if best.ndim == 0 else best


def _roots(symbols: dict) -> dict:
    """Per class key the square root ``q`` of the symbol as a column and its
    reciprocal as a row: the scalings of :func:`_energy_norm`, which do not
    depend on the smoother."""
    roots = {}
    for key, lam in symbols.items():
        q = lam.sqrt()
        roots[key] = (q.map(lambda v: v[:, :, None]), q.reciprocal().map(lambda v: v[:, None, :]))
    return roots


def _energy_norm(E: dict, roots: dict) -> float | np.ndarray:
    """Certified upper end of the energy norm of the propagator whose blocks
    are ``E``: the spectral norm of ``Lambda^(1/2) E Lambda^(-1/2)``, with
    ``Lambda`` each class's symbol and ``roots`` its :func:`_roots`.  One
    value per index of the blocks' leading axes, as :func:`_norm_bound`."""
    return _norm_bound(roots[key][0] * E[key] * roots[key][1] for key in E)


def two_grid_norm(coarse: CoarseBlocks, S) -> float | list[float]:
    """Certified upper end of the energy norm of ``(I - S A)(I - P X P' A)(I - S A)``.

    ``X`` is the coarse solve of ``coarse.level`` whose blocks
    :func:`coarse_blocks` gave; only the smoother is applied per call.  For
    a sequence of smoothers the blocks of all of them are formed and bounded
    in one pass, with the smoothers on their leading axis, and the result is
    the list of their norms, each the bits of its smoother's own call.
    """
    _, symbols, cores, roots = coarse.core
    norm = _energy_norm(_smoothed(coarse.level, S, 1, 1, symbols, cores, 0), roots)
    return norm if isinstance(norm, float) else norm.tolist()
