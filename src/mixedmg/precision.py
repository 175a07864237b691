"""Software-emulated reduced-precision vector kernels.

Every kernel evaluates each scalar operation exactly in the float64 carrier
and then rounds the result once to the target significand width
(round-to-nearest, ties to even).  This realises the standard model
``fl(a op b) = (a op b)(1 + d)`` with ``|d| <= u`` for unit roundoff
``u = 2**-significand_bits`` (Higham, *Accuracy and Stability of Numerical
Algorithms*, 2nd ed., 2002, section 2.2).

How a block rounds is one :class:`Rounding`, the one seam between the
kernels and their arithmetic: made once from the block's formats, it holds
the widths, the splitting constant and the largest unit roundoff, and every
kernel runs its body through it.  A value ``x`` is rounded to ``bits`` by
Veltkamp splitting, ``t = c x`` and ``x_h = t - (t - x)`` with ``c = 2**(53 -
bits) + 1``, three passes in place over buffers that each kernel call
allocates once.  In round-to-nearest-even carrier arithmetic ``x_h`` is ``x``
rounded to nearest even on ``bits`` significand bits (Dekker, *Numer. Math.*
18, 1971), also when ``x`` or ``x_h`` is subnormal (Boldo, IJCAR 2006), so
the kernels give the bits of rounding through ``frexp``, ``rint`` and
``ldexp``.  The splitting fails only by overflow: ``c x`` overflows from
about ``|x| = 2**(971 + bits)``, and a true result beyond the carrier
overflows too.  Either leaves a non-finite entry, since ``inf - inf`` is NaN
and NaN survives every later step; a kernel whose result is not finite then
runs once more with rounding through ``frexp`` (:func:`_round_array`, also
the tests' reference), and the rounding raises ``OverflowError`` when that
result is still not finite.

Matrix kernels accumulate each row sequentially left to right over the
stored nonzeros, with the right-hand side subtracted last, so each row
commits at most ``m + 1`` roundings for ``m`` stored nonzeros; a format where
the inflation factor ``(m + 1) / (1 - (m + 1) u)`` is undefined raises
:class:`PrecisionTooLowError`.  The kernels return values only: each
kernel's normwise error bound in this model is an entry of
:data:`mixedmg.bounds.KERNEL_BOUNDS`, and this module imports nothing from
the rest of mixedmg.

Every kernel takes a vector ``(n,)`` or a block ``(n, T)`` of ``T`` vectors
side by side, and in its ``fmt`` slot one format, a sequence of ``T``
formats, one per column, or a :class:`Rounding` made from either.  The
widths become a row: the splitting constant ``c``, the fallback's ``bits``
and a relaxation's scale are ``(T,)`` rows broadcast over the block, so every
entry undergoes the same IEEE operations as in a call of its own column's
format, and a row whose entries are all equal is that one value.  A vector
runs as a one-column block, and each column of a block gives bit for bit
what the same vector gives on its own in its own format: the rounding is
entrywise, the fallback's rerun gives a column whose splitting did not
overflow the same bits again, and every per-column norm is summed over a
contiguous copy of that column (see :func:`column_norms`).  A row kernel
checks ``(m + 1) u < 1`` at the rounding's largest ``u``.  No kernel writes
its inputs.
"""

from __future__ import annotations

import numbers
from collections.abc import Callable
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.sparse as sparse

#: Significand bits of the float64 carrier (including the implicit bit).
CARRIER_BITS = 53


class PrecisionTooLowError(ArithmeticError):
    """The inflation factor (m + 1) * u / (1 - (m + 1) * u) is undefined."""


class PrecisionUnachievableError(ArithmeticError):
    """No emulated format inside the carrier meets the requested roundoff."""


@dataclass(frozen=True)
class PrecisionFormat:
    """An emulated binary floating-point format.

    ``significand_bits`` counts stored significand bits including the
    implicit leading bit, so the unit roundoff is ``2**-significand_bits``.
    The exponent range is unbounded up to the carrier's own limits; there
    are no subnormals and no stochastic rounding.
    """

    significand_bits: int

    def __post_init__(self):
        bits = self.significand_bits
        if (isinstance(bits, bool) or not isinstance(bits, numbers.Integral)
                or not 2 <= bits <= CARRIER_BITS):
            raise ValueError(f"significand_bits must be an integer in "
                             f"[2, {CARRIER_BITS}], got {bits!r}")
        object.__setattr__(self, "significand_bits", int(bits))

    @property
    def unit_roundoff(self) -> float:
        return 2.0 ** -self.significand_bits


#: The carrier itself as a format; rounding to it is the identity.
CARRIER = PrecisionFormat(CARRIER_BITS)


def mdot_plus_eps(m: int, eps: float) -> float:
    """The inflation factor ``(m + 1) / (1 - (m + 1) * eps)``."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    if (m + 1) * eps >= 1.0:
        raise PrecisionTooLowError(
            f"(m + 1) * u = {(m + 1) * eps} >= 1; inflation factor undefined"
        )
    return (m + 1) / (1.0 - (m + 1) * eps)


class RoundedResult(NamedTuple):
    """A kernel's rounded value: ``(n,)`` for a vector, ``(n, T)`` for a block."""

    value: np.ndarray


def _round_array(x: np.ndarray, bits) -> np.ndarray:
    """Round every entry of ``x`` to ``bits`` significand bits, ties to even,
    through ``frexp``: the kernels' fallback and the tests' reference.

    ``bits`` is one width, or a row of widths broadcast over the last axis
    of ``x``, one per column of a block.  At the carrier's width every step
    is exact, so the value comes back unchanged.
    """
    x = np.asarray(x, dtype=np.float64)
    m, e = np.frexp(np.atleast_1d(x))
    # m * 2**bits lies in [2**(bits-1), 2**bits): np.rint is exact there and
    # breaks ties to even; scaling by powers of two is exact.  Overflow to
    # inf is tolerated here and raised by Rounding, whose fallback this is.
    # Every step runs in place on frexp's own arrays.
    with np.errstate(over="ignore"):
        np.ldexp(m, bits, out=m)
        np.rint(m, out=m)
        np.subtract(e, bits, out=e)
        np.ldexp(m, e, out=m)
    return m.reshape(x.shape)


def _row(values: list):
    """``values``, one per column, as a row ``(T,)`` to broadcast over a
    block, or as the one value when they are all equal: numpy runs a scalar
    operand over the block as one contiguous run, a row as one short run
    per block row, about three times slower."""
    return values[0] if values.count(values[0]) == len(values) else np.array(values)


class Rounding:
    """How a block rounds: one format, or a sequence of one per column, made
    once into the values every kernel call on the block reads.

    ``bits`` is the significand widths as a row over the columns, or the one
    width (see :func:`_row`), ``c = 2**(53 - bits) + 1`` the splitting
    constant, ``u`` the largest unit roundoff and ``columns`` the number of
    formats it was made from, at least one.  Called on a kernel body ``run``, it returns
    ``run(round_)`` with every rounding made by ``round_(x, out, tmp)``,
    ``x`` rounded into ``out`` with ``tmp`` as scratch: :meth:`split`, or,
    when that leaves an entry that is not finite, once more :meth:`fallback`,
    raising ``OverflowError`` if the value is still not finite.  The rerun
    rounds the whole block, and gives every column whose splitting did not
    overflow its bits again.  The two methods are the hooks a subclass
    overrides.
    """

    def __init__(self, fmt):
        formats = (fmt,) if isinstance(fmt, PrecisionFormat) else tuple(fmt)
        if not formats:
            raise ValueError("need one format or one per column of a block, got 0")
        self.u = max(f.unit_roundoff for f in formats)
        self.columns = len(formats)
        self.bits = _row([f.significand_bits for f in formats])
        self.c = np.ldexp(1.0, CARRIER_BITS - self.bits) + 1.0

    def split(self, x: np.ndarray, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
        """Veltkamp splitting, ``t = c x`` and ``x_h = t - (t - x)``; not
        finite where ``c x`` overflows.  At the carrier's width ``c = 2`` and
        ``x_h = x``."""
        np.multiply(x, self.c, out=tmp)
        np.subtract(tmp, x, out=out)
        return np.subtract(tmp, out, out=out)

    def fallback(self, x: np.ndarray, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
        """Rounding through :func:`_round_array`, which has no overflow but
        that of the rounded value; ``tmp`` is unused."""
        out[...] = _round_array(x, self.bits)
        return out

    def __call__(self, run: Callable[[Callable], np.ndarray]) -> np.ndarray:
        with np.errstate(over="ignore", invalid="ignore"):
            value = run(self.split)
        if not np.isfinite(value).all():
            value = run(self.fallback)
            if not np.isfinite(value).all():
                raise OverflowError("result overflows the float64 carrier")
        return value


def _rounding(fmt, T: int) -> Rounding:
    """``fmt``, a :class:`Rounding`, one format or one per column, as the
    rounding of a ``T``-column block."""
    rounding = fmt if isinstance(fmt, Rounding) else Rounding(fmt)
    if rounding.columns not in (1, T):
        raise ValueError(f"need one format or one per column of the "
                         f"{T}-column block, got {rounding.columns}")
    return rounding


def _as_block(w, name: str) -> np.ndarray:
    """``w`` as a finite ``(n, T)`` float64 block; a vector is one column."""
    w = np.asarray(w, dtype=np.float64)
    if w.ndim not in (1, 2):
        raise ValueError(
            f"{name} must be a vector (n,) or a block (n, T), got shape {w.shape}")
    if not np.all(np.isfinite(w)):
        raise ValueError(f"{name} must be finite")
    return w.reshape(w.shape[0], -1)


def _columns(w) -> np.ndarray:
    """A vector or an ``(n, T)`` block as ``(T, n)`` contiguous rows, one per column."""
    w = np.asarray(w, dtype=np.float64)
    if w.ndim not in (1, 2):
        raise ValueError(f"expected a vector or a block, got shape {w.shape}")
    return np.ascontiguousarray(w.reshape(w.shape[0], -1).T)


def _per_column(values: np.ndarray, like):
    """Per-column values, as a float when ``like`` is a vector."""
    return float(values[0]) if np.ndim(like) == 1 else values


def _result(value: np.ndarray, like) -> RoundedResult:
    """A kernel's ``(n, T)`` value as its result on ``like``, a vector or a block."""
    return RoundedResult(value[:, 0] if np.ndim(like) == 1 else value)


def column_norms(w):
    """Euclidean norm of a vector, or of every column of an ``(n, T)`` block.

    A column's norm is bit-identical to ``np.linalg.norm`` of that column
    alone; for a block the result is an array with one norm per column.
    """
    # one dot product per contiguous column copy: the sum runs in the same
    # order as for the lone vector, which a reduction along axis 0 of the
    # block (or a dot product over a strided column) does not guarantee
    rows = _columns(w)
    return _per_column(np.sqrt(np.vecdot(rows, rows)), w)


def _rounded(exact: Callable[[np.ndarray], np.ndarray], block: np.ndarray,
             fmt, like) -> RoundedResult:
    """A block of ``block``'s shape computed in the carrier by ``exact(out)``,
    which returns it in ``out`` or in an input it does not write, rounded
    once by ``fmt``'s rounding: the entrywise kernels' one rounding and
    range check."""
    out = np.empty_like(block)
    tmp = np.empty_like(block)
    rounding = _rounding(fmt, block.shape[1])
    return _result(rounding(lambda round_: round_(exact(out), out, tmp)), like)


def quantize_vector(w, fmt) -> RoundedResult:
    """Round a vector (or block) into ``fmt``: one format, one per column,
    or a :class:`Rounding`."""
    W = _as_block(w, "w")
    return _rounded(lambda out: W, W, fmt, w)


def rounded_add_sub(v, w, sign: str, fmt) -> RoundedResult:
    """Componentwise rounded ``v + w`` or ``v - w``.

    Both operands are expected to be representable in ``fmt`` (one format,
    one per column, or a :class:`Rounding`) already; the single rounding
    then gives the componentwise ``(1 + d)`` model.
    """
    V = _as_block(v, "v")
    W = _as_block(w, "w")
    if np.shape(v) != np.shape(w):
        raise ValueError(f"shape mismatch: {np.shape(v)} vs {np.shape(w)}")
    op = {"+": np.add, "-": np.subtract}.get(sign)
    if op is None:
        raise ValueError(f"sign must be '+' or '-', got {sign!r}")
    return _rounded(lambda out: op(V, W, out=out), V, fmt, v)


def rounded_scale(s, w, fmt) -> RoundedResult:
    """Componentwise rounded ``s * w``: ``s`` is a scalar, or a row ``(T,)``
    of one scalar per column of a block, and ``fmt`` one format, one per
    column, or a :class:`Rounding`."""
    W = _as_block(w, "w")
    s = np.asarray(s, dtype=np.float64)
    if s.ndim > 1 or s.size != 1 and s.size != W.shape[1]:
        raise ValueError(f"need one scale or one per column of the "
                         f"{W.shape[1]}-column block, got shape {s.shape}")
    return _rounded(lambda out: np.multiply(s, W, out=out), W, fmt, w)


def _csr(K) -> sparse.csr_array:
    """``K`` as a float64 csr array with sorted indices, the one csr normal
    form; it may share ``K``'s arrays but never writes them: unsorted
    indices are sorted in a copy.  A ``K`` already in that form is returned
    as it is."""
    if hasattr(K, "matrix"):  # SparseSpd and friends
        K = K.matrix
    if isinstance(K, sparse.csr_array) and K.dtype == np.float64 and K.has_sorted_indices:
        return K
    M = sparse.csr_array(K if sparse.issparse(K) else np.asarray(K), dtype=np.float64)
    return M if M.has_sorted_indices else M.sorted_indices()


@dataclass(frozen=True, eq=False)
class RowLayout:
    """An operator's stored nonzeros as row-major slots padded with zeros.

    Slot ``j`` of row ``i`` holds the ``j``-th stored nonzero of that row
    (``vals[j, i, 0]``, column ``cols[j, i]``), or an explicit zero past the
    row's end.  Padding with zero terms is exact under rounding (adding an
    exact zero to a representable partial sum is a fixed point, up to the
    sign of a zero sum), so it does not disturb the per-row error
    accounting.  ``m`` is the largest number
    of stored nonzeros in any row.  Operators that are applied repeatedly
    build their layout once (:attr:`mixedmg.linops.SparseSpd.row_layout`,
    :attr:`mixedmg.hierarchy.GridLevel.P_layout`).
    """

    matrix: sparse.csr_array
    vals: np.ndarray
    cols: np.ndarray
    m: int

    @classmethod
    def of(cls, K) -> RowLayout:
        """The layout of ``K``, reusing the one ``K`` caches when it has one."""
        if isinstance(K, RowLayout):
            return K
        cached = getattr(K, "row_layout", None)
        if cached is not None:
            return cached
        M = _csr(K)
        n_rows = M.shape[0]
        counts = np.diff(M.indptr)
        width = max(int(counts.max(initial=0)), 1)
        vals = np.zeros((width, n_rows, 1))
        cols = np.zeros((width, n_rows), dtype=np.int64)
        rows = np.repeat(np.arange(n_rows), counts)
        slots = np.arange(M.nnz) - np.repeat(M.indptr[:-1], counts)
        vals[slots, rows, 0] = M.data
        cols[slots, rows] = M.indices
        for array in (vals, cols):
            array.flags.writeable = False  # shared by every later call
        return cls(M, vals, cols, int(counts.max(initial=0)))

    @property
    def shape(self) -> tuple[int, int]:
        return self.matrix.shape


def rounded_residual(K, w, c, fmt) -> RoundedResult:
    """Compute ``K @ w - c``, or ``K @ w`` when ``c`` is None, with every
    partial product and sum rounded to ``fmt``: the row kernels' one body.

    Each row accumulates its stored nonzeros left to right, every product
    and partial sum rounded, and subtracts ``c`` last with one more rounding.
    Each slot is gathered, scaled, rounded and added in place, in three
    buffers of the result's shape.  ``K`` is a matrix, anything with a
    ``.matrix``, or a :class:`RowLayout`, whose ``m``, the most stored
    nonzeros in a row, is the row count of the error model; ``w`` and ``c``
    are both vectors or both blocks.  ``fmt`` is one format, one per
    column, or a :class:`Rounding`, and the model's ``(m + 1) u < 1`` is
    checked at its largest ``u``.
    """
    rows = RowLayout.of(K)
    W = _as_block(w, "w")
    C = None if c is None else _as_block(c, "c")
    if rows.shape[1] != W.shape[0] or (C is not None and (
            np.ndim(w) != np.ndim(c) or rows.shape[0] != C.shape[0]
            or W.shape[1] != C.shape[1])):
        raise ValueError(f"nonconformal {'matvec' if C is None else 'residual'} dimensions")
    rounding = _rounding(fmt, W.shape[1])
    # the model needs (m + 1) u < 1 in every column, so at the largest u
    mdot_plus_eps(rows.m, rounding.u)
    acc = np.empty((rows.shape[0], W.shape[1]))
    term = np.empty_like(acc)
    tmp = np.empty_like(acc)

    def run(round_):
        # mode="clip" writes straight into ``out``; the columns are in range
        np.take(W, rows.cols[0], axis=0, out=acc, mode="clip")
        round_(np.multiply(acc, rows.vals[0], out=acc), acc, tmp)
        for vals, cols in zip(rows.vals[1:], rows.cols[1:]):
            np.take(W, cols, axis=0, out=term, mode="clip")
            round_(np.multiply(term, vals, out=term), term, tmp)
            round_(np.add(acc, term, out=acc), acc, tmp)
        if C is not None:
            round_(np.subtract(acc, C, out=acc), acc, tmp)
        return acc
    return _result(rounding(run), w)


def rounded_matvec(K, w, fmt) -> RoundedResult:
    """Compute ``K @ w`` row by row in ``fmt``: :func:`rounded_residual` without ``c``."""
    return rounded_residual(K, w, None, fmt)
