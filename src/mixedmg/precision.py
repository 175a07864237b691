"""Software-emulated reduced-precision vector kernels with certified error bounds.

Every kernel evaluates each scalar operation exactly in the float64 carrier
and then rounds the result once to the target significand width
(round-to-nearest, ties to even).  This realises the standard model
``fl(a op b) = (a op b)(1 + d)`` with ``|d| <= u`` for unit roundoff
``u = 2**-significand_bits``, which is what the a-priori bounds returned by
the kernels assume.

A value ``x`` is rounded to ``bits`` by Veltkamp splitting, ``t = c x`` and
``x_h = t - (t - x)`` with ``c = 2**(53 - bits) + 1``, three passes in place
over buffers that each kernel call allocates once.  In round-to-nearest-even
carrier arithmetic ``x_h`` is ``x`` rounded to nearest even on ``bits``
significand bits (Dekker, *Numer. Math.* 18, 1971), also when ``x`` or
``x_h`` is subnormal (Boldo, IJCAR 2006), so the kernels give the bits of
rounding through ``frexp``, ``rint`` and ``ldexp``.  The splitting fails only
by overflow: ``c x`` overflows from about ``|x| = 2**(971 + bits)``, and a true
result beyond the carrier overflows too.  Either leaves a non-finite entry,
since ``inf - inf`` is NaN and NaN survives every later step; a kernel whose
result is not finite then runs once more with rounding through ``frexp``
(:func:`_round_array`, also the tests' reference), and that result goes
through the range check, which raises ``OverflowError`` when it is still not
finite.

Matrix kernels accumulate each row sequentially left to right over the
stored nonzeros, with the right-hand side subtracted last, so the error
accounting matches the ``(m + 1)``-term inflation factor
``(m + 1) * u / (1 - (m + 1) * u)`` exactly.  Their bounds also need the
spectral norm of ``|K|``, which the caller passes as ``eta_abs``, computed
once per operator; this module imports nothing from the rest of mixedmg.

Every kernel takes a vector ``(n,)`` or a block ``(n, T)`` of ``T`` vectors
side by side.  A vector runs as a one-column block, and each column of a
block gives bit for bit what the same vector gives on its own: the rounding
is entrywise, and every per-column norm is summed over a contiguous copy of
that column (see :func:`column_norms`).  For a block, ``a_priori_bound`` is
an array with one bound per column.  A bound is evaluated when it is first
read, so a caller that needs only the value never computes it.  No kernel
writes its inputs.
"""

from __future__ import annotations

import numbers
from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property

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


class RoundedResult:
    """A kernel result together with its a-priori Euclidean error bound.

    Whenever the exact result is recomputed by a high-precision oracle,
    ``norm(value - exact) <= a_priori_bound`` holds, column by column for a
    block, whose ``a_priori_bound`` is an array with one entry per column.

    ``bound`` is the function of no arguments that gives ``a_priori_bound``;
    it runs on the first read, and its value is kept.  The kernels' bounds
    are evaluated from the kernel's inputs, which no mixedmg code modifies
    in place, so a bound read late has the bits it would have had when the
    kernel returned.
    """

    def __init__(self, value: np.ndarray, bound: Callable[[], float | np.ndarray]):
        self.value = value
        self._bound = bound

    @cached_property
    def a_priori_bound(self) -> float | np.ndarray:
        return self._bound()


def _round_array(x: np.ndarray, bits: int) -> np.ndarray:
    """Round every entry of ``x`` to ``bits`` significand bits, ties to even,
    through ``frexp``: the kernels' fallback and the tests' reference."""
    if bits >= CARRIER_BITS:
        return np.array(x, dtype=np.float64, copy=True)
    x = np.asarray(x, dtype=np.float64)
    m, e = np.frexp(np.atleast_1d(x))
    # m * 2**bits lies in [2**(bits-1), 2**bits): np.rint is exact there and
    # breaks ties to even; scaling by powers of two is exact.  Overflow to
    # inf is tolerated here and signaled by the range check of _in_range.
    # Every step runs in place on frexp's own arrays.
    with np.errstate(over="ignore"):
        np.ldexp(m, bits, out=m)
        np.rint(m, out=m)
        np.subtract(e, bits, out=e)
        np.ldexp(m, e, out=m)
    return m.reshape(x.shape)


def _split_round(x: np.ndarray, bits: int, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """``x`` rounded to ``bits`` into ``out``, which may be ``x`` itself, by
    Veltkamp splitting with ``tmp`` as scratch; not finite where ``c x``
    overflows.  At the carrier's width ``c = 2`` and ``x_h = x``."""
    np.multiply(x, 2.0 ** (CARRIER_BITS - bits) + 1.0, out=tmp)
    np.subtract(tmp, x, out=out)
    return np.subtract(tmp, out, out=out)


def _frexp_round(x: np.ndarray, bits: int, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """``x`` rounded to ``bits`` into ``out`` through :func:`_round_array`,
    which has no overflow but that of the rounded value; ``tmp`` is unused."""
    out[...] = _round_array(x, bits)
    return out


def _in_range(run: Callable[[Callable], np.ndarray]) -> np.ndarray:
    """``run(round_)``, a kernel's value with every rounding made by
    ``round_``: by :func:`_split_round`, or, when that leaves an entry that
    is not finite, once more by :func:`_frexp_round`, raising
    ``OverflowError`` if the value is still not finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        value = run(_split_round)
    if not np.isfinite(value).all():
        value = run(_frexp_round)
        if not np.isfinite(value).all():
            raise OverflowError("result overflows the float64 carrier")
    return value


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


def _result(value: np.ndarray, bound: Callable[[], np.ndarray], like) -> RoundedResult:
    """The result of a kernel on ``like``; ``bound`` gives the per-column bounds."""
    if np.ndim(like) == 1:
        return RoundedResult(value[:, 0], lambda: float(bound()[0]))
    return RoundedResult(value, bound)


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
             fmt: PrecisionFormat, bound: Callable[[], np.ndarray], like) -> RoundedResult:
    """A block of ``block``'s shape computed in the carrier by ``exact(out)``,
    which returns it in ``out`` or in an input it does not write, rounded
    once into ``fmt``: the entrywise kernels' one rounding and range check."""
    out = np.empty_like(block)
    tmp = np.empty_like(block)
    bits = fmt.significand_bits
    value = _in_range(lambda round_: round_(exact(out), bits, out, tmp))
    return _result(value, bound, like)


def quantize_vector(w, fmt: PrecisionFormat) -> RoundedResult:
    """Round a vector (or block) into ``fmt``; bound is ``u * norm(w)`` per column."""
    W = _as_block(w, "w")
    return _rounded(lambda out: W, W, fmt, lambda: fmt.unit_roundoff * column_norms(W), w)


def rounded_add_sub(v, w, sign: str, fmt: PrecisionFormat) -> RoundedResult:
    """Componentwise rounded ``v + w`` or ``v - w``; bound is ``u * norm(v +- w)``.

    Both operands are expected to be representable in ``fmt`` already; the
    single rounding then gives the componentwise ``(1 + d)`` model.
    """
    V = _as_block(v, "v")
    W = _as_block(w, "w")
    if np.shape(v) != np.shape(w):
        raise ValueError(f"shape mismatch: {np.shape(v)} vs {np.shape(w)}")
    op = {"+": np.add, "-": np.subtract}.get(sign)
    if op is None:
        raise ValueError(f"sign must be '+' or '-', got {sign!r}")
    return _rounded(lambda out: op(V, W, out=out), V, fmt,
                    lambda: fmt.unit_roundoff * column_norms(op(V, W)), v)


def rounded_scale(s: float, w, fmt: PrecisionFormat, alpha: float) -> RoundedResult:
    """Componentwise rounded ``s * w``; bound is ``alpha * u * norm(w)``.

    ``alpha`` must certify the scaling, ``alpha >= |s|`` for a scalar ``s``
    already representable in ``fmt``.
    """
    W = _as_block(w, "w")
    return _rounded(lambda out: np.multiply(s, W, out=out), W, fmt,
                    lambda: alpha * fmt.unit_roundoff * column_norms(W), w)


def _csr(K) -> sparse.csr_array:
    if hasattr(K, "matrix"):  # SparseSpd and friends
        K = K.matrix
    if sparse.issparse(K):
        M = sparse.csr_array(K)
    else:
        M = sparse.csr_array(np.asarray(K, dtype=np.float64))
    M.sort_indices()
    return M


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


def _rounded_rows(K, w, c, fmt: PrecisionFormat, eta_abs: float) -> RoundedResult:
    """``K @ w - c``, or ``K @ w`` when ``c`` is None, in ``fmt``: the row
    kernels' one body.

    Each row accumulates its stored nonzeros left to right, every product
    and partial sum rounded, and subtracts ``c`` last with one more rounding.
    Each slot is gathered, scaled, rounded and added in place, in three
    buffers of the result's shape.
    """
    rows = RowLayout.of(K)
    W = _as_block(w, "w")
    C = None if c is None else _as_block(c, "c")
    if rows.shape[1] != W.shape[0] or (C is not None and (
            np.ndim(w) != np.ndim(c) or rows.shape[0] != C.shape[0]
            or W.shape[1] != C.shape[1])):
        raise ValueError(f"nonconformal {'matvec' if C is None else 'residual'} dimensions")
    bits = fmt.significand_bits
    acc = np.empty((rows.shape[0], W.shape[1]))
    term = np.empty_like(acc)
    tmp = np.empty_like(acc)

    def run(round_):
        # mode="clip" writes straight into ``out``; the columns are in range
        np.take(W, rows.cols[0], axis=0, out=acc, mode="clip")
        round_(np.multiply(acc, rows.vals[0], out=acc), bits, acc, tmp)
        for vals, cols in zip(rows.vals[1:], rows.cols[1:]):
            np.take(W, cols, axis=0, out=term, mode="clip")
            round_(np.multiply(term, vals, out=term), bits, term, tmp)
            round_(np.add(acc, term, out=acc), bits, acc, tmp)
        if C is not None:
            round_(np.subtract(acc, C, out=acc), bits, acc, tmp)
        return acc
    acc = _in_range(run)
    scale = fmt.unit_roundoff * mdot_plus_eps(rows.m, fmt.unit_roundoff)

    def bound():
        w_term = eta_abs * column_norms(W)
        return scale * (w_term if C is None else column_norms(C) + w_term)
    return _result(acc, bound, w)


def rounded_residual(K, w, c, fmt: PrecisionFormat, *, eta_abs: float) -> RoundedResult:
    """Compute ``K @ w - c`` with every partial product and sum rounded to ``fmt``.

    The a-priori bound is ``u * inflation * (norm(c) + eta_abs * norm(w))``
    where ``inflation = (m + 1) / (1 - (m + 1) u)`` with ``m`` the maximum
    number of stored nonzeros in any row of ``K``.  ``eta_abs`` must bound
    the spectral norm of the entrywise absolute value of ``K`` from above,
    as :func:`mixedmg.hierarchy.abs_matrix_norm` does; the caller computes
    it once per operator (``GridLevel.eta_A``, ``GridLevel.eta_P``).  ``K``
    is a matrix, anything with a ``.matrix``, or a :class:`RowLayout`; ``w``
    and ``c`` are both vectors or both blocks.
    """
    return _rounded_rows(K, w, c, fmt, eta_abs)


def rounded_matvec(K, w, fmt: PrecisionFormat, *, eta_abs: float) -> RoundedResult:
    """Compute ``K @ w`` row by row in ``fmt``; bound ``u * inflation * eta_abs * norm(w)``.

    It is :func:`rounded_residual` without ``c``, with the same
    ``inflation`` and ``eta_abs``.
    """
    return _rounded_rows(K, w, None, fmt, eta_abs)
