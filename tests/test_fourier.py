"""The Fourier-block ``rho_star`` of every coarse solve and the recursive
``bc_deviation``: against the dense oracle, against a 50-digit ``mpmath``
reference, and the structure check that guards them."""

import dataclasses
import functools

import mpmath
import numpy as np
import pytest

import dense_oracle as oracle
import mixedmg.fourier
from mixedmg import (
    CARRIER,
    PrecisionFormat,
    SparseSpd,
    StructureError,
    build_multilevel,
    make_exact_coarse,
    make_jacobi,
    make_perturbed_coarse,
    make_recursive_coarse,
    make_richardson,
    rho_star,
)
from mixedmg.harness import _make_coarse, make_smoother
from test_golden import _GOLDEN, _PINNED

REL = 1e-10
FMT = PrecisionFormat(12)


@functools.cache
def hierarchy(problem, size, levels):
    return build_multilevel(size, levels, problem=problem)


def smoothers_for(kind, levels, fmt=CARRIER):
    make = make_jacobi if kind == "jacobi" else make_richardson
    return [make(l.A, 2.0 / 3.0, fmt) for l in levels]


def assert_agrees(got, expected, what):
    assert abs(got - expected) <= REL * abs(expected), (what, got, expected)


def check_against_oracle(level, coarse, smoothers, X):
    """``rho_star`` of each smoother, and ``bc_deviation``, against the dense
    forms with the coarse solve ``X = B_c A_c^{-1}``."""
    for S in smoothers:
        assert_agrees(rho_star(S, coarse), oracle.rho_star(level, S, S, X), "rho_star")
    if coarse.bc_deviation:
        assert_agrees(coarse.bc_deviation, oracle.bc_deviation(level, X),
                      "bc_deviation")


_CONFIGS = {name: config for name, config in _GOLDEN.items()}
_CONFIGS.update({name: config for name, (config, _) in _PINNED.items()})


@pytest.mark.parametrize("name", sorted(_CONFIGS))
def test_golden_and_pinned_configs_match_the_dense_oracle(name):
    config = _CONFIGS[name]
    levels = build_multilevel(config.size, config.levels, problem=config.problem)
    coarse = _make_coarse(config, levels)
    smoothers = [make_smoother(config.smoother, levels[0].A, config.omega,
                               PrecisionFormat(bits)) for bits in config.bits]
    # dense solves, with the explicit sine matrix for the perturbed solve;
    # the recursive cycle has no dense form, so for it the solver's own matrix
    X = (oracle.solve_matrix(coarse) if config.coarse == "recursive"
         else oracle.coarse_matrix(levels[0], config.sigma, config.rng_seed))
    check_against_oracle(levels[0], coarse, smoothers, X)


# (problem, size, levels): every grid is checked with both smoothers, the
# exact solve and the recursive one at each (mu, nu) below; the largest
# grids, whose dense oracle takes about a second a call, with a spread of
# those instead
_GRIDS = [("poisson1d", 15, 3), ("poisson1d", 63, 4), ("poisson1d", 255, 3),
          ("poisson2d", 7, 3), ("poisson2d", 15, 3)]
_SWEEPS = [(1, 1), (2, 2), (0, 1)]
_CASES = [(grid, kind, sweeps) for grid in _GRIDS for kind in ("jacobi", "richardson")
          for sweeps in [None, *_SWEEPS]]
_CASES += [(("poisson1d", 1023, 3), "jacobi", None),
           (("poisson1d", 1023, 3), "richardson", (2, 2)),
           (("poisson1d", 1023, 4), "jacobi", (0, 1)),
           (("poisson2d", 31, 2), "richardson", None),
           (("poisson2d", 31, 3), "jacobi", (1, 1))]


@pytest.mark.parametrize("grid, kind, sweeps", _CASES, ids=[
    f"{p[-2:]}-{size}-L{levels}-{kind}-{'exact' if s is None else 'V%d%d' % s}"
    for (p, size, levels), kind, s in _CASES])
def test_fourier_matches_the_dense_oracle(grid, kind, sweeps):
    levels = hierarchy(*grid)
    if sweeps is None:
        coarse = make_exact_coarse(levels[0])
        X = oracle.coarse_matrix(levels[0])
    else:
        coarse = make_recursive_coarse(levels, *sweeps, smoothers_for(kind, levels[1:]))
        X = oracle.solve_matrix(coarse)
    check_against_oracle(levels[0], coarse, smoothers_for(kind, levels[:1], FMT), X)


# --- the certification, against 50 digits -------------------------------------

def _mp(matrix) -> mpmath.matrix:
    dense = matrix.toarray() if hasattr(matrix, "toarray") else np.asarray(matrix)
    return mpmath.matrix(dense.tolist())


def _mp_propagator(level, S, X, mu, nu):
    """``(I - S A)^nu (I - P X P' A) (I - S A)^mu`` from the stored values."""
    A, P = _mp(level.A.matrix), _mp(level.P)
    eye = mpmath.eye(level.n)
    relax = eye - mpmath.mpf(S.w) * A
    return relax ** nu * (eye - P * X * P.T * A) * relax ** mu


def _mp_cycle(levels, smoothers, mu, nu):
    """The carrier V(mu, nu)-cycle over ``levels`` as ``X = (I - E) A^{-1}``."""
    if not levels:
        raise ValueError("no levels")
    level = levels[0]
    if len(levels) == 1:
        X = mpmath.inverse(_mp(level.A_c.matrix))
    else:
        X = _mp_cycle(levels[1:], smoothers[1:], mu, nu)
    E = _mp_propagator(level, smoothers[0], X, mu, nu)
    return (mpmath.eye(level.n) - E) * mpmath.inverse(_mp(level.A.matrix))


def _mp_energy_norm(K, A) -> mpmath.mpf:
    """``norm(L' K L'^{-1})`` with ``A = L L'``, by the Gram matrix's eigenvalues."""
    L = mpmath.cholesky(_mp(A.matrix))
    Y = L.T * K * mpmath.inverse(L.T)
    return mpmath.sqrt(max(mpmath.eigsy(Y.T * Y, eigvals_only=True)))


def _mp_sine_scaling(factors) -> mpmath.matrix:
    """``Phi diag(f) Phi'`` with the sine matrix ``Phi`` of a grid shaped as
    ``factors``, in Kronecker order on a 2D grid."""
    k = factors.shape[0]
    sine = [[mpmath.sqrt(mpmath.mpf(2) / (k + 1)) * mpmath.sin(mpmath.pi * i * j / (k + 1))
             for j in range(1, k + 1)] for i in range(1, k + 1)]
    modes = list(np.ndindex(factors.shape))
    Phi = mpmath.matrix([[mpmath.fprod(sine[a][b] for a, b in zip(point, mode))
                          for mode in modes] for point in modes])
    f = mpmath.diag([mpmath.mpf(factors[mode]) for mode in modes])
    return Phi * f * Phi.T


@pytest.mark.parametrize("problem, size", [("poisson1d", 7), ("poisson1d", 15),
                                           ("poisson2d", 7)])
@pytest.mark.parametrize("variant", ["exact", "perturbed", "recursive"])
def test_certified_against_fifty_digits(problem, size, variant):
    levels = hierarchy(problem, size, 3 if variant == "recursive" else 2)
    level = levels[0]
    S = make_jacobi(level.A, 2.0 / 3.0, FMT)
    # at sigma = 0.3 the 2D k=7 perturbation leaves rho_star at the exact
    # solve's value; 0.5 moves it
    sigma = 0.5 if problem == "poisson2d" else 0.3
    with mpmath.workdps(50):
        if variant == "exact":
            coarse = make_exact_coarse(level)
            X = mpmath.inverse(_mp(level.A_c.matrix))
        elif variant == "perturbed":
            # B_c scales the exact sine modes by the factors fl(1 + sigma s_j),
            # with the signs drawn from the seed as the library draws them
            coarse = make_perturbed_coarse(level, sigma, seed=5)
            signs = np.random.default_rng(5).choice((-1.0, 1.0), size=level.n_c)
            factors = (1.0 + sigma * signs).reshape(level.A_c.sine_eigenvalues.shape)
            X = _mp_sine_scaling(factors) * mpmath.inverse(_mp(level.A_c.matrix))
        else:
            smoothers = smoothers_for("jacobi", levels[1:])
            coarse = make_recursive_coarse(levels, 1, 1, smoothers)
            X = _mp_cycle(levels[1:], smoothers, 1, 1)
            deviation = _mp_energy_norm(X * _mp(level.A_c.matrix) - mpmath.eye(level.n_c),
                                        level.A_c)
            assert deviation <= coarse.bc_deviation <= deviation * (1 + 1e-12), (
                coarse.bc_deviation, deviation)
        reference = _mp_energy_norm(_mp_propagator(level, S, X, 1, 1), level.A)
    got = rho_star(S, coarse)
    assert reference <= got <= reference * (1 + 1e-12), (got, reference)


# --- the structure check -------------------------------------------------------

def _nudged(matrix, row, col):
    """A copy of a sparse matrix with one stored entry moved up by one ulp."""
    out = matrix.copy()
    out[row, col] = np.nextafter(out[row, col], np.inf)
    return out


@pytest.mark.parametrize("problem, size", [("poisson1d", 15), ("poisson2d", 7)])
def test_perturbed_A_entry_is_named(problem, size):
    # a matrix one ulp off its stencil is refused where it is made, so no
    # level can hold it
    level = hierarchy(problem, size, 2)[0]
    with pytest.raises(StructureError,
                       match=f"^the {level.n}x{level.n} matrix is not the matrix"):
        SparseSpd(_nudged(level.A.matrix, 3, 4))


@pytest.mark.parametrize("which", ["M", "N"])
def test_smoother_of_another_order_is_named(which):
    # one smoother relaxes at both steps; a recursive solve whose sub-cycle
    # uses it only before (M, mu = 1) or only after (N, nu = 1) the coarse
    # correction still checks its order
    levels = hierarchy("poisson1d", 15, 3)
    bad = make_jacobi(hierarchy("poisson1d", 31, 2)[0].A, 2.0 / 3.0, FMT)
    mu, nu = (1, 0) if which == "M" else (0, 1)
    with pytest.raises(StructureError, match="^level 0: smoother has order 31, not 15"):
        rho_star(bad, make_exact_coarse(levels[0]))
    with pytest.raises(StructureError, match="^level 1: smoother has order 31, not 7"):
        make_recursive_coarse(levels, mu, nu, [bad])


def test_a_square_order_matrix_failing_both_reads_names_both():
    # a 2D Galerkin product whose diagonal couplings differ in the last bit
    # is read neither on its 3x3 grid nor on a line of 9 points
    from mixedmg.fourier import _symmetric_stencil
    from mixedmg.hierarchy import _galerkin, bilinear_interpolation

    A = build_multilevel(31, 3, problem="poisson2d")[-1].A_c
    with pytest.raises(StructureError, match=(
            r"^the 9x9 matrix is not the matrix of its stencil \[[^]]*\] on a 3x3 "
            r"grid, nor of its stencil \[[^]]*\] on a line of 9 points$")):
        _symmetric_stencil(_galerkin(A, bilinear_interpolation(7)))


def test_other_operators_are_named():
    levels = hierarchy("poisson1d", 15, 3)
    level = levels[0]
    bad_P = dataclasses.replace(level, P=_nudged(level.P, 1, 0))
    with pytest.raises(StructureError, match="^level 0: P is not"):
        make_exact_coarse(bad_P)
    # the coarse matrix of level 0 and the fine matrix of level 1, nudged,
    # are refused where they are made
    for K, entry in ((level.A_c, 2), (levels[1].A, 1)):
        with pytest.raises(StructureError,
                           match=f"^the {K.n}x{K.n} matrix is not the matrix"):
            SparseSpd(_nudged(K.matrix, entry, entry))


def test_non_model_level_is_rejected_not_densified():
    # a level whose P does not halve the grid has no Fourier form; its coarse
    # solver, which carries that form, is refused instead of falling back to
    # the dense path
    level = dataclasses.replace(hierarchy("poisson1d", 15, 2)[0],
                                A=SparseSpd(np.eye(14)))
    with pytest.raises(StructureError, match="P maps 14 points"):
        make_exact_coarse(level)


# --- every format in one pass --------------------------------------------------

_VARIANTS = {
    "exact": lambda levels: make_exact_coarse(levels[0]),
    "perturbed": lambda levels: make_perturbed_coarse(levels[0], 0.5, seed=3),
    "recursive": lambda levels: make_recursive_coarse(
        levels, 1, 1, smoothers_for("jacobi", levels[1:])),
}


def _hex(values):
    return [v.hex() for v in values]


@pytest.mark.parametrize("variant", sorted(_VARIANTS))
@pytest.mark.parametrize("problem, size", [("poisson1d", 63), ("poisson2d", 15)])
def test_every_format_in_one_pass_gives_each_its_own_bits(problem, size, variant):
    levels = hierarchy(problem, size, 3)
    coarse = _VARIANTS[variant](levels)
    smoothers = [make_jacobi(levels[0].A, 2.0 / 3.0, PrecisionFormat(bits))
                 for bits in (8, 12, 16, 23, 53)]
    single = [rho_star(S, coarse) for S in smoothers]
    assert all(type(value) is float for value in single)
    for sequence in (smoothers, tuple(reversed(smoothers)), smoothers[2:3]):
        got = rho_star(sequence, coarse)
        assert type(got) is list and all(type(value) is float for value in got)
        assert _hex(got) == _hex(single[smoothers.index(S)] for S in sequence)
    assert rho_star([], coarse) == []


def test_a_sequence_with_a_smoother_of_another_order_is_refused():
    level = hierarchy("poisson1d", 15, 2)[0]
    good = make_jacobi(level.A, 2.0 / 3.0, FMT)
    bad = make_jacobi(hierarchy("poisson1d", 31, 2)[0].A, 2.0 / 3.0, FMT)
    with pytest.raises(StructureError, match="^level 0: smoother has order 31, not 15"):
        rho_star([good, bad], make_exact_coarse(level))


def test_harmonics_once_per_class(monkeypatch):
    # the harmonics depend on the class alone: the 2D core of an exact solve
    # has two classes per axis, the coarse modes and the middle mode, and
    # four keys
    coarse = make_exact_coarse(hierarchy("poisson2d", 31, 2)[0])
    calls = []
    harmonics = mixedmg.fourier._harmonics
    monkeypatch.setattr(mixedmg.fourier, "_harmonics",
                        lambda F, k: (calls.append(F.shape), harmonics(F, k))[1])
    symbols = coarse.fourier.core[1]
    assert len(symbols) == 4 and calls == [(15, 2), (1, 1)]


def test_corner_harmonics_are_cached_read_only():
    # symbol_ends reads the two corner modes of each grid size from a cache
    mixedmg.fourier._corners.cache_clear()
    s = mixedmg.fourier._corners(31)
    assert mixedmg.fourier._corners(31) is s
    assert not s.mid.flags.writeable and not s.rad.flags.writeable
    fresh = mixedmg.fourier._harmonics(np.array([[1, 31]]), 31)[0]
    assert s.mid.tobytes() == fresh.mid.tobytes()
    assert s.rad.tobytes() == fresh.rad.tobytes()
