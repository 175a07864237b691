"""The certified set-up constants against the dense oracle, and the guard that
keeps the dense forms off the experiment path."""

import functools
import importlib
import itertools

import mpmath
import numpy as np
import pytest
import scipy.linalg
import scipy.linalg.lapack

import dense_oracle as oracle
from mixedmg import (
    CARRIER,
    PrecisionFormat,
    SparseSpd,
    build_multilevel,
    make_exact_coarse,
    make_jacobi,
    make_perturbed_coarse,
    make_recursive_coarse,
    make_richardson,
    rho_star,
    spectrum_ends,
)
from mixedmg.harness import ExperimentConfig, render_csv, run_experiment

REL = 1e-10
FMT = PrecisionFormat(12)

# (problem, size): 1D n = 15, 63, 255 and 2D k = 7, 15, three grids each
HIERARCHIES = {
    "1d-15": ("poisson1d", 15),
    "1d-63": ("poisson1d", 63),
    "1d-255": ("poisson1d", 255),
    "2d-7": ("poisson2d", 7),
    "2d-15": ("poisson2d", 15),
}


@functools.cache
def hierarchy(name):
    problem, size = HIERARCHIES[name]
    return build_multilevel(size, 3, problem=problem)


def smoother(kind, A, fmt=FMT):
    make = make_jacobi if kind == "jacobi" else make_richardson
    return make(A, 2.0 / 3.0, fmt)


def coarse_solver(variant, levels, jacobi_smoothers):
    if variant == "exact":
        return make_exact_coarse(levels[0])
    if variant == "perturbed":
        return make_perturbed_coarse(levels[0], 0.3, seed=5)
    return make_recursive_coarse(levels, 1, 1, jacobi_smoothers(levels[1:]))


def oracle_coarse_matrix(variant, levels, coarse):
    """``B_c A_c^{-1}`` by dense solves and the explicit sine matrix; the
    recursive cycle has no dense form, so for it the solver's own matrix."""
    if variant == "recursive":
        return oracle.solve_matrix(coarse)
    return oracle.coarse_matrix(levels[0], 0.3 if variant == "perturbed" else 0.0,
                                seed=5)


def assert_close(got, expected, what):
    assert abs(got - expected) <= REL * abs(expected), (what, got, expected)


@pytest.mark.parametrize("name", HIERARCHIES)
def test_level_constants(name):
    for lvl in hierarchy(name):
        assert_close(lvl.kappa, oracle.condition_number(lvl.A), "kappa")
        assert_close(lvl.kappa_c, oracle.condition_number(lvl.A_c), "kappa_c")
        assert_close(lvl.eta_A, oracle.abs_matrix_norm(lvl.A.matrix), "eta_A")
        assert_close(lvl.eta_P, oracle.abs_matrix_norm(lvl.P), "eta_P")


def assert_safe(got, reference, what):
    """``got`` is at or above its 50-digit ``reference``, within 1e-12 relative."""
    assert reference <= got <= reference * (1 + mpmath.mpf("1e-12")), (
        what, got, reference)


def eigenvalues_50(c, k):
    """Every eigenvalue of the stencil ``c`` on ``k`` points per axis, at 50 digits:
    ``sum_a c[a] prod_(i: a_i = 1) 2 cos(j_i pi / (k + 1))`` over the modes ``j``."""
    cos2 = [2 * mpmath.cos(j * mpmath.pi / (k + 1)) for j in range(1, k + 1)]
    return [mpmath.fsum(mpmath.mpf(c[a]) * mpmath.fprod(
                cos2[j] for j, s in zip(js, a) if s)
                for a in itertools.product((0, 1), repeat=c.ndim))
            for js in itertools.product(range(k), repeat=c.ndim)]


@pytest.mark.parametrize("name", HIERARCHIES)
def test_constants_on_the_safe_side(name):
    # each certified constant is an upper end of the closed form of the
    # stored stencil values, and within 1e-12 of it
    levels = hierarchy(name)
    with mpmath.workdps(50):
        for lvl in levels:
            st = lvl.stencils
            lam = eigenvalues_50(st.A, st.k)
            lam_c = eigenvalues_50(st.A_c, (st.k - 1) // 2)
            assert_safe(lvl.kappa, max(lam) / min(lam), "kappa")
            assert_safe(lvl.kappa_c, max(lam_c) / min(lam_c), "kappa_c")
            assert_safe(lvl.eta_A, max(eigenvalues_50(np.abs(st.A), st.k)), "eta_A")
            top_P = abs(mpmath.mpf(st.p)) * mpmath.sqrt(
                1 + mpmath.cos(mpmath.pi / (st.k + 1)) ** 2) ** st.d
            assert_safe(lvl.eta_P, top_P, "eta_P")
        st = levels[0].stencils
        lam = eigenvalues_50(st.A, st.k)
        for kind in ("jacobi", "richardson"):
            for fmt in (FMT, CARRIER):
                K = smoother(kind, levels[0].A, fmt)
                w = mpmath.mpf(K.w)
                assert_safe(K.contraction, max(abs(1 - w * x) for x in lam), "contraction")
                # w I commutes with A, so its energy norm is |w| exactly
                assert K.eta == abs(K.w)


@pytest.mark.parametrize("name", HIERARCHIES)
def test_unit_scales_from_above(name):
    # each scale is an upper end of the norm before scaling, so the stored
    # norms sit at most a few roundoffs above one and within 1e-13 below it,
    # and their certified symbol ends at most 8 units of roundoff above
    eps = np.finfo(np.float64).eps
    for lvl in hierarchy(name):
        for M in (lvl.A, lvl.A_c):
            top = oracle.eigenvalues(M)[-1]
            assert 1.0 - 1e-13 <= top <= 1.0 + 4 * eps, top
            assert top <= spectrum_ends(M)[1] <= 1.0 + 4 * eps, spectrum_ends(M)


def test_kappa_at_the_largest_1d_grid():
    # the scaled stencil is r (2, -1) exactly, so its condition number is
    # cot^2(pi / (2 (n + 1))); the certified end is within 1e-13 above it
    kappa = build_multilevel(16383, 2)[0].kappa
    with mpmath.workdps(50):
        exact = mpmath.cot(mpmath.pi / 32768) ** 2
        assert exact <= kappa <= exact * (1 + mpmath.mpf("1e-13")), (kappa, exact)


@pytest.mark.parametrize("kind", ["jacobi", "richardson"])
@pytest.mark.parametrize("name", HIERARCHIES)
def test_smoother_constants(name, kind):
    A = hierarchy(name)[0].A
    for fmt in (FMT, CARRIER):
        K = smoother(kind, A, fmt)
        assert_close(K.contraction, oracle.contraction(A, K.w), "contraction")
        assert_close(K.eta, oracle.energy_operator_norm(K.w * np.eye(A.n), A), "eta")


@pytest.mark.parametrize("variant", ["exact", "perturbed", "recursive"])
@pytest.mark.parametrize("kind", ["jacobi", "richardson"])
@pytest.mark.parametrize("name", HIERARCHIES)
def test_rho_star(name, kind, variant, jacobi_smoothers):
    levels = hierarchy(name)
    level = levels[0]
    S = smoother(kind, level.A)
    coarse = coarse_solver(variant, levels, jacobi_smoothers)
    X = oracle_coarse_matrix(variant, levels, coarse)
    assert_close(rho_star(S, coarse), oracle.rho_star(level, S, S, X), "rho_star")


@pytest.mark.parametrize("name", HIERARCHIES)
def test_recursive_bc_deviation(name, jacobi_smoothers):
    levels = hierarchy(name)
    coarse = make_recursive_coarse(levels, 1, 1, jacobi_smoothers(levels[1:]))
    expected = oracle.bc_deviation(levels[0], oracle.solve_matrix(coarse))
    assert_close(coarse.bc_deviation, expected, "bc_deviation")


@pytest.mark.parametrize("name", HIERARCHIES)
def test_perturbed_normalisation(name):
    level = hierarchy(name)[0]
    coarse = make_perturbed_coarse(level, 0.3, seed=5)
    assert_close(coarse.bc_deviation, 0.3, "bc_deviation")
    expected, got = oracle.coarse_matrix(level, 0.3, seed=5), oracle.solve_matrix(coarse)
    for X in (expected, got):
        assert_close(oracle.bc_deviation(level, X), 0.3, "sigma")
    # the sine transforms apply the oracle's B_c, Kronecker order included
    assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()


def _forbidden(*_args, **_kwargs):
    raise AssertionError("dense spectral path reached")


@pytest.mark.parametrize("config", [
    ExperimentConfig(size=63, trials=5),
    ExperimentConfig(size=63, levels=4, coarse="recursive", trials=5),
    ExperimentConfig(size=63, coarse="perturbed", sigma=0.3, trials=5),
    ExperimentConfig(problem="poisson2d", size=15, trials=5),
    ExperimentConfig(problem="poisson2d", size=15, levels=3, coarse="recursive",
                     trials=5),
    ExperimentConfig(problem="poisson2d", size=15, coarse="perturbed", sigma=0.3,
                     trials=5),
], ids=["1d-exact", "1d-recursive", "1d-perturbed", "2d-exact", "2d-recursive",
        "2d-perturbed"])
def test_run_experiment_takes_no_dense_spectral_path(monkeypatch, config):
    linalg = importlib.import_module("numpy.linalg._linalg")
    # the shifted banded Cholesky factorizations (pbtrf) and solves (pbtrs)
    # of certified eigenvalue ends are gone too: the set-up constants come
    # from stencil symbols
    forbidden = [(np.linalg, "svd"), (linalg, "svd"), (np.linalg, "eigh"),
                 (linalg, "eigh"), (scipy.linalg, "svd"), (scipy.linalg, "svdvals"),
                 (scipy.linalg, "eigh"), (scipy.linalg, "cho_factor"),
                 (scipy.linalg, "eig_banded"), (scipy.linalg.lapack, "dpbtrf"),
                 (scipy.linalg.lapack, "dpbtrs")]
    # every coarse solve's rho_star comes from Fourier blocks: no order-n
    # eigensolve, and no dense order-n identity (the largest Fourier block
    # of these configs has order 16, every coarse grid more points)
    forbidden.append((scipy.linalg, "eigvalsh"))
    for owner, name in forbidden:
        monkeypatch.setattr(owner, name, _forbidden)
    eye = np.eye
    monkeypatch.setattr(np, "eye", lambda N, *args, **kwargs: (
        _forbidden() if N > 16 else eye(N, *args, **kwargs)))
    for name in ("eigh", "sqrt_dense", "inv_sqrt_dense", "dense", "eigenvalues"):
        monkeypatch.setattr(SparseSpd, name, property(_forbidden), raising=False)
    # the patches reach the dense forms, a matrix 2-norm and the band
    # reduction included
    with pytest.raises(AssertionError, match="dense spectral path"):
        np.linalg.norm(np.eye(2), 2)
    with pytest.raises(AssertionError, match="dense spectral path"):
        oracle.eigenvalues(SparseSpd(np.eye(2)))
    with pytest.raises(AssertionError, match="dense spectral path"):
        SparseSpd(np.eye(2)).dense  # noqa: B018
    with pytest.raises(AssertionError, match="dense spectral path"):
        scipy.linalg.lapack.dpbtrf(np.ones((1, 2)), lower=1)
    with pytest.raises(AssertionError, match="dense spectral path"):
        np.eye(17)
    records = run_experiment(config)
    assert len(records) == 5 * len(config.bits)
    assert all(r.passed for r in records)


@pytest.mark.parametrize("config", [
    ExperimentConfig(size=63, levels=3, coarse="recursive", trials=3),
    ExperimentConfig(problem="poisson2d", size=15, smoother="richardson", trials=3),
], ids=["1d-recursive", "2d-richardson"])
def test_run_experiment_renders_the_same_bytes_twice(config):
    # the certified ends start from a fixed vector: no draw moves their bits
    assert render_csv(run_experiment(config)) == render_csv(run_experiment(config))
