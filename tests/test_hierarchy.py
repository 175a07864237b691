"""Model problems, interpolation, Galerkin coarsening, and normalization.

The model matrices and interpolations are those of the one assembler
(``_assemble``, which every :class:`SparseSpd` runs on its stencil) and of
``_interpolation``, which every hierarchy is built from; ``dense_oracle``
holds their textbook forms and the float64 sparse Galerkin product.
"""

import dataclasses
import math
import warnings

import numpy as np
import pytest
import scipy.sparse as sparse

import dense_oracle as oracle
from dense_oracle import poisson_1d, poisson_2d
from mixedmg import (
    GridLevel,
    SparseSpd,
    StructureError,
    build_multilevel,
    condition_number,
)
from mixedmg.fourier import symbol_ends
from mixedmg.harness import ConfigError, ExperimentConfig, run_experiment
from mixedmg.hierarchy import _MODEL_STENCILS, _galerkin_stencil, _interpolation
from mixedmg.linops import _assemble
from test_linops import spectral_norm

EPS = float(np.finfo(np.float64).eps)


def linear_interpolation(n):
    return _interpolation(1, n, 1.0)


class TestPoisson1d:
    def test_smallest_stencil(self):
        expected = np.array([[2.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 2.0]])
        assert np.array_equal(poisson_1d(3).matrix.toarray(), expected)

    def test_eigenvalues_closed_form(self):
        # 2 - 2 cos(k pi / 4) for k = 1, 2, 3
        w = oracle.eigenvalues(poisson_1d(3))
        expected = sorted(2.0 - 2.0 * math.cos(k * math.pi / 4) for k in (1, 2, 3))
        assert w == pytest.approx(expected, rel=1e-14)

    def test_row_sums(self):
        A = poisson_1d(9).matrix.toarray()
        sums = A.sum(axis=1)
        assert sums[0] == 1.0 and sums[-1] == 1.0
        assert np.all(sums[1:-1] == 0.0)

    def test_too_small_rejected(self):
        # a grid of fewer than three points has no coarse grid
        with pytest.raises(ValueError, match="size 1 cannot be coarsened 1 times"):
            build_multilevel(1, 2)


class TestPoisson2d:
    def test_diagonal_entries(self):
        assert np.all(poisson_2d(3).matrix.diagonal() == 4.0)

    def test_spd_by_construction(self):
        poisson_2d(5)  # the constructor certifies the lower end of the symbol

    def test_largest_eigenvalue_closed_form(self):
        # 2D Dirichlet eigenvalues: 4 - 2 cos(i pi/8) - 2 cos(j pi/8)
        A = poisson_2d(7)
        expected = 4.0 + 4.0 * math.cos(math.pi / 8.0)
        assert spectral_norm(A) == pytest.approx(expected, rel=1e-13)

    @pytest.mark.parametrize("k", [3, 4, 7, 31, 63, 127])
    def test_matches_kronecker_sum(self, k):
        # the direct build stores exactly the Kronecker sum's entries: a
        # stored zero would count in a row's nonzeros, and so in the bound
        assert_same_csr(poisson_2d(k).matrix, oracle.laplacian(2, k))
        assert poisson_2d(k).row_layout.m == 5


class TestLinearInterpolation:
    def test_single_coarse_point(self):
        P = linear_interpolation(3).toarray()
        assert np.array_equal(P, np.array([[0.5], [1.0], [0.5]]))

    def test_restriction_of_ones(self):
        P = linear_interpolation(15)
        assert np.all(P.T @ np.ones(15) == 2.0)

    def test_full_column_rank(self):
        assert np.linalg.matrix_rank(linear_interpolation(7).toarray()) == 3

    def test_row_and_column_counts(self):
        P = linear_interpolation(31)
        row_nnz = np.diff(P.indptr)
        col_nnz = np.diff(sparse.csc_array(P).indptr)
        assert row_nnz.max() == 2
        assert col_nnz.max() == 3

    @pytest.mark.parametrize("n", [3, 7, 255])
    def test_same_matrix_as_the_loop_over_coarse_points(self, n):
        # the vectorised triplets against one (1/2, 1, 1/2) column per coarse point
        rows, cols, vals = [], [], []
        for j in range((n - 1) // 2):
            rows.extend([2 * j, 2 * j + 1, 2 * j + 2])
            cols.extend([j, j, j])
            vals.extend([0.5, 1.0, 0.5])
        expected = sparse.csr_array(sparse.coo_array((vals, (rows, cols)),
                                                     shape=(n, (n - 1) // 2)))
        expected.sort_indices()
        P = linear_interpolation(n)
        for got, want in ((P.indptr, expected.indptr), (P.indices, expected.indices),
                          (P.data, expected.data)):
            assert got.dtype == want.dtype and np.array_equal(got, want)

    def test_even_size_rejected(self):
        with pytest.raises(ValueError):
            linear_interpolation(8)


class TestBilinearInterpolation:
    def test_shape_and_row_count(self):
        P = _interpolation(2, 7, 1.0)
        assert P.shape == (49, 9)
        assert np.diff(P.indptr).max() == 4

    @pytest.mark.parametrize("k", [3, 7, 31])
    @pytest.mark.parametrize("p", [1.0, 0.7])
    def test_same_arrays_as_the_kronecker_product(self, k, p):
        # the tensor-product rows against the Kronecker product of the 1D
        # interpolation, scaled after the product
        one_d = oracle.linear_interpolation(k)
        expected = sparse.csr_array(sparse.kron(one_d, one_d)) * p
        P = _interpolation(2, k, p)
        assert_same_csr(P, expected)


def assert_same_csr(got, want):
    """The same csr arrays bit for bit: data, indices and indptr (the index
    dtype is scipy's choice, not the operator's)."""
    assert got.shape == want.shape
    assert got.data.dtype == want.data.dtype and got.data.tobytes() == want.data.tobytes()
    assert np.array_equal(got.indices, want.indices)
    assert np.array_equal(got.indptr, want.indptr)


class TestAssemble:
    @pytest.mark.parametrize("d, k", [(1, 3), (1, 7), (1, 255), (2, 3), (2, 7), (2, 31)])
    def test_model_stencils_and_interpolations_are_the_textbook_forms(self, d, k):
        # the one assembler on each model stencil against its diags and
        # kron form, and the unit interpolation against the kron of columns
        problem = "poisson1d" if d == 1 else "poisson2d"
        assert_same_csr(_assemble(_MODEL_STENCILS[problem], k), oracle.laplacian(d, k))
        assert_same_csr(_interpolation(d, k, 1.0), oracle.interpolation(d, k))

    @pytest.mark.parametrize("d, k", [(1, 3), (1, 9), (2, 3), (2, 7)])
    def test_random_stencil_against_the_dense_rule(self, d, k):
        # entry (i, j) is c[|i - j|] wherever the points are at most one apart
        c = np.random.default_rng(k).uniform(-1.0, 1.0, (2,) * d)
        M = _assemble(c, k)
        pts = np.indices((k,) * d).reshape(d, -1)
        gap = np.abs(pts[:, :, None] - pts[:, None, :])
        dense = np.where((gap <= 1).all(axis=0), c[tuple(np.minimum(gap, 1))], 0.0)
        assert np.array_equal(M.toarray(), dense)
        assert M.has_sorted_indices and np.all(M.data != 0)


def _product(level, p):
    """The symmetrized float64 sparse product ``P' A P`` of ``level.A`` and
    ``p`` times the interpolation."""
    return oracle.galerkin(level.A, _interpolation(level.d, level.k, p))


class TestGalerkinStencil:
    @pytest.mark.parametrize("problem, size, grids", [
        *(("poisson1d", 2**j - 1, min(j, 6)) for j in range(3, 15)),
        *(("poisson2d", 2**j - 1, j) for j in range(3, 7))])
    def test_probe_equals_the_sparse_product(self, problem, size, grids):
        # every level's A_c, and the matrix of the Galerkin stencil of the
        # unscaled interpolation, against the float64 product, as matrices
        # and bit for bit, where the product is a stencil matrix: in 1D, and
        # at the first 2D coarsening
        levels = build_multilevel(size, grids, problem=problem)
        for level in levels if problem == "poisson1d" else levels[:1]:
            assert_same_csr(level.A_c.matrix, _product(level, level.p))
            unscaled = _galerkin_stencil(level.A.stencil, level.k, 1.0)
            assert_same_csr(_assemble(unscaled, level.A_c.k), _product(level, 1.0))

    @pytest.mark.parametrize("problem, size", [("poisson1d", 255), ("poisson2d", 31)])
    def test_coarse_matrix_is_the_product_bit_for_bit(self, problem, size):
        for level in build_multilevel(size, 3, problem=problem)[:1]:
            product = oracle.galerkin(level.A, level.P)
            for got, want in ((level.A_c.matrix.data, product.data),
                              (level.A_c.matrix.indices, product.indices),
                              (level.A_c.matrix.indptr, product.indptr)):
                assert np.array_equal(got, want)

    def test_build_forms_no_sparse_product(self, monkeypatch):
        # every product of two sparse arrays, csr or csc, runs through this
        # method; a Galerkin product P' A P would make two calls
        def refuse(*args):
            raise AssertionError("a sparse matrix product was formed")

        monkeypatch.setattr(sparse.csr_array, "_matmul_sparse", refuse)
        monkeypatch.setattr(sparse.csc_array, "_matmul_sparse", refuse)
        build_multilevel(255, 4)
        build_multilevel(31, 4, problem="poisson2d")
        # the patch catches the product the build would form
        A, P = build_multilevel(15, 2)[0].A.matrix, _interpolation(1, 15, 1.0)
        with pytest.raises(AssertionError, match="sparse matrix product"):
            oracle.galerkin(A, P)

    @pytest.mark.parametrize("size, grids", [(31, 4), (63, 5), (127, 3)])
    def test_deep_2d_recursive_sweeps_pass(self, size, grids):
        # their Galerkin products below the second grid are no stencil
        # matrices, which the set-up used to refuse
        records = run_experiment(ExperimentConfig(
            problem="poisson2d", size=size, levels=grids, coarse="recursive",
            trials=3))
        assert len(records) == 12 and all(r.passed for r in records)


class TestGalerkinCoarse:
    """The float64 sparse product of the test oracle, the reference of every
    Galerkin stencil."""

    def test_identity_prolongation(self):
        A = poisson_1d(5)
        assert np.array_equal(oracle.galerkin(A, sparse.eye_array(5)).toarray(),
                              A.matrix.toarray())

    def test_single_point_by_hand(self):
        # P' A P for the (1/2, 1, 1/2) column on the n=3 stiffness matrix is 1
        A_c = oracle.galerkin(poisson_1d(3), linear_interpolation(3))
        assert A_c.toarray() == pytest.approx(np.array([[1.0]]), rel=1e-15)

    def test_symmetric_for_random_inputs(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((10, 10))
        A = X @ X.T + 10 * np.eye(10)
        P = sparse.csr_array(rng.standard_normal((10, 4)))
        dense = oracle.galerkin(A, P).toarray()
        assert np.array_equal(dense, dense.T)

    def test_product_below_the_first_2d_coarsening_is_no_stencil_matrix(self):
        # the float64 product of a 9-point operator need not be a stencil
        # matrix: at level 2 its (1, 1) and (1, -1) couplings differ, where a
        # stencil has one value for both; the hierarchy builds that level's
        # A_c in stencil space
        level = build_multilevel(31, 4, problem="poisson2d")[2]
        product = oracle.galerkin(level.A, level.P).toarray()
        # the centre point of the 3x3 coarse grid and its diagonal neighbours
        assert product[4, 8] != product[4, 6]
        assert level.A_c.n == 9

    def test_galerkin_quadratic_form_identity(self, level31):
        # <A_c w, w> = <A P w, P w> with the stored rescaled prolongation
        rng = np.random.default_rng(1)
        for _ in range(25):
            w = rng.standard_normal(level31.n_c)
            lhs = float(w @ (level31.A_c.matrix @ w))
            pw = level31.P @ w
            rhs = float(pw @ (level31.A.matrix @ pw))
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-14)


class TestNormalizeHierarchy:
    """The normalized levels of ``build_multilevel`` and the structure checks
    behind them, each made where its operator is: ``A`` when its
    ``SparseSpd`` is made, the grid pair and ``p`` when the ``GridLevel`` is."""

    def test_identity_like_input(self):
        # 2I is a stencil matrix, but a grid of 4 points is no (bi)linear
        # coarsening of another of 4
        A = SparseSpd([2.0, 0.0], 4)
        with pytest.raises(StructureError, match="^A_c, on 4 points per axis in 1D, is not"):
            GridLevel(A, 1.0, A)

    @pytest.mark.parametrize("A, p, A_c, match", [
        pytest.param(poisson_1d(7), 1.0, poisson_2d(3), "in 2D, is not", id="dimensions"),
        pytest.param(poisson_1d(7), 1.0, poisson_1d(2), "on 2 points per axis", id="coarse-k"),
        pytest.param(poisson_1d(8), 1.0, poisson_1d(3), "grid of 8 points", id="even-k"),
        pytest.param(poisson_1d(1), 1.0, poisson_1d(1), "grid of 1 points", id="one-point-k"),
        pytest.param(poisson_1d(7), 0.0, poisson_1d(3), "got 0.0$", id="p-zero"),
        pytest.param(poisson_1d(7), np.inf, poisson_1d(3), "got inf$", id="p-inf"),
        pytest.param(poisson_1d(7), np.nan, poisson_1d(3), "got nan$", id="p-nan"),
    ])
    def test_grid_level_refuses(self, A, p, A_c, match):
        with pytest.raises(StructureError, match=match):
            GridLevel(A, p, A_c)

    def test_random_spd_matrix_is_named(self):
        # a matrix given for a stencil is refused, naming its shape
        X = np.random.default_rng(0).standard_normal((7, 7))
        with pytest.raises(ValueError, match=r"got \(7, 7\)$"):
            SparseSpd(X @ X.T + 7 * np.eye(7), 7)

    def test_unit_norms(self, level31):
        assert abs(spectral_norm(level31.A) - 1.0) <= 10 * EPS
        assert abs(spectral_norm(level31.A_c) - 1.0) <= 10 * EPS

    def test_unit_norms_2d(self):
        lvl = build_multilevel(7, 2, problem="poisson2d")[0]
        assert abs(spectral_norm(lvl.A) - 1.0) <= 10 * EPS
        assert abs(spectral_norm(lvl.A_c) - 1.0) <= 10 * EPS

    def test_scaling_preserves_condition_number(self):
        A = poisson_1d(7)
        kappa_raw = condition_number(A)
        lvl = build_multilevel(7, 2)[0]
        assert lvl.kappa == pytest.approx(kappa_raw, rel=1e-12)

    def test_structural_constants(self, level31):
        assert level31.A.row_layout.m == 3
        assert level31.P_layout.m == 2
        assert level31.kappa > level31.kappa_c > 1.0

    def test_xi_at_most_one(self):
        # the conditioning ratio xi = sqrt(kappa_c / kappa) of the bounds
        for n in (15, 31, 63):
            lvl = build_multilevel(n, 2)[0]
            assert math.sqrt(lvl.kappa_c / lvl.kappa) <= 1.0 + 1e-12
        lvl2d = build_multilevel(7, 2, problem="poisson2d")[0]
        assert math.sqrt(lvl2d.kappa_c / lvl2d.kappa) <= 1.0 + 1e-12


class TestBuildMultilevel:
    def test_single_grid_rejected(self):
        with pytest.raises(ValueError):
            build_multilevel(7, 1)

    def test_two_levels_sizes(self):
        levels = build_multilevel(7, 2)
        assert [(l.n, l.n_c) for l in levels] == [(7, 3)]

    @pytest.mark.parametrize("grids", [2, 3, 4])
    def test_one_level_per_fine_coarse_pair(self, grids):
        levels = build_multilevel(31, grids)
        assert len(levels) == grids - 1
        assert [l.n for l in levels] == [31, 15, 7][:grids - 1]

    def test_chain_shares_matrices(self):
        levels = build_multilevel(31, 4)
        for fine, coarse in zip(levels, levels[1:]):
            assert fine.A_c is coarse.A

    def test_kappa_decreases_with_level(self):
        levels = build_multilevel(31, 3)
        kappas = [l.kappa for l in levels] + [levels[-1].kappa_c]
        assert kappas[0] > kappas[1] > kappas[2]
        for fine, coarse in zip(levels, levels[1:]):
            assert fine.kappa_c == coarse.kappa

    def test_one_abs_norm_per_matrix(self, monkeypatch):
        # eta_A and eta_P are derived on first read: one symbol of |c| and
        # one interpolation norm per level read, however often, and none for
        # the level never read
        from mixedmg import hierarchy

        levels = build_multilevel(31, 4)
        calls = []
        for name in ("symbol_ends", "interpolation_norm"):
            fn = getattr(hierarchy, name)
            monkeypatch.setattr(hierarchy, name, lambda *args, fn=fn, name=name: (
                calls.append(name), fn(*args))[1])
        for _ in range(2):
            for level in levels[:2]:
                assert level.eta_A > 0 and level.eta_P > 0
        assert calls == ["symbol_ends", "interpolation_norm"] * 2

    @pytest.mark.parametrize("problem", ["poisson1d", "poisson2d"])
    @pytest.mark.parametrize("operator", ["P", "P_t"])
    @pytest.mark.parametrize("array", ["data", "indices", "indptr"])
    def test_interpolation_edit_raises(self, problem, operator, array):
        # an edit would change the carrier's P z and P' z but not the kept
        # P_layout and P_t_layout the rounded kernels read
        level = build_multilevel(15, 2, problem=problem)[0]
        with pytest.raises(ValueError, match="read-only"):
            getattr(getattr(level, operator), array)[0] = 2

    def test_constants_follow_the_operators(self, level31):
        # a level made from another by replacing A derives its constants
        # from the new A: twice the stencil, twice eta_A, the same kappa
        doubled = dataclasses.replace(level31, A=SparseSpd(2 * level31.A.stencil, level31.k))
        assert doubled.eta_A == 2 * level31.eta_A
        assert doubled.kappa == level31.kappa
        assert [f.name for f in dataclasses.fields(GridLevel)] == ["A", "p", "A_c"]

    @pytest.mark.parametrize("problem, size", [("poisson1d", 63), ("poisson2d", 15)])
    def test_kept_ends_equal_fresh_ends(self, problem, size):
        # every SparseSpd keeps the ends of its stencil symbol, and a level
        # its eta_A; evaluated afresh from the stencil they have the same bits
        for level in build_multilevel(size, 3, problem=problem):
            for A in (level.A, level.A_c):
                fresh = symbol_ends(A.stencil, A.k)
                assert [x.hex() for x in A.spectrum_ends] == [x.hex() for x in fresh]
            fresh = symbol_ends(np.abs(level.A.stencil), level.k)[1]
            assert level.eta_A.hex() == fresh.hex()

    def test_uncoarsenable_size_rejected(self):
        with pytest.raises(ValueError):
            build_multilevel(12, 2)
        with pytest.raises(ValueError):
            build_multilevel(7, 4)

    @pytest.mark.parametrize("size", [-5, -1, 0, 2, 6])
    def test_bad_size_is_a_config_error_naming_it(self, size):
        # checked in integers: no float log2 to warn, overflow or give NaN
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match=f"size {size} cannot|got {size}$"):
                ExperimentConfig(size=size)

    def test_numpy_integer_size_accepted(self):
        assert ExperimentConfig(size=np.int64(255)).size == 255
