import numpy as np
import numpy.linalg as nla
import pytest

from ddsls.blockops import (
    CostWeights,
    LtvOperator,
    block_diag,
    block_downshift,
    matrix_rank,
    obs_stack,
    psd_sqrt,
    spectral_norm,
    toeplitz_stack,
)
from tests.conftest import A_BENCH, T_BENCH, L_BENCH


class TestBlockDownshift:
    def test_single_block_is_zero(self):
        assert np.array_equal(block_downshift(1, 3), np.zeros((3, 3)))

    def test_two_by_two_scalar(self):
        assert np.array_equal(block_downshift(2, 1), np.array([[0.0, 0.0], [1.0, 0.0]]))

    def test_nilpotent_of_index_L(self):
        Z = block_downshift(5, 2)
        assert np.abs(nla.matrix_power(Z, 4)).max() > 0
        assert np.array_equal(nla.matrix_power(Z, 5), np.zeros_like(Z))

    def test_shifts_block_rows_down(self):
        Z = block_downshift(3, 2)
        v = np.arange(6.0)
        shifted = Z @ v
        assert np.array_equal(shifted, np.array([0.0, 0.0, 0.0, 1.0, 2.0, 3.0]))


class TestObsStack:
    def test_zero_matrix(self):
        O = obs_stack(np.zeros((2, 2)), 3)
        np.testing.assert_array_equal(O[:2], np.eye(2))
        np.testing.assert_array_equal(O[2:], np.zeros((4, 2)))
        assert spectral_norm(O) == pytest.approx(1.0)

    def test_identity_scalar(self):
        O = obs_stack(np.eye(1), 4)
        np.testing.assert_array_equal(O, np.ones((4, 1)))
        assert spectral_norm(O) == pytest.approx(2.0)

    def test_bench_system_norm_exceeds_one(self):
        # A is slightly unstable so the power stack amplifies.
        O = obs_stack(A_BENCH, L_BENCH)
        rows = [nla.matrix_power(A_BENCH, k) for k in range(L_BENCH)]
        np.testing.assert_allclose(O, np.vstack(rows), atol=1e-14)
        assert spectral_norm(O) > 1.0


class TestToeplitzStack:
    def test_order_one_is_zero(self):
        assert np.array_equal(toeplitz_stack(A_BENCH, np.eye(3), 1), np.zeros((3, 3)))

    def test_zero_A_identity_X(self):
        Tm = toeplitz_stack(np.zeros((2, 2)), np.eye(2), 3)
        np.testing.assert_array_equal(Tm, block_downshift(3, 2))
        assert spectral_norm(Tm) == pytest.approx(1.0)

    def test_blocks_follow_power_pattern(self):
        rng = np.random.default_rng(0)
        A = rng.standard_normal((3, 3))
        X = rng.standard_normal((3, 2))
        L = 5
        Tm = toeplitz_stack(A, X, L)
        for i in range(L):
            for j in range(L):
                blk = Tm[i * 3 : (i + 1) * 3, j * 2 : (j + 1) * 2]
                if i > j:
                    np.testing.assert_allclose(
                        blk, nla.matrix_power(A, i - j - 1) @ X, atol=1e-12
                    )
                else:
                    np.testing.assert_array_equal(blk, np.zeros((3, 2)))

    def test_bench_norm_is_finite_positive(self):
        Tm = toeplitz_stack(A_BENCH, np.eye(3), T_BENCH - L_BENCH + 1)
        norm = spectral_norm(Tm)
        assert np.isfinite(norm) and norm > 1.0

    def test_downshift_commutes_with_block_shift(self):
        rng = np.random.default_rng(1)
        for L in (2, 4, 6):
            A = rng.standard_normal((2, 2))
            X = rng.standard_normal((2, 2))
            Tm = toeplitz_stack(A, X, L)
            Z = block_downshift(L, 2)
            shifted = np.zeros_like(Tm)
            shifted[2:] = Tm[:-2]
            np.testing.assert_allclose(Z @ Tm, shifted, atol=1e-13)


class TestNormsAndRank:
    def test_kron_spectral_norm_multiplies(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            A = rng.standard_normal((3, 2))
            B = rng.standard_normal((2, 4))
            assert spectral_norm(np.kron(A, B)) == pytest.approx(
                spectral_norm(A) * spectral_norm(B), rel=1e-10
            )

    def test_matrix_rank_threshold(self):
        M = np.diag([1.0, 1e-3, 0.0])
        assert matrix_rank(M) == 2
        assert matrix_rank(np.zeros((4, 2))) == 0

    def test_psd_sqrt_squares_back(self):
        rng = np.random.default_rng(3)
        B = rng.standard_normal((4, 4))
        M = B @ B.T
        R = psd_sqrt(M)
        np.testing.assert_allclose(R @ R, M, atol=1e-10)

    def test_psd_sqrt_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            psd_sqrt(np.array([[1.0, 2.0], [0.0, 1.0]]))


class TestLtvOperator:
    def test_unit_lower_inverse_is_causal_with_identity_diagonal(self):
        rng = np.random.default_rng(4)
        L, n = 5, 2
        dense = np.eye(n * L)
        for i in range(L):
            for j in range(i):
                dense[i * n : (i + 1) * n, j * n : (j + 1) * n] = rng.standard_normal((n, n))
        op = LtvOperator(L, n, n, dense)
        assert op.is_causal(0.0)
        inv = np.linalg.inv(dense)
        inv_op = LtvOperator(L, n, n, inv)
        assert inv_op.is_causal(1e-12)
        for i in range(L):
            np.testing.assert_allclose(inv_op.block(i, i), np.eye(n), atol=1e-12)

    def test_block_diagonal_constructor(self):
        blocks = [np.full((2, 3), float(k)) for k in range(3)]
        op = LtvOperator.from_block_diagonal(blocks)
        assert op.dense.shape == (6, 9)
        assert op.is_causal(0.0)
        np.testing.assert_array_equal(op.block(1, 1), blocks[1])
        np.testing.assert_array_equal(op.block(0, 1), np.zeros((2, 3)))

    @pytest.mark.parametrize(
        "shapes",
        [[(2, 3), (4, 1), (1, 5)], [(3, 2)], [(1, 1)], [(1, 1), (1, 1), (1, 1)]],
        ids=["non-square", "single", "1x1", "1x1-stack"],
    )
    def test_block_diag_matches_scipy(self, shapes):
        import scipy.linalg

        rng = np.random.default_rng(5)
        blocks = [rng.standard_normal(shape) for shape in shapes]
        expected = scipy.linalg.block_diag(*blocks)
        out = block_diag(blocks)
        assert (out.shape, out.dtype) == (expected.shape, expected.dtype)
        assert out.tobytes() == expected.tobytes()

    def test_strict_causality_flags(self):
        Z = block_downshift(3, 2)
        op = LtvOperator(3, 2, 2, Z)
        assert op.is_strictly_causal(0.0)
        assert not LtvOperator(3, 2, 2, np.eye(6)).is_strictly_causal(0.0)

    @pytest.mark.parametrize("strict", [False, True], ids=["causal", "strictly-causal"])
    def test_tolerance_boundary_at_every_entry(self, strict):
        # An entry of absolute value tol passes, the next float above fails,
        # at every entry above the diagonal (causal) or on it (strictly causal).
        L, p, q, tol = 3, 2, 3, 1e-6
        rng = np.random.default_rng(6)
        base = np.kron(np.tri(L, k=-1), np.ones((p, q))) * rng.standard_normal((p * L, q * L))
        check = LtvOperator.is_strictly_causal if strict else LtvOperator.is_causal
        blocks = [(i, i) for i in range(L)] if strict else list(zip(*np.triu_indices(L, 1)))
        for i, j in blocks:
            for r in range(p):
                for c in range(q):
                    sign = (-1.0) ** (r + c)
                    for value, expected in ((tol, True), (np.nextafter(tol, np.inf), False)):
                        dense = base.copy()
                        dense[i * p + r, j * q + c] = sign * value
                        assert check(LtvOperator(L, p, q, dense), tol) is expected

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            LtvOperator(2, 2, 2, np.zeros((3, 4)))

    def test_block_diagonal_of_no_blocks_rejected(self):
        with pytest.raises(ValueError, match="^blocks must hold"):
            LtvOperator.from_block_diagonal([])


class TestCostWeights:
    def test_lifted_blocks(self):
        # State roots on the first L-1 blocks, the terminal root on the last,
        # input roots on every input block, zero elsewhere.
        Q = 2.0 * np.eye(2)
        R = 3.0 * np.eye(1)
        QF = 5.0 * np.eye(2)
        w = CostWeights(q_state=Q, r_input=R, q_terminal=QF, horizon=3)
        qh, rh, qfh = psd_sqrt(Q), psd_sqrt(R), psd_sqrt(QF)
        np.testing.assert_array_equal(w.weight_sqrt(), block_diag([qh, qh, qfh, rh, rh, rh]))

    def test_weight_sqrt_squares_to_lifted(self):
        rng = np.random.default_rng(5)
        B = rng.standard_normal((2, 2))
        Q = B @ B.T
        w = CostWeights(q_state=Q, r_input=np.eye(1), q_terminal=2 * Q, horizon=4)
        W = w.weight_sqrt()
        lifted = block_diag([Q, Q, Q, 2 * Q] + [np.eye(1)] * 4)
        np.testing.assert_allclose(W @ W, lifted, atol=1e-10)

    def test_rejects_indefinite_r(self):
        with pytest.raises(ValueError):
            CostWeights(
                q_state=np.eye(2),
                r_input=np.diag([1.0, -0.1]),
                q_terminal=np.eye(2),
                horizon=2,
            )

    def test_root_is_built_once_and_read_only(self):
        w = CostWeights(q_state=np.eye(2), r_input=np.eye(1), q_terminal=2 * np.eye(2), horizon=3)
        W = w.weight_sqrt()
        assert W is w.weight_sqrt() and not W.flags.writeable

    def test_semidefiniteness_is_relative_to_the_largest_eigenvalue(self):
        # An eigenvalue of -5e-9 is rounding beside 1e3: accepted, and its root is zero.
        w = CostWeights(q_state=np.diag([1e3, 1.0, -5e-9]), r_input=np.eye(1), q_terminal=np.eye(3), horizon=2)
        np.testing.assert_array_equal(np.diag(w.weight_sqrt())[:3], [np.sqrt(1e3), 1.0, 0.0])
        with pytest.raises(ValueError, match="q_state must be positive semidefinite"):
            CostWeights(q_state=np.diag([1.0, 1.0, -5e-9]), r_input=np.eye(1), q_terminal=np.eye(3), horizon=2)

    def test_semidefiniteness_holds_below_unit_scale(self, bench_weights):
        # A negative direction as large as the positive one is no rounding,
        # however small the weight.
        with pytest.raises(ValueError, match="q_state must be positive semidefinite"):
            CostWeights(q_state=1e-11 * np.diag([1.0, -1.0]), r_input=np.eye(1), q_terminal=np.eye(2), horizon=2)
        # The reference weights, Q = 1e-3 I and the DARE terminal weight, pass.
        for M in (bench_weights.q_state, bench_weights.q_terminal):
            np.testing.assert_allclose(psd_sqrt(M) @ psd_sqrt(M), M, rtol=0, atol=1e-12 * np.abs(M).max())
