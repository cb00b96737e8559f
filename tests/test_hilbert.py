import json
import math

import numpy as np
import pytest

from catalyx import hilbert as hl
from catalyx.hilbert import (
    DensityOperator,
    StateVector,
    SubsystemLayout,
    UnitaryOperator,
    canonical_operators,
    eigenspace_decompose,
    haar_unitary,
    maximally_mixed,
    partial_trace,
    partial_transpose,
    purify,
    random_density,
    tensor,
    trace_distance,
)

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Z = np.diag([1.0, -1.0]).astype(complex)
CNOT = np.eye(4)[:, [0, 1, 3, 2]].astype(complex)


def bell_state():
    return StateVector(np.array([1, 0, 0, 1]) / np.sqrt(2), [2, 2])


# ---------------------------------------------------------------------------
# layouts and value types


def test_layout_rejects_bad_dims():
    with pytest.raises(ValueError):
        SubsystemLayout([2, 0])
    with pytest.raises(ValueError):
        SubsystemLayout([])


def test_layout_index_checks():
    lay = SubsystemLayout([2, 3])
    assert lay.total_dim == 6
    with pytest.raises(ValueError):
        lay.check_indices([2])
    with pytest.raises(ValueError):
        lay.check_indices([0, 0])


def test_density_operator_validation():
    with pytest.raises(ValueError):
        DensityOperator(np.array([[1, 1], [0, 0]]), [2])  # not Hermitian
    with pytest.raises(ValueError):
        DensityOperator(np.diag([0.9, 0.3]), [2])  # trace != 1
    with pytest.raises(ValueError):
        DensityOperator(np.diag([1.5, -0.5]), [2])  # negative eigenvalue
    with pytest.raises(ValueError):
        DensityOperator(np.eye(2) / 2, [3])  # layout mismatch


def test_unitary_validation():
    with pytest.raises(ValueError):
        UnitaryOperator(np.array([[1, 0], [1, 1]]), [2])
    with pytest.raises(ValueError):
        StateVector([1.0, 1.0], [2])  # norm too far off


# ---------------------------------------------------------------------------
# tensor, partial trace, partial transpose


def test_tensor_identity_case():
    a = UnitaryOperator(np.eye(2), [2])
    b = UnitaryOperator(np.eye(3), [3])
    t = tensor(a, b)
    assert t.layout.dims == (2, 3)
    assert np.allclose(t.matrix, np.eye(6))


def test_tensor_basis_bookkeeping():
    v = tensor(hl.basis_state(2, 0), hl.basis_state(2, 1))
    assert v.layout.dims == (2, 2)
    assert np.argmax(np.abs(v.amplitudes)) == 1


def test_tensor_flip_both_qubits():
    xx = tensor(UnitaryOperator(PAULI_X, [2]), UnitaryOperator(PAULI_X, [2]))
    v00 = tensor(hl.basis_state(2, 0), hl.basis_state(2, 0))
    out = xx.matrix @ v00.amplitudes
    expected = tensor(hl.basis_state(2, 1), hl.basis_state(2, 1)).amplitudes
    assert np.allclose(out, expected)


def test_tensor_type_errors():
    with pytest.raises(TypeError):
        tensor(hl.basis_state(2, 0), maximally_mixed([2]))


def test_partial_trace_product_state():
    rho = random_density([2], 2, 0)
    sig = random_density([3], 3, 1)
    joint = tensor(rho, sig)
    assert trace_distance(partial_trace(joint, [0]), rho) < 1e-12
    assert trace_distance(partial_trace(joint, [1]), sig) < 1e-12


def test_partial_trace_bell():
    rho = partial_trace(bell_state().density(), [0])
    assert np.allclose(rho.matrix, np.eye(2) / 2)


def test_partial_trace_cnot_example():
    # Tr_A of CNOT (rho x 1/2) CNOT is maximally mixed for any rho
    u = CNOT
    for seed in range(4):
        rho = random_density([2], 2, seed)
        full = u @ np.kron(rho.matrix, np.eye(2) / 2) @ u.conj().T
        out = hl.ptrace_matrix(full, [2, 2], [1])
        assert np.allclose(out, np.eye(2) / 2, atol=1e-12)


def test_partial_trace_preserves_trace():
    rho = random_density([2, 3, 2], 7, 3)
    for keep in ([0], [1], [0, 2], [0, 1, 2]):
        out = partial_trace(rho, keep)
        assert abs(np.trace(out.matrix) - 1) < 1e-12


def test_partial_trace_bad_index():
    with pytest.raises(ValueError):
        partial_trace(maximally_mixed([2, 2]), [5])


def test_partial_transpose_identity():
    u = UnitaryOperator(np.eye(4), [2, 2])
    assert np.allclose(partial_transpose(u, [0]), np.eye(4))


def test_partial_transpose_swap_gives_entangled_dyad():
    f = canonical_operators(2).swap
    pt = partial_transpose(f, [0])
    gamma = np.array([1, 0, 0, 1], dtype=complex)
    assert np.allclose(pt, np.outer(gamma, gamma))
    assert np.linalg.matrix_rank(pt) == 1


def test_partial_transpose_cnot_invariant():
    u = UnitaryOperator(CNOT, [2, 2])
    assert np.allclose(partial_transpose(u, [0]), CNOT)


def test_partial_transpose_involution():
    rng = np.random.default_rng(5)
    for dims in ([2, 2], [2, 3], [3, 2, 2]):
        d = int(np.prod(dims))
        m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        for sub in range(len(dims)):
            once = hl.ptranspose_matrix(m, dims, [sub])
            twice = hl.ptranspose_matrix(once, dims, [sub])
            assert np.allclose(twice, m)


def test_partial_transpose_bad_index():
    with pytest.raises(ValueError):
        partial_transpose(maximally_mixed([2, 2]), [3])


# ---------------------------------------------------------------------------
# spectral analysis


def test_eigenspace_decompose_examples():
    dec = eigenspace_decompose(DensityOperator(np.diag([0.5, 0.25, 0.25]), [3]))
    assert dec.eigenvalues == pytest.approx([0.5, 0.25])
    assert dec.multiplicities == (1, 2)

    dec = eigenspace_decompose(maximally_mixed([4]))
    assert dec.eigenvalues == pytest.approx([0.25])
    assert dec.multiplicities == (4,)

    dec = eigenspace_decompose(hl.haar_state(5, 3).density())
    assert dec.multiplicities == (1,)
    assert dec.eigenvalues == pytest.approx([1.0])


def test_eigenspace_reconstruction():
    for seed in range(5):
        rho = random_density([2, 3], 4, seed)
        dec = eigenspace_decompose(rho)
        rebuilt = sum(v * b @ b.conj().T for v, b in zip(dec.eigenvalues, dec.bases))
        assert np.linalg.norm(rebuilt - rho.matrix) < 1e-9


def test_eigenspace_grouping_merges_close_values():
    eps = 1e-12
    rho = DensityOperator(np.diag([0.5 + eps, 0.5 - eps, 0.0, 0.0]), [4])
    dec = eigenspace_decompose(rho)
    # zero eigenvalues are dropped: one basis of two vectors in dimension 4
    assert dec.multiplicities == (2,)
    assert dec.bases[0].shape == (4, 2)


def test_eigenspace_projector_orthogonality():
    rho = DensityOperator(np.diag([0.4, 0.3, 0.2, 0.1]), [4])
    dec = eigenspace_decompose(rho)
    projectors = [b @ b.conj().T for b in dec.bases]
    for i, p in enumerate(projectors):
        for j, q in enumerate(projectors):
            target = p if i == j else np.zeros_like(p)
            assert np.linalg.norm(p @ q - target) < 1e-9


def test_purify_examples():
    v = purify(hl.basis_state(2, 0).density())
    assert abs(abs(v.amplitudes[0]) - 1) < 1e-12

    v = purify(maximally_mixed([2]))
    assert np.allclose(np.abs(v.amplitudes), np.abs(bell_state().amplitudes))

    v = purify(DensityOperator(np.diag([0.5, 0.25, 0.25]), [3]))
    expected = np.zeros(9)
    expected[0] = np.sqrt(0.5)
    expected[4] = np.sqrt(0.25)
    expected[8] = np.sqrt(0.25)
    assert np.allclose(v.amplitudes, expected)


def test_purify_roundtrip_random():
    for seed in range(5):
        rho = random_density([3], 3, seed)
        v = purify(rho)
        back = partial_trace(v.density(), [0])
        assert trace_distance(back, rho) < 1e-9


# ---------------------------------------------------------------------------
# canonical operators


def test_canonical_operators_qubit():
    ops = canonical_operators(2)
    assert np.allclose(ops.clock.matrix, PAULI_Z)
    assert np.allclose(ops.shift.matrix, PAULI_X)
    assert np.allclose(
        ops.fourier.matrix, np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    )


def test_clock_order_three():
    z = canonical_operators(3).clock.matrix
    assert np.linalg.norm(np.linalg.matrix_power(z, 3) - np.eye(3)) < 1e-12


def test_weyl_orthogonality():
    for d in (2, 3, 4):
        z, x = hl.clock_matrix(d), hl.shift_matrix(d)
        for a in range(d):
            for b in range(d):
                tr = np.trace(np.linalg.matrix_power(z, a) @ np.linalg.matrix_power(x, b))
                expected = d if (a % d == 0 and b % d == 0) else 0.0
                assert abs(tr - expected) < 1e-10


def test_swap_action():
    f = canonical_operators(3).swap.matrix
    v = np.kron(hl.basis_state(3, 1).amplitudes, hl.basis_state(3, 2).amplitudes)
    w = np.kron(hl.basis_state(3, 2).amplitudes, hl.basis_state(3, 1).amplitudes)
    assert np.allclose(f @ v, w)


@pytest.mark.parametrize("d", range(1, 8))
def test_basis_permutations_match_their_loops(d):
    # loop references: X|k> = |k+1 mod d>, F|i, j> = |j, i>
    x = np.zeros((d, d), dtype=complex)
    f = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        x[(i + 1) % d, i] = 1.0
        for j in range(d):
            f[j * d + i, i * d + j] = 1.0
    assert np.array_equal(hl.shift_matrix(d), x)
    assert np.array_equal(hl.swap_matrix(d), f)


def test_basis_permutation_rejects_a_non_bijection():
    with pytest.raises(ValueError, match="not a permutation"):
        hl.basis_permutation([2, 3], lambda i, j: (i, 0 * j))


@pytest.mark.parametrize("d", range(2, 6))
def test_controlled_weyl_set_is_the_two_controlled_stages(d):
    # on (input, a, b): Z^b controlled on b, then X^a controlled on a
    z, x = hl.clock_matrix(d), hl.shift_matrix(d)
    stage1 = hl.controlled([np.linalg.matrix_power(z, k) for k in range(d)])
    stage2 = hl.controlled([np.linalg.matrix_power(x, k) for k in range(d)])
    dims = [d, d, d]
    two = hl.embed_operator(stage2, dims, [0, 1]) @ hl.embed_operator(stage1, dims, [0, 2])
    assert np.array_equal(hl.controlled(hl.weyl_set(d)), two)


# ---------------------------------------------------------------------------
# sampling


def test_haar_unitary_one_dimensional():
    u = haar_unitary(1, 42)
    assert abs(abs(u.matrix[0, 0]) - 1) < 1e-12


def test_haar_unitary_deterministic():
    a = haar_unitary(6, 123).matrix
    b = haar_unitary(6, 123).matrix
    assert np.array_equal(a, b)
    c = haar_unitary(6, 124).matrix
    assert not np.allclose(a, c)


def test_haar_unitary_defect():
    for d in (2, 5, 16, 60):
        assert hl.unitarity_defect(haar_unitary(d, d).matrix) <= 1e-10


def test_haar_moment():
    rng = np.random.default_rng(7)
    n = 10_000
    acc = 0.0
    for _ in range(n):
        acc += abs(hl.haar_unitary_matrix(4, rng)[0, 0]) ** 2
    assert abs(acc / n - 0.25) < 0.02


def test_random_density_rank_and_weights():
    rho = random_density([4], 1, 9)
    vals = rho.eigenvalues()
    assert vals[0] == pytest.approx(1.0)

    rho = random_density([4], 4, 9)
    assert np.count_nonzero(rho.eigenvalues() > 1e-12) == 4


def test_random_density_determinism_and_range():
    a = random_density([3], 2, 5).matrix
    b = random_density([3], 2, 5).matrix
    assert np.array_equal(a, b)
    with pytest.raises(ValueError):
        random_density([3], 4, 0)
    with pytest.raises(ValueError):
        random_density([3], 0, 0)


# ---------------------------------------------------------------------------
# JSON interchange


def test_operator_payload_roundtrip(tmp_path):
    u = haar_unitary(4, 3, layout=[2, 2])
    path = str(tmp_path / "op.json")
    hl.save_json(path, hl.operator_to_payload(u))
    m, layout = hl.payload_to_matrix(hl.load_json(path))
    assert layout.dims == (2, 2)
    assert np.allclose(m, u.matrix)


def test_state_payload_roundtrip(tmp_path):
    v = hl.haar_state(6, 1, layout=[2, 3])
    path = str(tmp_path / "state.json")
    hl.save_json(path, hl.state_to_payload(v))
    back = hl.payload_to_state(hl.load_json(path))
    assert back.layout.dims == (2, 3)
    assert np.allclose(back.amplitudes, v.amplitudes)


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_save_json_refuses_non_json_floats(tmp_path, value):
    path = tmp_path / "bad.json"
    with pytest.raises(ValueError, match="not JSON compliant"):
        hl.save_json(str(path), {"x": [1.0, value]})
    assert not path.exists()


def test_payload_rejects_nonsquare():
    with pytest.raises(ValueError):
        hl.payload_to_matrix({"dims": [2], "re": [[1, 0]], "im": [[0, 0]]})


def test_payload_rejects_dims_mismatch():
    payload = {"dims": [3], "re": np.eye(2).tolist(), "im": np.zeros((2, 2)).tolist()}
    with pytest.raises(ValueError):
        hl.payload_to_matrix(payload)


def test_payload_rejects_missing_keys():
    with pytest.raises(ValueError):
        hl.payload_to_matrix({"dims": [2], "re": np.eye(2).tolist()})
    with pytest.raises(ValueError):
        hl.payload_to_state({"dims": [2], "amps_re": [1, 0]})


def test_embed_operator_matches_kron():
    x = PAULI_X
    full = hl.embed_operator(x, [2, 3, 2], [2])
    assert np.allclose(full, np.kron(np.eye(6), x))
    mid = hl.embed_operator(x, [2, 2, 2], [1])
    assert np.allclose(mid, np.kron(np.kron(np.eye(2), x), np.eye(2)))
