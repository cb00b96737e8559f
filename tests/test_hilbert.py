import json
import math
import re

import numpy as np
import pytest
from util import embed_operator

from catalyx import constructions, scenarios
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
    two = embed_operator(stage2, dims, [0, 1]) @ embed_operator(stage1, dims, [0, 2])
    assert np.array_equal(hl.controlled(hl.weyl_set(d)), two)


def test_weyl_set_is_built_once_per_dimension_and_read_only():
    first = hl.weyl_set(3)
    assert isinstance(first, tuple) and len(first) == 9
    assert hl.weyl_set(3) is first
    for w in first:
        assert not w.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            w[0, 0] = 0


def _same_bits(a, b):
    return (np.array_equal(a, b)
            and np.array_equal(np.signbit(a.real), np.signbit(b.real))
            and np.array_equal(np.signbit(a.imag), np.signbit(b.imag)))


@pytest.mark.parametrize("d", range(1, 9))
def test_weyl_set_keeps_the_bits_of_fresh_clock_and_shift_powers(d):
    x, z = hl.shift_matrix(d), hl.clock_matrix(d)
    fresh = [np.linalg.matrix_power(x, a) @ np.linalg.matrix_power(z, b)
             for a in range(d) for b in range(d)]
    kept = hl.weyl_set(d)
    assert len(kept) == d * d
    for w, want in zip(kept, fresh):
        assert _same_bits(w, want)


@pytest.mark.parametrize("build", [lambda: scenarios.cq_free_randomness(3),
                                   lambda: constructions.multiparty_unitary(2)],
                         ids=["cq_free_randomness3", "multiparty_unitary2"])
def test_a_second_weyl_controlled_build_takes_no_matrix_power(monkeypatch, build):
    build()
    calls = []
    power = np.linalg.matrix_power
    monkeypatch.setattr(np.linalg, "matrix_power", lambda *a: calls.append(a) or power(*a))
    build()
    assert calls == []


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
    full = embed_operator(x, [2, 3, 2], [2])
    assert np.allclose(full, np.kron(np.eye(6), x))
    mid = embed_operator(x, [2, 2, 2], [1])
    assert np.allclose(mid, np.kron(np.kron(np.eye(2), x), np.eye(2)))


E0, E1 = np.eye(2)[:, :1], np.eye(2)[:, 1:]


@pytest.mark.parametrize("vals, bases, message", [
    ([], [], "at least one eigenvalue"),
    ([1.0], [np.ones(2)], r"\(d, r\) matrix"),
    ([0.25, 0.75], [E0, E1], "non-increasing"),
    ([0.5, 0.5], [E0, E0], "not orthonormal"),
    ([0.5], [E0], "sum of eigenvalue"),
], ids=["empty", "shape", "increasing", "overlap", "weights"])
def test_eigenspace_decomposition_refuses_bad_input(vals, bases, message):
    with pytest.raises(ValueError, match=message):
        hl.EigenspaceDecomposition(vals, bases)


def test_frozen_repr_names_the_public_fields():
    assert repr(SubsystemLayout([2, 3])) == "SubsystemLayout(dims=(2, 3))"


@pytest.mark.parametrize("build", [hl.clock_matrix, hl.weyl_set, hl.max_entangled,
                                   canonical_operators, hl.shift_matrix, hl.swap_matrix,
                                   hl.fourier_matrix, hl.plus_state])
@pytest.mark.parametrize("d", [0, -2])
def test_builders_refuse_dimensions_below_one(build, d):
    with pytest.raises(ValueError, match=rf"needs d >= 1, got {d}$"):
        build(d)


def test_state_spectrum_raises_the_lowest_failing_matrix_of_a_stack():
    good, twice = np.eye(2) / 2, np.eye(2)
    skew = np.array([[0.5, 0.1], [0.0, 0.5]])
    for stack, message in (([good, twice, skew], "trace"), ([good, skew, twice], "Hermitian")):
        with pytest.raises(ValueError, match=message):
            hl.state_spectrum(np.array(stack, dtype=complex))
    for m in (twice, skew, np.diag([1.5, -0.5]), good):
        m = m.astype(complex)
        try:
            want = DensityOperator(m, [2]).eigenvalues()
        except ValueError as error:
            with pytest.raises(ValueError, match=f"^{re.escape(str(error))}$"):
                hl.state_spectrum(m)
        else:
            assert hl.state_spectrum(m).tobytes() == want.tobytes()


def test_psd_factor_is_the_density_operators_factor():
    for rank, seed in ((1, 3), (4, 4), (6, 5)):
        m = random_density([2, 3], rank, seed).matrix
        vals, x = hl.psd_factor(m)
        assert x.tobytes() == DensityOperator(m, [2, 3]).factor().tobytes()
        assert x.shape == (6, rank) and vals.tobytes() == np.linalg.eigh(m)[0].tobytes()


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_constructors_reject_non_finite_entries(bad):
    from catalyx.catalysis import KrausChannel

    one = np.array([[1.0, 0.0], [0.0, bad]])
    refused = "non-finite entry"
    cases = [
        (lambda: UnitaryOperator(one, [2]), refused),
        (lambda: UnitaryOperator.each([np.eye(2), one], [2]), refused),
        (lambda: DensityOperator(one / 2, [2]), refused),
        (lambda: DensityOperator.from_factor(one[:, 1:], [2]), refused),
        (lambda: StateVector([bad, 0.0], [2]), refused),
        (lambda: KrausChannel([one]), refused),
        (lambda: hl.EigenspaceDecomposition([0.5], [one]), refused),
        (lambda: hl.EigenspaceDecomposition([bad / 2], [np.eye(2)]), "multiplicity"),
    ]
    # each check refuses the value before arithmetic reads it, so nothing warns
    for build, message in cases:
        with pytest.raises(ValueError, match=message):
            build()


def _infinite_entry_builds(bad):
    from catalyx.catalysis import KrausChannel

    one = np.array([[1.0, 0.0], [0.0, bad]])
    return {
        "UnitaryOperator": lambda: UnitaryOperator(one, [2]),
        "DensityOperator": lambda: DensityOperator(one / 2, [2]),
        "from_factor": lambda: DensityOperator.from_factor(one[:, 1:], [2]),
        "StateVector": lambda: StateVector(one[1], [2]),
        "KrausChannel": lambda: KrausChannel([one]),
        "EigenspaceDecomposition": lambda: hl.EigenspaceDecomposition([1.0], [one[:, 1:]]),
    }


@pytest.mark.parametrize("constructor", sorted(_infinite_entry_builds(0.0)))
def test_constructor_refuses_an_infinite_entry_before_any_arithmetic(constructor):
    """An infinite entry, or one whose square overflows, is refused with the
    constructor's ValueError before a product or a difference reads it: no
    floating-point error is raised on the way."""
    for bad in (math.inf, -math.inf, 1e200):
        with np.errstate(all="raise"), pytest.raises(ValueError):
            _infinite_entry_builds(bad)[constructor]()


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_payload_readers_refuse_non_finite_entries(bad):
    op = json.loads(json.dumps({"dims": [2], "re": [[1, 0], [0, bad]], "im": [[0, 0], [0, 0]]}))
    state = json.loads(json.dumps({"dims": [2], "amps_re": [1, 0], "amps_im": [0, bad]}))
    with pytest.raises(ValueError, match="operator payload has a non-finite entry"):
        hl.payload_to_matrix(op)
    with pytest.raises(ValueError, match="state payload has a non-finite entry"):
        hl.payload_to_state(state)
