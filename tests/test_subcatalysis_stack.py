"""The sub-catalyses of a decomposition are certified in one stacked pass.

Each sub-instance must carry, bit for bit, what a block-by-block
``canonical_form`` of its restricted unitary gives; the solver calls must not
grow with the number of blocks; and a failure must be the one the
block-by-block loop raises first.
"""

import numpy as np
import pytest
from util import count_eigensolves, count_svds

from catalyx import catalysis as cat
from catalyx import cli
from catalyx import constructions as con
from catalyx import hilbert as hl


def _certify_style_classical():
    """The six classical families of the benchmark's ``certify`` workload:
    d_A in {2, 3}, 2 to 4 blocks, Dirichlet weights, Haar unitaries."""
    rng = np.random.default_rng(0)
    insts = []
    for k in range(6):
        d_a, n = 2 + k % 2, 2 + k % 3
        p = rng.dirichlet(np.ones(n))
        us = [hl.haar_unitary_matrix(d_a, rng) for _ in range(n)]
        insts.append(cat.classical_catalysis(p, us, seed=int(rng.integers(1000))))
    return insts


def _rank_12_instance():
    """The rank-(1, 2) instance of ``test_decompose_blocks_and_weights``."""
    sigma = hl.DensityOperator(np.diag([0.5, 0.25, 0.25]), [3])
    rng = np.random.default_rng(8)
    u = sum(np.kron(hl.haar_unitary_matrix(2, rng), np.diag(e)) for e in np.eye(3))
    return cat.canonical_form(hl.UnitaryOperator(u, [2, 3]), sigma)


def _decomposed():
    """(instance, decomposition) for every equality case, each split along
    its default refinement."""
    cases = [(inst, inst.decomposition) for inst in _certify_style_classical()]
    tiny = cat.classical_catalysis([1 - 1e-9, 1e-9], [np.eye(2), hl.clock_matrix(2)])
    cases.append((tiny, tiny.decomposition))
    sigma = hl.DensityOperator(np.diag([0.4, 0.2, 0.2, 0.1, 0.1]), [5])
    for inst in (_rank_12_instance(), con.max_extraction_catalysis(sigma).instance,
                 con.dephasing_catalysis((3, 3))):
        cases.append((inst, cat.decompose_subcatalyses(inst)))
    return cases


def _bases(inst):
    """The refinement a decomposition of ``inst`` used by default: the
    catalyst basis states for a classical catalysis, else the eigenspaces."""
    if inst.classical:
        return np.split(np.eye(inst.b_dim), inst.b_dim, axis=1)
    return hl.eigenspace_decompose(inst.sigma).bases


def _bitwise(a, b) -> bool:
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


def test_every_sub_instance_is_its_block_by_block_certification():
    ranks = set()
    for inst, dec in _decomposed():
        bases = _bases(inst)
        assert len(dec) == len(bases)
        uc = inst.canonical_unitary().matrix
        eye_a = np.eye(inst.a_dim)
        for idx, (basis, (weight, sub)) in enumerate(zip(bases, dec)):
            r = basis.shape[1]
            ranks.add(r)
            want_w = float(np.trace(basis @ basis.conj().T @ inst.sigma.matrix).real)
            assert _bitwise(weight, want_w)
            # the restriction (1 ⊗ B†) U_c (1 ⊗ B), from dense Kronecker products
            iso = np.kron(eye_a, basis)
            assert np.abs(sub.unitary.matrix - iso.conj().T @ uc @ iso).max() <= 1e-12
            ref = cat.canonical_form(sub.unitary, hl.maximally_mixed([r]), inst.a_count,
                                     inst.seed + idx + 1)._replace(classical=inst.classical)
            assert sub.seed == ref.seed == inst.seed + idx + 1
            assert sub.classical == inst.classical and sub.a_count == inst.a_count
            assert _bitwise(sub.canonical_v.matrix, ref.canonical_v.matrix)
            assert _bitwise(sub.max_deviation, ref.max_deviation)
            assert _bitwise(sub.entropy_gap, ref.entropy_gap)
            assert abs(sub.defect - ref.defect) <= 1e-15
            assert _bitwise(sub.sigma.matrix, ref.sigma.matrix)
    assert ranks == {1, 2, 6}


def _solver_calls(monkeypatch, call):
    eig = count_eigensolves(monkeypatch)
    svd = count_svds(monkeypatch)
    call()
    monkeypatch.undo()
    return dict(eig.calls_by), dict(svd.calls_by)


def test_classical_solver_calls_do_not_grow_with_the_block_count(monkeypatch):
    rng = np.random.default_rng(3)
    calls = []
    for n in (2, 4):
        p = rng.dirichlet(np.ones(n))
        us = [hl.haar_unitary_matrix(3, rng) for _ in range(n)]
        calls.append(_solver_calls(monkeypatch, lambda: cat.classical_catalysis(p, us)))
    assert calls[0] == calls[1]
    assert set(calls[0][0]) == {"eigh", "eigvalsh"} and set(calls[0][1]) == {"svd"}


def test_decomposition_solver_calls_follow_the_ranks_not_the_blocks(monkeypatch):
    """Three eigenspaces of ranks 1, 2, 3 cost what four blocks of ranks 1,
    2, 3, 3 cost: one stacked pass per rank."""
    small = con.dephasing_catalysis((1, 2, 3))
    small_bases = hl.eigenspace_decompose(small.sigma).bases
    assert [b.shape[1] for b in small_bases] == [3, 2, 1]
    large = con.dephasing_catalysis((1, 2, 3, 3))
    eye = np.eye(9)
    large_bases = [eye[:, :1], eye[:, 1:3], eye[:, 3:6], eye[:, 6:]]
    want = _solver_calls(monkeypatch, lambda: cat.decompose_subcatalyses(small, small_bases))
    got = _solver_calls(monkeypatch, lambda: cat.decompose_subcatalyses(large, large_bases))
    assert got == want
    # with its default eigenspaces the pass adds the one eigh that finds them
    default = _solver_calls(monkeypatch, lambda: cat.decompose_subcatalyses(small))
    assert default[0]["eigh"] == want[0]["eigh"] + 1


def test_decomposition_without_canonical_form(monkeypatch):
    inst = _certify_style_classical()[2]
    monkeypatch.setattr(cat, "canonical_form", None)
    assert len(cat.decompose_subcatalyses(inst, _bases(inst))) == 4


def _swap_and_identity(db=3):
    """SWAP on A ⊗ span(|0>, |1>) and the identity on A ⊗ span(|2>, ...),
    with the maximally mixed catalyst on d_B = ``db`` levels: every block
    commutes with its projector, but the SWAP block is not a catalysis
    unitary."""
    u = np.eye(2 * db, dtype=complex)
    rows = [0, 1, db, db + 1]  # (a, b) with b < 2, in the A ⊗ B order
    u[np.ix_(rows, rows)] = hl.swap_matrix(2)
    unitary = hl.UnitaryOperator(u, [2, db])
    return cat.CatalysisInstance(
        unitary=unitary, sigma=hl.maximally_mixed([db]), a_count=1,
        canonical_v=hl.UnitaryOperator(np.eye(db), [db]), defect=0.0, entropy_gap=0.0,
        max_deviation=0.0, seed=0,
    )


def test_the_lower_failing_block_is_named():
    inst = cat.classical_catalysis([0.5, 0.5], [np.eye(2), hl.clock_matrix(2)])
    both = [np.array([[1.01], [0.0]]), np.array([[0.0], [1.01]])]
    with pytest.raises(cat.CertificationError, match="restricted block 0"):
        cat.decompose_subcatalyses(inst, bases=both)


def test_a_later_check_of_a_lower_block_wins_across_ranks():
    """Block 0 (rank 2) passes the commutation and unitarity checks and fails
    the partial-transpose test; block 1 (rank 1) fails the earlier unitarity
    check.  The block-by-block loop reaches block 0's failure first."""
    inst = _swap_and_identity()
    eye = np.eye(3)
    bases = [eye[:, :2], 1.01 * eye[:, 2:]]
    with pytest.raises(cat.CertificationError, match="not a catalysis unitary"):
        cat.decompose_subcatalyses(inst, bases=bases)
    with pytest.raises(cat.CertificationError, match="restricted block 0"):
        cat.decompose_subcatalyses(inst, bases=bases[::-1])


def test_a_later_check_of_a_lower_block_wins_within_one_rank():
    """As above with both blocks of rank 2, so one stack holds them: the
    stacked pass meets block 1's unitarity failure first, and the block by
    block pass that follows reports block 0's."""
    inst = _swap_and_identity(4)
    eye = np.eye(4)
    bases = [eye[:, :2], 1.01 * eye[:, 2:]]
    with pytest.raises(cat.CertificationError, match="not a catalysis unitary"):
        cat.decompose_subcatalyses(inst, bases=bases)
    with pytest.raises(cat.CertificationError, match="restricted block 0"):
        cat.decompose_subcatalyses(inst, bases=bases[::-1])
    # block 0 (the identity) passes every check: the failure is block 1's
    with pytest.raises(cat.CertificationError, match="restricted block 1"):
        cat.decompose_subcatalyses(inst, bases=[eye[:, 2:], 1.01 * eye[:, :2]])


def test_weights_are_checked_after_every_block():
    inst = cat.classical_catalysis([0.5, 0.5], [np.eye(2), hl.clock_matrix(2)])
    with pytest.raises(cat.CertificationError, match="weights sum to 0.5"):
        cat.decompose_subcatalyses(inst, bases=[np.array([[1.0], [0.0]])])


def _slightly_rotated(eps):
    c, s = np.cos(eps), np.sin(eps)
    return [np.array([[c], [s]]), np.array([[-s], [c]])]


def test_refinement_tolerance_override_flips_the_commutation_verdict(monkeypatch):
    """A refinement rotated by 1e-6 misses commuting by ~1e-6 > 1e-7; the
    ``refinement`` override reaches the check and lets it through."""
    inst = cat.classical_catalysis([0.5, 0.5], [np.eye(2), hl.clock_matrix(2)])
    bases = _slightly_rotated(1e-6)
    with pytest.raises(cat.CertificationError, match="eigenspace 0"):
        cat.decompose_subcatalyses(inst, bases=bases)
    monkeypatch.setattr(hl, "REFINEMENT_TOL", hl.REFINEMENT_TOL)  # restored after the test
    cli._apply_tol_overrides(["refinement=1e-5"])
    assert hl.REFINEMENT_TOL == 1e-5
    dec = cat.decompose_subcatalyses(inst, bases=bases)
    assert [round(w, 9) for w, _ in dec] == [0.5, 0.5]


def test_refinement_tolerance_reaches_the_weight_sum(monkeypatch):
    inst = cat.classical_catalysis([0.5, 0.5], [np.eye(2), hl.clock_matrix(2)])
    monkeypatch.setattr(hl, "REFINEMENT_TOL", 0.6)
    dec = cat.decompose_subcatalyses(inst, bases=[np.array([[1.0], [0.0]])])
    assert [w for w, _ in dec] == [0.5]


def test_frobenius_of_a_stack_is_each_norm():
    rng = np.random.default_rng(2)
    for shape in [(1, 3, 3), (4, 2, 2), (3, 5, 5), (2, 9, 9), (0, 2, 2)]:
        m = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        got = hl.frobenius(m)
        assert got.shape == shape[:1]
        assert _bitwise(got, np.array([np.linalg.norm(x) for x in m]).reshape(shape[:1]))
    m = rng.standard_normal((4, 4))
    assert hl.frobenius(m) == np.linalg.norm(m)
    assert _bitwise(hl.frobenius(np.stack([m, 2 * m])), [np.linalg.norm(m), np.linalg.norm(2 * m)])


def test_stacked_helpers_give_each_matrix_what_it_gets_alone(monkeypatch):
    """eigh_desc, hermitian_eigvalsh, trace_distance, unitarity_defect and
    ptranspose_matrix on a stack: bit for bit the per-matrix results, with
    exactly real and complex matrices mixed in one stack."""
    rng = np.random.default_rng(5)
    d = 4
    herm = []
    for k in range(5):
        g = rng.standard_normal((d, d)) + (1j * rng.standard_normal((d, d)) if k % 2 else 0)
        herm.append((g + g.conj().T).astype(complex))
    herm = np.stack(herm)
    assert (~herm.imag.any(axis=(-2, -1))).sum() == 3  # three exactly real matrices
    eig = count_eigensolves(monkeypatch)
    vals = hl.hermitian_eigvalsh(herm)
    assert eig.calls == 2
    for m, v in zip(herm, vals):
        assert _bitwise(v, hl.hermitian_eigvalsh(m))
    dists = hl.trace_distance(herm, herm[::-1])
    for a, b, t in zip(herm, herm[::-1], dists):
        assert _bitwise(t, hl.trace_distance(a, b))
    sv, svec = hl.eigh_desc(herm)
    for m, v, vec in zip(herm, sv, svec):
        want_v, want_vec = hl.eigh_desc(m)
        assert _bitwise(v, want_v) and _bitwise(vec, want_vec)
    us = np.stack([hl.haar_unitary_matrix(6, s) for s in range(3)])
    pt = hl.ptranspose_matrix(us, [2, 3], [0])
    for u, p, defect in zip(us, pt, hl.unitarity_defect(pt)):
        assert _bitwise(p, hl.ptranspose_matrix(u, [2, 3], [0]))
        assert _bitwise(defect, hl.unitarity_defect(p))


def test_unitary_stack_validation_stops_at_the_first_failure():
    us = np.stack([np.eye(2), 1.01 * np.eye(2), 1.02 * np.eye(2)])
    with pytest.raises(ValueError) as stacked:
        hl.UnitaryOperator.each(us, [2])
    with pytest.raises(ValueError) as alone:
        hl.UnitaryOperator(us[1], [2])
    assert str(stacked.value) == str(alone.value) and stacked.value.index == 1
    ops = hl.UnitaryOperator.each(us[[0, 0]], [2])
    assert len(ops) == 2 and all(np.array_equal(op.matrix, np.eye(2)) for op in ops)
    with pytest.raises(ValueError, match="does not match layout dim"):
        hl.UnitaryOperator.each(us, [3])
