"""Exact certification: the transfer tensor against direct evolution, seed
independence of the verdict, soundness against a sampled reference check, the
cost of one certification, and the minimal Kraus form from the smaller Gram
side of its Choi vectors."""

import sys
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catalyx import catalysis as cat
from catalyx import constructions as con
from catalyx import hilbert as hl
from catalyx.hilbert import DensityOperator, UnitaryOperator, maximally_mixed

SETTINGS = settings(derandomize=True, max_examples=25, deadline=None)


def _output(u, rho, sigma, da, db):
    """Catalyst output Tr_A U(rho ⊗ sigma)U† by direct evolution."""
    return hl.ptrace_matrix(u @ np.kron(rho, sigma) @ hl.dagger(u), [da, db], [1])


def _sampled_inputs(da, rng):
    """The inputs of the former sampled check: basis states, Haar pure states
    and random mixed states."""
    states = [np.diag(e).astype(complex) for e in np.eye(da)]
    for _ in range(8):
        v = hl.haar_state(da, rng).amplitudes
        states.append(np.outer(v, v.conj()))
    for _ in range(4):
        states.append(hl.random_density([da], max(1, da // 2), rng).matrix)
    return states


def _controlled_instance(d_a, d_b, seed):
    """Certified Haar-controlled catalysis (complex entries)."""
    rng = np.random.default_rng(seed)
    u = hl.controlled([hl.haar_unitary_matrix(d_a, rng) for _ in range(d_b)])
    return cat.canonical_form(UnitaryOperator(u, [d_a, d_b]), maximally_mixed([d_b]))


@SETTINGS
@given(
    st.lists(st.integers(1, 3), min_size=2, max_size=3),
    st.integers(1, 2),
    st.integers(0, 2**32 - 1),
)
def test_transfer_matches_direct_evolution(dims, a_count, seed):
    a_count = min(a_count, len(dims) - 1)
    da = int(np.prod(dims[:a_count]))
    db = int(np.prod(dims[a_count:]))
    rng = np.random.default_rng(seed)
    u = hl.haar_unitary(da * db, rng, layout=dims)
    sigma = hl.random_density([db], db, rng)
    rho = hl.random_density([da], da, rng).matrix
    s = cat._transfer_slices(u.matrix, sigma.matrix, da, db)
    ref = cat.verify_catalysis_exhaustive(u, sigma, a_count).output
    assert s.shape == (da, da, db, db)
    got = np.einsum("xz,xzbc->bc", rho, s)
    assert np.abs(got - _output(u.matrix, rho, sigma.matrix, da, db)).max() <= 1e-13
    want_ref = _output(u.matrix, np.eye(da) / da, sigma.matrix, da, db)
    assert np.abs(ref - want_ref).max() <= 1e-13


def test_verdict_does_not_depend_on_seed():
    rng = np.random.default_rng(4)
    u = UnitaryOperator(
        hl.controlled([hl.haar_unitary_matrix(3, rng) for _ in range(2)]), [3, 2]
    )
    sigma = maximally_mixed([2])
    insts = [cat.canonical_form(u, sigma, seed=s) for s in range(10)]
    for inst in insts[1:]:
        assert inst.max_deviation == insts[0].max_deviation
        assert inst.entropy_gap == insts[0].entropy_gap
        assert np.array_equal(inst.canonical_v.matrix, insts[0].canonical_v.matrix)


def test_certified_instance_output_is_input_independent():
    inst = con.dephasing_catalysis([1, 2])
    da, db = inst.a_dim, inst.b_dim
    rep = cat.verify_catalysis_exhaustive(inst.unitary, inst.sigma)
    rng = np.random.default_rng(0)
    for _ in range(20):
        rho = hl.random_density([da], int(rng.integers(1, da + 1)), rng).matrix
        out = _output(inst.unitary.matrix, rho, inst.sigma.matrix, da, db)
        assert np.abs(out - rep.output).max() <= 1e-12


@SETTINGS
@given(st.integers(2, 3), st.integers(2, 3), st.integers(0, 2**32 - 1))
def test_max_deviation_bounds_sampled_deviation(da, db, seed):
    rng = np.random.default_rng(seed)
    u = hl.haar_unitary_matrix(da * db, rng)
    sigma = hl.random_density([db], db, rng)
    rep = cat.verify_catalysis_exhaustive(UnitaryOperator(u, [da, db]), sigma)
    assert rep.max_deviation > 1e-9
    for rho in _sampled_inputs(da, rng):
        dist = hl.trace_distance(_output(u, rho, sigma.matrix, da, db), rep.output)
        assert dist <= da / 2 * rep.max_deviation + 1e-12


def _count_catalyst_work(monkeypatch):
    """Count later partial transposes (in every catalyx namespace that binds
    the kernel) and transfer contractions in the returned ``Counter``."""
    counts = Counter()

    def counting(name, fn):
        def call(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return call

    kernel = hl.ptranspose_matrix
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "catalyx" and getattr(module, "ptranspose_matrix", None) is kernel:
            monkeypatch.setattr(module, "ptranspose_matrix", counting("ptranspose", kernel))
    monkeypatch.setattr(cat, "_transfer_slices", counting("transfer", cat._transfer_slices))
    return counts


def test_canonical_form_checks_the_catalyst_once(monkeypatch):
    inst = con.dephasing_catalysis([1, 2])
    counts = _count_catalyst_work(monkeypatch)
    cat.canonical_form(inst.unitary, inst.sigma)
    assert counts == {"ptranspose": 1, "transfer": 1}


@pytest.mark.parametrize(
    "catalysis_unitary, want",
    [(True, {"ptranspose": 1, "transfer": 1}), (False, {"ptranspose": 1})],
    ids=["pass", "not-catalysis"],
)
def test_verify_command_checks_the_catalyst_once(
    monkeypatch, tmp_path, capsys, catalysis_unitary, want
):
    from catalyx import cli

    inst = con.dephasing_catalysis([1, 2])
    u = inst.unitary if catalysis_unitary else hl.haar_unitary(inst.unitary.dim, 0,
                                                                inst.unitary.layout)
    hl.save_json(str(tmp_path / "u.json"), hl.operator_to_payload(u))
    hl.save_json(str(tmp_path / "sigma.json"), hl.operator_to_payload(inst.sigma))
    counts = _count_catalyst_work(monkeypatch)
    code = cli.main(["verify", str(tmp_path / "u.json"), "--sigma-file",
                     str(tmp_path / "sigma.json")])
    assert code == (0 if catalysis_unitary else 1)
    assert counts == want


def _raw_kraus(inst):
    """sqrt(s_k) <b|U|chi_k> for the eigenpairs (s_k, chi_k) of the catalyst."""
    da, db = inst.a_dim, inst.b_dim
    vals, vecs = hl.eigh_desc(inst.sigma.matrix)
    ops = []
    for s, chi in zip(vals, vecs.T):
        if s <= 1e-12:
            continue
        for b in np.eye(db):
            ops.append(np.sqrt(s) * np.kron(np.eye(da), b[None, :]) @ inst.unitary.matrix
                       @ np.kron(np.eye(da), chi[:, None]))
    return cat.KrausChannel(ops)


def test_minimal_kraus_form_keeps_the_choi_matrix():
    sigma = DensityOperator(np.diag([0.5, 0.25, 0.25]), [3])
    insts = [
        con.dephasing_catalysis([1, 2]),
        con.dephasing_catalysis([2]),
        con.max_extraction_catalysis(sigma).instance,
        _controlled_instance(2, 3, 1),
        _controlled_instance(3, 2, 2),
        cat.classical_catalysis([0.6, 0.4], [hl.haar_unitary_matrix(3, s) for s in (5, 6)]),
    ]
    sides = set()
    for inst in insts:
        want = _raw_kraus(inst).choi()
        chan = cat.channel_to_kraus(inst)
        assert np.abs(chan.choi() - want).max() <= 1e-12
        assert len(chan.kraus) == int((np.linalg.eigvalsh(want) > 1e-10).sum())
        # Choi vectors against their length d_A^2: which Gram side is smaller
        n_vectors = inst.sigma.factor().shape[1] * inst.b_dim
        sides.add(np.sign(n_vectors - inst.a_dim**2))
    assert sides == {-1, 1}
