"""One unitarity rule, priced by the operator's structure: an exactly real
matrix takes the real product, a controlled unitary is checked block by block
with the verdict and the error of the full check, and the ledger of a
certified instance checks nothing again."""

import json

import numpy as np
import pytest

from catalyx import catalysis as cat
from catalyx import cli
from catalyx import constructions as con
from catalyx import hilbert as hl


def _complex_defect(m):
    """The Frobenius norm of m†m - 1 from the complex product, whatever m holds."""
    m = np.asarray(m, dtype=complex)
    return float(np.linalg.norm(hl.dagger(m) @ m - np.eye(m.shape[-1])))


def _record_products(monkeypatch):
    """The dtype kind of every operand of the Gram product m†m behind each
    unitarity check, one entry per product."""
    kinds = []
    gram = hl._gram_residual

    def recording(m):
        kinds.append(m.dtype.kind)
        return gram(m)

    monkeypatch.setattr(hl, "_gram_residual", recording)
    return kinds


# ---------------------------------------------------------------------------
# the real rule


@pytest.mark.parametrize("build", [
    lambda: hl.shift_matrix(7),
    lambda: hl.swap_matrix(4),
    lambda: con.initialization_classical(3).unitary.matrix,
    lambda: con.initialization_classical(5).unitary.matrix,
    lambda: con.initialization_masking(2).unitary.matrix,
], ids=["shift7", "swap4", "initialization_classical3", "initialization_classical5",
        "initialization_masking2"])
def test_permutations_take_the_real_product_and_have_no_defect(monkeypatch, build):
    m = np.asarray(build(), dtype=complex)
    kinds = _record_products(monkeypatch)
    assert hl.unitarity_defect(m) == 0.0
    assert kinds == ["f"]
    hl.UnitaryOperator(m, [m.shape[0]])
    assert kinds == ["f", "f"]


def test_real_orthogonal_matrices_match_the_complex_product():
    rng = np.random.default_rng(3)
    for n in (2, 5, 16, 40):
        q = np.linalg.qr(rng.standard_normal((n, n)))[0].astype(complex)
        assert abs(hl.unitarity_defect(q) - _complex_defect(q)) <= 1e-15
        stack = np.stack([np.linalg.qr(rng.standard_normal((n, n)))[0] for _ in range(4)])
        got = hl.unitarity_defect(stack.astype(complex))
        assert got.shape == (4,)
        assert all(abs(g - _complex_defect(s)) <= 1e-15 for g, s in zip(got, stack))
    # a real matrix far from unitary too: the defect is a sum of O(1) entries
    m = rng.standard_normal((6, 6))
    assert abs(hl.unitarity_defect(m.astype(complex)) - _complex_defect(m)) <= 1e-12


def test_a_mixed_stack_gives_each_matrix_what_it_gets_alone(monkeypatch):
    rng = np.random.default_rng(8)
    us = np.stack([np.linalg.qr(rng.standard_normal((5, 5)))[0].astype(complex),
                   hl.haar_unitary_matrix(5, 1),
                   hl.shift_matrix(5).astype(complex),
                   hl.haar_unitary_matrix(5, 2)])
    kinds = _record_products(monkeypatch)
    got = hl.unitarity_defect(us)
    assert kinds == ["f", "c"]  # the real ones together, the rest together
    for u, g in zip(us, got):
        assert g.tobytes() == np.float64(hl.unitarity_defect(u)).tobytes()


def _one_real_one_complex():
    rng = np.random.default_rng(5)
    real = np.linalg.qr(rng.standard_normal((4, 4)))[0].astype(complex)
    return {"real": real, "complex": hl.haar_unitary_matrix(4, rng)}


def _stack_of_one_defect(m, kind):
    """The defect of the stack m[None] by the stacked rule: the real product
    for an exactly real matrix, else the complex one."""
    m = m[None].real if kind == "real" else m[None]
    return hl.frobenius(hl._gram_residual(m))[0]


@pytest.mark.parametrize("kind", ["real", "complex"])
def test_a_stack_of_one_keeps_its_dispatch_and_bits(monkeypatch, kind):
    m = _one_real_one_complex()[kind]
    defects = []
    fault = hl._unitary_fault
    monkeypatch.setattr(hl, "_unitary_fault", lambda d: defects.append(d) or fault(d))
    kinds = _record_products(monkeypatch)
    hl.UnitaryOperator.each(m[None], [2, 2])
    verdict = cat.is_catalysis_unitary(hl.UnitaryOperator(m, [2, 2]))
    assert kinds == ["f" if kind == "real" else "c"] * 3
    want = _stack_of_one_defect(m, kind)
    assert np.float64(defects[0]).tobytes() == want.tobytes()
    pt = hl.ptranspose_matrix(m[None], [2, 2], (0,))[0]
    want = _stack_of_one_defect(pt, kind)
    assert np.float64(verdict.defect).tobytes() == want.tobytes()


CONSTRUCT_ARGS = [
    ["dephasing_degeneracy", "--r", "1,3"],
    ["dephasing_degeneracy", "--r", "3,3"],
    ["max_extraction", "--r", "1,2"],
    ["double_random", "--d", "3"],
    ["multiparty", "--d", "2"],  # Weyl blocks of d = 2: an exactly real unitary
    ["multiparty", "--d", "3"],
]


@pytest.mark.parametrize("args", CONSTRUCT_ARGS, ids=lambda a: "".join(a).replace("--", "-"))
def test_reported_partial_transpose_defect_is_the_complex_products(tmp_path, capsys, args):
    assert cli.main(["construct", *args, "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    kind = args[0]
    report = json.loads((tmp_path / f"{kind}_report.json").read_text())
    bundle = json.loads((tmp_path / f"{kind}_instance.json").read_text())
    m, layout = hl.payload_to_matrix(hl.load_json(str(tmp_path / f"{kind}_unitary.json")))
    cut = range(len(bundle["layout"]["a_dims"]))
    want = _complex_defect(hl.ptranspose_matrix(m, layout.dims, cut))
    got = report["certification"]["defect"]
    assert np.float64(got).tobytes() == np.float64(want).tobytes()


# ---------------------------------------------------------------------------
# controlled unitaries


def _block_families():
    rng = np.random.default_rng(4)
    return {
        "haar": [hl.haar_unitary_matrix(3, rng) for _ in range(4)],
        "weyl": hl.weyl_set(3),
        "permutations": [np.linalg.matrix_power(hl.shift_matrix(4), k) for k in range(3)],
    }


@pytest.mark.parametrize("family", ["haar", "weyl", "permutations"])
@pytest.mark.parametrize("control_first", [False, True])
def test_controlled_operator_is_the_placed_blocks(family, control_first):
    blocks = _block_families()[family]
    k, d = len(blocks), blocks[0].shape[0]
    layout = [k, d] if control_first else [d, k]
    u = hl.UnitaryOperator.controlled(blocks, layout, control_first=control_first)
    want = hl.controlled(blocks, control_first=control_first)
    assert u.matrix.dtype == want.dtype and u.matrix.tobytes() == want.tobytes()
    assert u.layout == hl.SubsystemLayout(layout) and not u.matrix.flags.writeable
    assert hl.unitarity_defect(u.matrix) <= 1e-12


@pytest.mark.parametrize("family, kinds", [("haar", ["c"]), ("weyl", ["c"]),
                                           ("permutations", ["f"])])
def test_controlled_operator_takes_one_product_real_when_every_block_is(
        monkeypatch, family, kinds):
    # the Weyl set holds real blocks (the shift powers) among complex ones:
    # U is not exactly real, so all blocks take the complex product, as the
    # full check of U would
    blocks = _block_families()[family]
    recorded = _record_products(monkeypatch)
    hl.UnitaryOperator.controlled(blocks, [blocks[0].shape[0], len(blocks)])
    assert recorded == kinds


@pytest.mark.parametrize("control_first", [False, True])
def test_a_block_off_by_1e6_raises_the_full_checks_error(control_first):
    blocks = [np.linalg.matrix_power(hl.shift_matrix(3), k).astype(complex) for k in range(3)]
    blocks[1][1, 0] = 1 + 1e-6
    layout = [3, 3]
    with pytest.raises(ValueError) as full:
        hl.UnitaryOperator(hl.controlled(blocks, control_first=control_first), layout)
    with pytest.raises(ValueError) as blockwise:
        hl.UnitaryOperator.controlled(blocks, layout, control_first=control_first)
    assert str(blockwise.value) == str(full.value)
    assert str(full.value).startswith("matrix is not unitary: defect 2.")


def test_controlled_verdict_is_the_full_checks():
    rng = np.random.default_rng(6)
    for eps in (0.0, 1e-13, 1e-11, 1e-8, 1e-6):
        blocks = [hl.haar_unitary_matrix(4, rng) + eps * rng.standard_normal((4, 4))
                  for _ in range(5)]
        full = _complex_defect(hl.controlled(blocks))
        try:
            hl.UnitaryOperator.controlled(blocks, [4, 5])
            passed = True
        except ValueError:
            passed = False
        assert passed == (full <= hl.TOL_UNITARY), eps


def test_controlled_refuses_blocks_that_do_not_fill_the_layout():
    with pytest.raises(ValueError, match="do not fill layout dim 6"):
        hl.UnitaryOperator.controlled(hl.weyl_set(2), [2, 3])
    with pytest.raises(ValueError, match="do not fill"):
        hl.UnitaryOperator.controlled(np.eye(4), [4])
    with pytest.raises(ValueError, match="non-finite"):
        hl.UnitaryOperator.controlled([np.eye(2), np.full((2, 2), np.nan)], [2, 2])


# ---------------------------------------------------------------------------
# the ledger of a certified instance


def _instances():
    rng = np.random.default_rng(9)
    return {
        "dephasing12": con.dephasing_catalysis((1, 2)),
        "dephasing23": con.dephasing_catalysis((2, 3)),
        "extraction": con.max_extraction_catalysis(
            hl.DensityOperator(np.diag([0.5, 0.25, 0.25]).astype(complex), [3])).instance,
        "classical": cat.classical_catalysis([0.5, 0.5], [hl.haar_unitary_matrix(2, rng)
                                                          for _ in range(2)]),
        "multiparty2": con.multiparty_instance(2),
    }


@pytest.mark.parametrize("name", ["dephasing12", "dephasing23", "extraction", "classical",
                                  "multiparty2"])
def test_ledger_for_instance_checks_no_unitary_again(monkeypatch, name):
    inst = _instances()[name]
    rho = hl.plus_state(inst.a_dim).density()
    want = cat.ledger(inst.canonical_unitary(), rho, inst.sigma, 0)[0]
    products = _record_products(monkeypatch)
    got = cat.ledger_for_instance(inst, rho)
    assert products == []
    assert np.array(got).tobytes() == np.array(want).tobytes()


# ---------------------------------------------------------------------------
# isometries: Kraus completeness and orthonormal eigenspace bases


NAMED_CHANNELS = {
    "identity": cat.identity_channel, "dephasing": cat.dephasing_channel,
    "erasure": cat.erasure_channel, "weyl_twirl": cat.weyl_twirl_channel,
    "initialization": cat.initialization_channel, "werner_holevo": cat.werner_holevo_channel,
}


@pytest.mark.parametrize("build, kinds", [
    (lambda: cat.dephasing_channel(3), ["f"]),
    (lambda: cat.random_channel(2, 3, 0), ["c"]),
    (lambda: con.degeneracy_decomposition((1, 2)), ["f"]),
    (lambda: hl.eigenspace_decompose(hl.random_density([3], 3, 1)), ["c"]),
], ids=["dephasing3", "random2x3", "degeneracy12", "random_state3"])
def test_an_isometry_check_is_one_gram_product(monkeypatch, build, kinds):
    products = _record_products(monkeypatch)
    build()
    assert products == kinds


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("name", NAMED_CHANNELS)
def test_named_channels_take_the_real_product_and_keep_their_kraus(monkeypatch, name, d):
    products = _record_products(monkeypatch)
    chan = NAMED_CHANNELS[name](d)
    # the clock matrix of the Weyl set holds rounded roots of unity, -1 too
    assert products == ["c" if name == "weyl_twirl" else "f"]
    # the check reads the stack and writes nothing: the complex product
    # leaves the same operators, and gives the same verdict
    monkeypatch.setattr(hl, "_real_first", lambda f, m: f(m))
    assert NAMED_CHANNELS[name](d).kraus.tobytes() == chan.kraus.tobytes()


@pytest.mark.parametrize("unitary", [hl.shift_matrix, hl.clock_matrix], ids=["real", "complex"])
def test_a_kraus_stack_off_by_1e6_is_incomplete(unitary):
    ops = np.stack([np.eye(3), unitary(3)]) / np.sqrt(2)
    cat.KrausChannel(ops * (1 + 1e-9))
    with pytest.raises(ValueError, match="do not satisfy completeness"):
        cat.KrausChannel(ops * (1 + 1e-6))


def test_a_non_finite_kraus_entry_is_refused_before_any_product(monkeypatch):
    products = _record_products(monkeypatch)
    with pytest.raises(ValueError, match="non-finite entry"):
        cat.KrausChannel([[[1.0, 0.0], [0.0, np.nan]]])
    assert products == []


def test_bases_off_by_1e6_are_not_orthonormal():
    eye = np.eye(3)
    hl.EigenspaceDecomposition([0.5, 0.25], [eye[:, :1], eye[:, 1:] * (1 + 1e-9)])
    with pytest.raises(ValueError, match="not orthonormal"):
        hl.EigenspaceDecomposition([0.5, 0.25], [eye[:, :1], eye[:, 1:] * (1 + 1e-6)])
