import math

import numpy as np
import pytest

from util import random_decomposition

from catalyx import entropy as ent
from catalyx.hilbert import (
    DensityOperator,
    EigenspaceDecomposition,
    eigenspace_decompose,
    maximally_mixed,
    random_density,
)

DIAG = DensityOperator(np.diag([0.5, 0.25, 0.25]), [3])


# ---------------------------------------------------------------------------
# plain entropies


def test_von_neumann_examples():
    assert ent.von_neumann(random_density([4], 1, 0)) == pytest.approx(0.0, abs=1e-10)
    assert ent.von_neumann(maximally_mixed([8])) == pytest.approx(3.0)
    assert ent.von_neumann(DIAG) == pytest.approx(1.5)


def test_renyi_examples():
    for alpha in (0.2, 0.5, 1.0, 2.0, 7.0, math.inf):
        assert ent.renyi(maximally_mixed([4]), alpha) == pytest.approx(2.0)
    assert ent.renyi(DIAG, math.inf) == pytest.approx(1.0)
    assert ent.renyi(DIAG, 2.0) == pytest.approx(-math.log2(3 / 8))
    assert ent.renyi(DIAG, 0.0) == pytest.approx(math.log2(3))
    with pytest.raises(ValueError):
        ent.renyi(DIAG, -0.5)


def test_nan_order_is_refused():
    # a NaN order compares False against every bound, so it must be refused
    # by name, not slip past "alpha < 0"
    dec = eigenspace_decompose(DIAG)
    for call in (lambda: ent.renyi(DIAG, math.nan),
                 lambda: ent.catalytic_renyi(dec, math.nan),
                 lambda: ent.renyi_divergence([0.5, 0.5], [0.5, 0.5], math.nan)):
        with pytest.raises(ValueError, match="nonnegative, got nan"):
            call()


def test_renyi_limit_continuity():
    for seed in range(5):
        rho = random_density([5], 5, seed)
        vn = ent.von_neumann(rho)
        assert ent.renyi(rho, 1 + 1e-6) == pytest.approx(vn, abs=1e-4)
        assert ent.renyi(rho, 1 - 1e-6) == pytest.approx(vn, abs=1e-4)


def test_renyi_monotone_chain():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        p = rng.dirichlet(np.ones(int(rng.integers(2, 7))))
        s_min = ent.min_entropy(p)
        s_half = ent.renyi(p, 0.5)
        s_two = ent.renyi(p, 2.0)
        s_vn = ent.von_neumann(p)
        assert s_min - 1e-10 <= s_two <= s_vn + 1e-10
        assert s_vn - 1e-10 <= s_half <= ent.max_entropy(p) + 1e-10


def test_mutual_information_examples():
    rho = random_density([2], 2, 0)
    sig = random_density([3], 3, 1)
    joint = DensityOperator(np.kron(rho.matrix, sig.matrix), [2, 3])
    assert ent.mutual_information(joint, [0], [1]) == pytest.approx(0.0, abs=1e-9)

    bell = np.zeros((4, 4), dtype=complex)
    v = np.array([1, 0, 0, 1]) / np.sqrt(2)
    bell = np.outer(v, v)
    assert ent.mutual_information(DensityOperator(bell, [2, 2]), [0], [1]) == pytest.approx(2.0)

    m = np.zeros((9, 9), dtype=complex)
    for i in range(3):
        m[i * 3 + i, i * 3 + i] = 1 / 3
    cc = DensityOperator(m, [3, 3])
    assert ent.mutual_information(cc, [0], [1]) == pytest.approx(math.log2(3))


def test_mutual_information_errors():
    rho = maximally_mixed([2, 2])
    with pytest.raises(ValueError):
        ent.mutual_information(rho, [0], [0, 1])
    with pytest.raises(ValueError):
        ent.mutual_information(rho, [0], [])


def test_renyi_divergence_examples():
    p = np.array([0.3, 0.7])
    for alpha in (0.5, 1.0, 2.0, math.inf):
        assert ent.renyi_divergence(p, p, alpha) == pytest.approx(0.0, abs=1e-12)
    assert ent.renyi_divergence([1, 0], [0.5, 0.5], 2.0) == pytest.approx(1.0)
    kl = ent.renyi_divergence([0.9, 0.1], [0.5, 0.5], 1.0)
    assert kl == pytest.approx(0.531, abs=5e-4)
    with pytest.raises(ValueError):
        ent.renyi_divergence([1, 0], [0, 1], 2.0)


def test_renyi_divergence_nonnegative():
    rng = np.random.default_rng(1)
    for _ in range(200):
        p = rng.dirichlet(np.ones(4))
        q = rng.dirichlet(np.ones(4)) + 1e-3
        q = q / q.sum()
        for alpha in (0.5, 1.0, 2.0):
            assert ent.renyi_divergence(p, q, alpha) >= -1e-10


# ---------------------------------------------------------------------------
# catalytic family


def test_degeneracy_vector():
    r = ent.DegeneracyVector([1, 3])
    assert r.norm2sq == 10
    with pytest.raises(ValueError):
        ent.DegeneracyVector([0, 2])


def test_average_degeneracy_examples():
    rho = DensityOperator(np.diag([0.4, 0.3, 0.2, 0.1]), [4])
    assert ent.average_degeneracy(eigenspace_decompose(rho)) == pytest.approx(0.0)
    for d in (2, 3, 5):
        dec = eigenspace_decompose(maximally_mixed([d]))
        assert ent.average_degeneracy(dec) == pytest.approx(math.log2(d))
    assert ent.average_degeneracy(eigenspace_decompose(DIAG)) == pytest.approx(0.5)


def test_catalytic_entropy_examples():
    pure = eigenspace_decompose(random_density([3], 1, 2))
    assert ent.catalytic_entropy(pure) == pytest.approx(0.0, abs=1e-9)
    for d in (2, 4):
        dec = eigenspace_decompose(maximally_mixed([d]))
        assert ent.catalytic_entropy(dec) == pytest.approx(2 * math.log2(d))
    assert ent.catalytic_entropy(eigenspace_decompose(DIAG)) == pytest.approx(2.0)


def test_catalytic_entropy_is_sum_rule():
    rng = np.random.default_rng(3)
    for _ in range(200):
        dec = random_decomposition(rng)
        s = -sum(
            v * r * math.log2(v)
            for v, r in zip(dec.eigenvalues, dec.multiplicities)
        )
        assert abs(
            ent.catalytic_entropy(dec) - (s + ent.average_degeneracy(dec))
        ) <= 1e-10


def test_catalytic_renyi_examples():
    dec = eigenspace_decompose(DIAG)
    assert ent.catalytic_renyi(dec, math.inf) == pytest.approx(1.0)
    assert ent.catalytic_renyi(dec, 2.0) == pytest.approx(math.log2(16 / 5))
    assert ent.catalytic_renyi(dec, 0.0) == pytest.approx(math.log2(5))
    assert ent.catalytic_renyi(dec, 1.0) == pytest.approx(ent.catalytic_entropy(dec))
    assert ent.catalytic_renyi(dec, 1 + 1e-12) == pytest.approx(
        ent.catalytic_entropy(dec)
    )
    with pytest.raises(ValueError):
        ent.catalytic_renyi(dec, -1.0)


def test_catalytic_chain_monotone():
    rng = np.random.default_rng(4)
    alphas = [0.0, 0.3, 0.7, 1.0, 1.5, 3.0, 10.0, math.inf]
    for _ in range(1000):
        dec = random_decomposition(rng)
        values = [ent.catalytic_renyi(dec, a) for a in alphas]
        for lo, hi in zip(values[1:], values[:-1]):
            assert lo <= hi + 1e-10
        assert ent.catalytic_min_entropy(dec) <= values[0] + 1e-10


def test_min_entropy_below_catalytic_min():
    rng = np.random.default_rng(5)
    for _ in range(300):
        dec = random_decomposition(rng)
        spectrum = np.concatenate(
            [np.full(r, v) for v, r in zip(dec.eigenvalues, dec.multiplicities)]
        )
        assert ent.min_entropy(spectrum) <= ent.catalytic_min_entropy(dec) + 1e-10


def test_divergence_form():
    dec = eigenspace_decompose(DIAG)
    res = ent.catalytic_renyi_divergence_form(dec, 2.0)
    assert res.value == pytest.approx(math.log2(16 / 5))
    assert res.residual < 1e-12

    # the optimal catalyst makes the divergence vanish for every alpha
    r = (1, 3)
    n2 = 10
    eye = np.eye(4)
    opt = EigenspaceDecomposition([3 / n2, 1 / n2], [eye[:, 1:], eye[:, :1]])
    for alpha in (0.5, 1.0, 2.0, math.inf):
        res = ent.catalytic_renyi_divergence_form(opt, alpha)
        assert res.value == pytest.approx(math.log2(10))
        assert res.residual < 1e-9

    # a single eigenspace gives 2 log2 d for every alpha
    single = eigenspace_decompose(maximally_mixed([4]))
    for alpha in (0.0, 0.5, 1.0, 2.0, math.inf):
        assert ent.catalytic_renyi_divergence_form(single, alpha).value == pytest.approx(4.0)


def test_divergence_form_residual_sweep():
    rng = np.random.default_rng(6)
    for _ in range(1000):
        dec = random_decomposition(rng)
        for alpha in (0.5, 2.0):
            assert ent.catalytic_renyi_divergence_form(dec, alpha).residual <= 1e-9


def _blocks(eigenvalues, multiplicities):
    """Eigenspace data on contiguous identity-column blocks."""
    eye = np.eye(sum(multiplicities))
    ends = np.cumsum(multiplicities)
    return EigenspaceDecomposition(
        eigenvalues, [eye[:, e - r : e] for r, e in zip(multiplicities, ends)])


@pytest.mark.parametrize("quantity", [
    ent.catalytic_entropy, ent.catalytic_max_entropy, ent.catalytic_min_entropy,
    lambda dec: ent.catalytic_renyi(dec, 2.0), lambda dec: ent.catalytic_renyi(dec, 0.5),
], ids=["vn", "max", "min", "renyi2", "renyi_half"])
def test_a_zero_block_adds_nothing(quantity):
    # 0 log 0 = 0, and the support of (1, 0) is one block of one dimension;
    # a RuntimeWarning is an error in this suite
    assert quantity(_blocks([1.0, 0.0], [1, 1])) == 0.0


def test_the_catalytic_family_reads_the_support_only():
    with_zero, support = _blocks([0.5, 0.25, 0.0], [1, 2, 1]), _blocks([0.5, 0.25], [1, 2])
    for alpha in (0.0, 0.5, 1.0, 2.0, 3.0, math.inf):
        assert ent.catalytic_renyi(with_zero, alpha) == ent.catalytic_renyi(support, alpha)
    assert ent.catalytic_max_entropy(with_zero) == pytest.approx(math.log2(5))


@pytest.mark.parametrize("alpha", [0.0, 0.5, 2.0, math.inf])
def test_the_divergence_form_agrees_with_a_zero_block(alpha):
    res = ent.catalytic_renyi_divergence_form(_blocks([0.5, 0.25, 0.0], [1, 2, 1]), alpha)
    assert res.residual <= 1e-12


def test_entropy_report_keys_and_values():
    rep = ent.entropy_report(DIAG)
    d = rep.to_json_dict()
    assert set(d) == {
        "vn",
        "renyi",
        "min",
        "max",
        "catalytic_vn",
        "catalytic_renyi",
        "catalytic_min",
        "catalytic_max",
        "avg_degeneracy",
    }
    assert d["vn"] == pytest.approx(1.5)
    assert d["catalytic_vn"] == pytest.approx(2.0)
    assert d["min"] == pytest.approx(1.0)
    assert d["catalytic_max"] == pytest.approx(math.log2(5))

    pure = ent.entropy_report(random_density([3], 1, 8))
    for key in ("vn", "catalytic_vn", "catalytic_min", "catalytic_max", "avg_degeneracy"):
        assert pure.to_json_dict()[key] == pytest.approx(0.0, abs=1e-8)


def test_report_ordering_invariant():
    for seed in range(20):
        rho = random_density([6], 6, seed)
        rep = ent.entropy_report(rho, alphas=(0.5, 2.0))
        assert rep.min <= rep.renyi[2.0] + 1e-10
        assert rep.renyi[2.0] <= rep.vn + 1e-10
        assert rep.vn <= rep.renyi[0.5] + 1e-10
        assert rep.renyi[0.5] <= rep.max + 1e-10
        assert rep.catalytic_min <= rep.catalytic_renyi[2.0] + 1e-10
        assert rep.catalytic_renyi[2.0] <= rep.catalytic_vn + 1e-10
        assert rep.catalytic_vn <= rep.catalytic_renyi[0.5] + 1e-10
        assert rep.catalytic_renyi[0.5] <= rep.catalytic_max + 1e-10
