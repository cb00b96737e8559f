"""Acceptance suite: every shipped claim at its stated tolerance, one printed
pass/fail line per criterion (run with -s to watch them)."""

import json
import math
import subprocess
import sys

import numpy as np
import pytest
from util import ea_objective, party_swap

from catalyx import catalysis as cat
from catalyx import constructions as con
from catalyx import entropy as ent
from catalyx import hilbert as hl
from catalyx import optimize as opt
from catalyx import scenarios as sc
from catalyx.hilbert import (
    DensityOperator,
    UnitaryOperator,
    haar_unitary,
    maximally_mixed,
    plus_state,
    random_density,
)

CNOT = UnitaryOperator(np.eye(4)[:, [0, 1, 3, 2]], [2, 2])


def _report(num: int, name: str, ok: bool = True) -> None:
    print(f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'}")


def run_criterion(num: int, name: str, fn) -> None:
    try:
        fn()
    except BaseException:
        _report(num, name, ok=False)
        raise
    _report(num, name)


def controlled_instance(d_a: int, d_b: int, seed: int):
    rng = np.random.default_rng(seed)
    u = np.zeros((d_a * d_b, d_a * d_b), dtype=complex)
    for x in range(d_b):
        e = np.zeros((d_b, d_b))
        e[x, x] = 1.0
        u += np.kron(hl.haar_unitary_matrix(d_a, rng), e)
    return cat.canonical_form(
        UnitaryOperator(u, [d_a, d_b]), maximally_mixed([d_b]), seed=seed
    )


EXTRACTION_SIGMAS = [
    maximally_mixed([2]),
    maximally_mixed([3]),
    DensityOperator(np.diag([0.5, 0.25, 0.25]), [3]),
    DensityOperator(np.diag([1 / 3, 1 / 3, 1 / 6, 1 / 6]), [4]),
]


@pytest.fixture(scope="module")
def instance_suite():
    """One hundred certified catalysis instances of assorted provenance."""
    instances = []
    rng = np.random.default_rng(2024)
    # 40 classical catalyses (random unitary operations)
    for s in range(40):
        d_a = 2 + s % 2
        n = 2 + s % 3
        if s % 4 == 0:
            p = np.full(n, 1.0 / n)
        elif s % 4 == 1 and n >= 2:
            p = np.array([0.3] * 2 + [0.4 / (n - 2)] * (n - 2)) if n > 2 else np.array([0.5, 0.5])
        else:
            p = rng.dirichlet(np.ones(n))
        us = [hl.haar_unitary_matrix(d_a, rng) for _ in range(n)]
        instances.append(cat.classical_catalysis(p, us, seed=s))
    # 12 degeneracy-vector dephasings
    for r in [(1,), (2,), (3,), (1, 2), (1, 3), (2, 2), (1, 1), (2, 1), (1, 2, 2),
              (4,), (2, 3), (1, 1, 2)]:
        instances.append(con.dephasing_catalysis(r))
    # 2 shared-catalyst dephasings
    for d in (2, 3):
        instances.append(con.multiparty_instance(d))
    # 4 double random unitary operations
    for d in (2, 3, 4):
        z = hl.clock_matrix(d)
        fam = [np.linalg.matrix_power(z, k) for k in range(d)]
        instances.append(con.double_random(d, fam, fam))
    instances.append(con.double_random(2, [np.eye(2)] * 2, [np.eye(2)] * 2))
    # 16 maximal-extraction constructions
    for sigma in EXTRACTION_SIGMAS:
        instances.append(con.max_extraction_catalysis(sigma).instance)
    for s in range(12):
        d = 2 + s % 3
        diag = np.sort(rng.dirichlet(np.ones(d)))[::-1]
        while np.min(np.abs(np.diff(diag))) < 1e-3:  # keep spectra nondegenerate
            diag = np.sort(rng.dirichlet(np.ones(d)))[::-1]
        sigma = DensityOperator(np.diag(diag), [d])
        instances.append(con.max_extraction_catalysis(sigma).instance)
    # 26 basis-controlled families with maximally mixed catalysts
    for s in range(26):
        instances.append(controlled_instance(2 + s % 2, 2 + s % 3, 100 + s))
    assert len(instances) == 100
    return instances


# ---------------------------------------------------------------------------
# 1. partial-transpose characterization


def test_criterion_01_partial_transpose_characterization():
    def body():
        passing = []
        for r in [(2,), (3,), (1, 2), (1, 3), (2, 2)]:
            inst = con.dephasing_catalysis(r)
            passing.append((inst.unitary, 1))
        for d in (2, 3):
            passing.append((con.multiparty_unitary(d), 1))
        for s in range(3):
            rng = np.random.default_rng(s)
            us = [hl.haar_unitary_matrix(2, rng) for _ in range(3)]
            inst = cat.classical_catalysis(rng.dirichlet(np.ones(3)), us, seed=s)
            passing.append((inst.unitary, 1))
        z = hl.clock_matrix(2)
        passing.append(
            (con.double_random(2, [np.eye(2), z], [np.eye(2), z]).unitary, 1)
        )
        for u, a_count in passing:
            v = cat.is_catalysis_unitary(u, cut=range(a_count))
            assert v.verdict and v.defect <= 1e-9
            # closure: the inverse and the party-swapped version also pass
            dag = UnitaryOperator(u.matrix.conj().T, u.layout)
            assert cat.is_catalysis_unitary(dag, cut=range(a_count)).defect <= 1e-9
            b_count = len(u.layout.dims) - a_count
            swapped = party_swap(u, a_count)
            assert cat.is_catalysis_unitary(swapped, cut=range(b_count)).defect <= 1e-9

        # generalized initialization unitaries certify over the cut that
        # separates the stored randomness from the rest
        u_init = con.initialization_classical(3).unitary
        assert cat.is_catalysis_unitary(u_init, cut=[1]).defect <= 1e-9
        u_mask = con.initialization_masking(2).unitary
        assert cat.is_catalysis_unitary(u_mask, cut=[5]).defect <= 1e-9
        assert cat.is_catalysis_unitary(u_mask, cut=[0, 3]).defect <= 1e-9

        for seed in range(100):
            u = haar_unitary(16, seed, layout=[4, 4])
            assert not cat.is_catalysis_unitary(u).verdict

    run_criterion(1, "partial-transpose characterization", body)


# ---------------------------------------------------------------------------
# 2. equivalence of the catalysis conditions


def test_criterion_02_condition_equivalence(instance_suite):
    def body():
        assert len(instance_suite) == 100
        for inst in instance_suite:
            rep = cat.verify_catalysis_exhaustive(
                inst.unitary, inst.sigma, a_count=inst.a_count
            )
            assert rep.max_deviation <= 1e-9
            assert cat.is_catalysis_unitary(inst.unitary, range(inst.a_count)).verdict
            assert rep.compatible

        swap2 = UnitaryOperator(hl.swap_matrix(2), [2, 2])
        swap3 = UnitaryOperator(hl.swap_matrix(3), [3, 3])
        broken = [
            (swap2, DensityOperator(np.diag([0.75, 0.25]), [2])),
            (swap3, maximally_mixed([3])),
            (CNOT, hl.basis_state(2, 0).density()),
            (CNOT, DensityOperator(np.diag([0.7, 0.3]), [2])),
            (CNOT, DensityOperator(np.diag([0.6, 0.4]), [2])),
        ]
        for s in range(5):
            broken.append((haar_unitary(16, s, layout=[4, 4]), maximally_mixed([4])))
        for s in range(5):
            broken.append((haar_unitary(4, 50 + s, layout=[2, 2]), maximally_mixed([2])))
        plusminus = 0.75 * plus_state(2).density().matrix + 0.25 * np.array(
            [[0.5, -0.5], [-0.5, 0.5]]
        )
        for s in range(5):
            rng = np.random.default_rng(200 + s)
            u = np.zeros((4, 4), dtype=complex)
            for x in range(2):
                e = np.zeros((2, 2))
                e[x, x] = 1.0
                u += np.kron(hl.haar_unitary_matrix(2, rng), e)
            broken.append(
                (UnitaryOperator(u, [2, 2]), DensityOperator(plusminus, [2]))
            )
        assert len(broken) == 20
        for u, sigma in broken:
            rep = cat.verify_catalysis_exhaustive(u, sigma)
            assert rep.max_deviation > 1e-9
            # incompatible, unless not even a catalysis unitary
            assert not rep.compatible or not cat.is_catalysis_unitary(u).verdict

    run_criterion(2, "catalysis-condition equivalence", body)


# ---------------------------------------------------------------------------
# 3. catalytic entropy closed forms


def brute_force_catalytic_entropy(diagonal) -> float:
    """Independent recomputation: group exactly equal eigenvalues and apply
    the defining sum."""
    from collections import Counter

    counts = Counter(diagonal)
    return -sum(lam * r * math.log2(lam / r) for lam, r in counts.items())


def test_criterion_03_catalytic_entropy_closed_forms():
    def body():
        for d in (2, 3, 4, 5, 8):
            dec = hl.eigenspace_decompose(maximally_mixed([d]))
            assert ent.catalytic_entropy(dec) == pytest.approx(
                2 * math.log2(d), abs=1e-12
            )
        diagonal = (0.5, 0.25, 0.25)
        sigma = DensityOperator(np.diag(diagonal), [3])
        value = ent.catalytic_entropy(hl.eigenspace_decompose(sigma))
        assert abs(value - 2.0) <= 1e-10
        assert abs(value - brute_force_catalytic_entropy(diagonal)) <= 1e-10

        rng = np.random.default_rng(7)
        from util import random_decomposition

        for _ in range(1000):
            dec = random_decomposition(rng)
            for alpha in (0.5, 2.0):
                res = ent.catalytic_renyi_divergence_form(dec, alpha)
                assert res.residual <= 1e-9

    run_criterion(3, "catalytic entropy closed forms", body)


# ---------------------------------------------------------------------------
# 4. achievability and converse


def test_criterion_04_achievability_and_converse(instance_suite):
    def body():
        alphas = (0.5, 1.0, 2.0, math.inf)
        for sigma in EXTRACTION_SIGMAS:
            res = con.max_extraction_catalysis(sigma)
            chan = cat.channel_to_kraus(res.instance)
            rho = res.input_state.density().matrix
            dec = hl.eigenspace_decompose(sigma)
            for alpha in alphas:
                prod = opt.global_production(chan, rho, res.instance.a_dim, alpha)
                assert abs(prod - ent.catalytic_renyi(dec, alpha)) <= 1e-7

        # converse: per channel, the certified maximum at alpha in {1/2, 1, 2}
        # meets the bound, and 10^4 aggregate sampled productions never beat it
        rng = np.random.default_rng(11)
        converse_set = [
            inst
            for inst in instance_suite
            if inst.a_dim <= 9 and not inst.decomposition
        ][:20]
        refined_set = [inst for inst in instance_suite if inst.decomposition][:5]
        total = 0
        for inst in converse_set:
            chan = cat.channel_to_kraus(inst)
            dec = hl.eigenspace_decompose(inst.sigma)
            bounds = {a: ent.catalytic_renyi(dec, a) for a in alphas}
            for a in (0.5, 1.0, 2.0):
                bound = opt.max_entropy_production_global(chan, a, restarts=1).upper_bound
                assert bound is not None and bound <= bounds[a] + 1e-9
            d = inst.a_dim
            for _ in range(100):
                v = hl.haar_state(d * d, rng).amplitudes
                rho = np.outer(v, v.conj())
                for a in alphas:
                    assert opt.global_production(chan, rho, d, a) <= bounds[a] + 1e-7
                    total += 1
        for inst in refined_set:
            chan = cat.channel_to_kraus(inst)
            # the refinement imposed by the construction bounds harder
            lams, mults = [], []
            for w, sub in inst.decomposition:
                lams.append(w / sub.b_dim)
                mults.append(sub.b_dim)
            order = np.argsort(lams)[::-1]
            lams = np.asarray(lams)[order]
            mults = np.asarray(mults, dtype=float)[order]
            d = inst.a_dim
            for _ in range(100):
                v = hl.haar_state(d * d, rng).amplitudes
                rho = np.outer(v, v.conj())
                for a in alphas:
                    if a == 1.0:
                        bound = float(-(lams * mults * np.log2(lams / mults)).sum())
                    elif a == math.inf:
                        bound = float(-np.log2((lams / mults).max()))
                    else:
                        bound = float(
                            np.log2((lams**a * mults ** (2 - a)).sum()) / (1 - a)
                        )
                    assert opt.global_production(chan, rho, d, a) <= bound + 1e-7
                    total += 1
        assert total >= 10_000

    run_criterion(4, "extraction achievability and converse", body)


def test_cost_bound_certificates_sit_within_the_entropy_slack(instance_suite):
    # cost_bound_check compares the catalyst entropy against the certified
    # upper bound, and some suite instances meet the bound with equality: a
    # certificate looser than the slack there would fail a bound that holds
    small = [inst for inst in instance_suite if inst.a_dim <= 9]
    assert len(small) == 97
    for inst in small:
        res = opt.max_entropy_production_global(cat.channel_to_kraus(inst), 1.0, restarts=1)
        factor = 1.0 if inst.classical else 0.5
        assert res.upper_bound is not None
        assert factor * (res.upper_bound - res.value) <= hl.ENTROPY_SLACK, inst


# ---------------------------------------------------------------------------
# 5. conservation-law catalysts


def test_criterion_05_conservation_law_catalysts():
    def body():
        for l_max, value in ((0, 1), (1, 10), (2, 35), (3, 84)):
            res = con.angular_momentum_catalyst(l_max)
            assert abs(res.s_cat - math.log2(value)) <= 1e-12
            dec = con.degeneracy_decomposition(
                [2 * l + 1 for l in range(l_max + 1)]
            )
            assert abs(ent.catalytic_entropy(dec) - res.s_cat) <= 1e-10

        for r in [(2,), (3,), (4,), (5,), (6,), (1, 2), (1, 3), (2, 2), (1, 2, 3),
                  (3, 3), (2, 4), (1, 1, 1, 1)]:
            inst = con.dephasing_catalysis(r)
            assert inst.a_dim <= 36
            for seed in range(3):
                rho = random_density([inst.a_dim], inst.a_dim, seed)
                out = cat.implement_channel(inst, rho).matrix
                off = np.abs(out - np.diag(np.diag(out))).max()
                assert off <= 1e-10
                assert np.abs(np.diag(out) - np.diag(rho.matrix)).max() <= 1e-10

    run_criterion(5, "conservation-law catalysts and exact dephasing", body)


# ---------------------------------------------------------------------------
# 6. ledger identity on every transition


def test_criterion_06_global_ledger(instance_suite):
    def body():
        records = []
        for inst in instance_suite[:10]:
            d = inst.a_dim
            for s in range(50):
                rho = random_density([d], 1 + s % d, 1000 + s)
                records.append(cat.ledger_for_instance(inst, rho))
        assert len(records) >= 500
        worst = max(rec.residual for rec in records)
        assert worst <= 1e-8

    run_criterion(6, "information-balance ledger", body)


# ---------------------------------------------------------------------------
# 7. multi-party refuelling


def test_criterion_07_multiparty_refuelling():
    def body():
        tr = sc.multiparty_refuel(2, 2)
        last = tr.steps[-1].marginals
        assert last["I(A:C)"] <= 1e-9
        assert last["D(tau_AC, mm)"] <= 1e-9  # tau_AC = 1/8 exactly
        classical = sc.multiparty_refuel(2, 2, classical=True)
        assert classical.steps[-1].marginals["D(joint, product)"] > 0.1

    run_criterion(7, "multi-party refuelling", body)


# ---------------------------------------------------------------------------
# 8. depletion bound


def test_criterion_08_depletion():
    def body():
        for d in (2, 3):
            tr = sc.depletion_demo(d)
            last = tr.steps[-1].marginals
            assert last["I(A1:A2)"] >= 2 * math.log2(d) - 1e-7

    run_criterion(8, "depletion of a saturated source", body)


# ---------------------------------------------------------------------------
# 9. capacity-randomness tradeoff


def test_criterion_09_tradeoff(instance_suite):
    def body():
        inst = con.dephasing_catalysis([2])
        rep = opt.tradeoff_check(inst)
        assert abs(rep.lhs - 2.0) <= 1e-4 and abs(rep.rhs - 2.0) <= 1e-12
        assert rep.ok
        # cross-check the capacity against a brute-force diagonal grid
        chan = cat.channel_to_kraus(inst)
        grid = max(
            ea_objective(chan, np.diag(p).astype(complex))
            for p in np.random.default_rng(0).dirichlet(np.ones(4), size=300)
        )
        grid = max(grid, ea_objective(chan, np.eye(4) / 4))
        assert abs(rep.capacity - grid) <= 1e-4

        # the min-entropy bound is valid on catalysts with flat block ratios
        # or uniform block weights (every canonical construction); the
        # catalytic-entropy bound holds across the board
        canonical = [
            con.dephasing_catalysis(r) for r in [(1, 2), (1, 3), (2, 2)]
        ]
        canonical += [con.multiparty_instance(2)]
        z = hl.clock_matrix(2)
        canonical += [con.double_random(2, [np.eye(2), z], [np.eye(2), z])]
        canonical += [
            inst for inst in instance_suite[:12]
            if inst.a_dim <= 4 and _uniform_weights(inst)
        ][:4]
        canonical += [con.max_extraction_catalysis(maximally_mixed([2])).instance]
        for inst in canonical:
            rep = opt.tradeoff_check(inst)
            assert rep.ok, rep
            assert rep.ok_vn, rep
        # the weaker bound also covers the non-flat instances
        for inst in instance_suite[:4]:
            assert opt.tradeoff_check(inst).ok_vn

    run_criterion(9, "capacity-randomness tradeoff", body)


def _uniform_weights(inst) -> bool:
    ws = [w for w, _ in inst.decomposition] or [1.0]
    return max(ws) - min(ws) <= 1e-12


# ---------------------------------------------------------------------------
# 10. four-partite conservation identity


def test_criterion_10_conservation_identity():
    def body():
        rep = sc.conservation_law_check(seed=5, n_samples=100, dims=(2, 2, 2, 2))
        assert rep.max_residual <= 1e-9
        assert rep.max_inequality_violation <= 1e-9
        assert rep.ok

    run_criterion(10, "four-partite conservation identity", body)


# ---------------------------------------------------------------------------
# 11. optimizer sanity


def test_criterion_11_optimizer_sanity():
    def body():
        for d in (2, 3):
            res = opt.ea_capacity(cat.identity_channel(d), seed=1)
            assert abs(res.value - 2 * math.log2(d)) <= 1e-5

        rng = np.random.default_rng(23)
        chan = cat.dephasing_channel(3)
        h = 1e-5
        for _ in range(20):
            el = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            _, g = opt.ea_objective_gradient(chan, el)
            dl = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            fp, _ = opt.ea_objective_gradient(chan, el + h * dl)
            fm, _ = opt.ea_objective_gradient(chan, el - h * dl)
            fd = (fp - fm) / (2 * h)
            assert abs(fd - 2 * np.real(np.vdot(g, dl))) <= 1e-5 * max(1.0, abs(fd))

        res = opt.max_entropy_production_global(cat.dephasing_channel(2), 1.0, seed=0)
        assert abs(res.value - 1.0) <= 1e-6
        res = opt.max_entropy_production_global(cat.erasure_channel(2), 1.0, seed=0)
        assert abs(res.value - 2.0) <= 1e-6

    run_criterion(11, "optimizer sanity", body)


# ---------------------------------------------------------------------------
# 12. determinism


def test_criterion_12_determinism(tmp_path):
    def body():
        def strip(obj):
            if isinstance(obj, dict):
                return {k: strip(v) for k, v in obj.items() if k != "timestamp"}
            if isinstance(obj, list):
                return [strip(v) for v in obj]
            return obj

        outputs = []
        for tag in ("x", "y"):
            out = tmp_path / f"trace_{tag}.json"
            res = subprocess.run(
                [sys.executable, "-m", "catalyx", "scenario", "multiparty",
                 "--d", "2", "--rounds", "2", "--seed", "11", "--out", str(out)],
                capture_output=True, text=True, timeout=300,
            )
            assert res.returncode == 0
            outputs.append(json.dumps(strip(json.load(open(out))), sort_keys=True))
        assert outputs[0] == outputs[1]

        outputs = []
        for tag in ("x", "y"):
            outdir = tmp_path / f"c_{tag}"
            res = subprocess.run(
                [sys.executable, "-m", "catalyx", "construct",
                 "dephasing_degeneracy", "--r", "1,3", "--seed", "4",
                 "--out", str(outdir)],
                capture_output=True, text=True, timeout=300,
            )
            assert res.returncode == 0
            bundle = json.load(open(outdir / "dephasing_degeneracy_unitary.json"))
            outputs.append(json.dumps(strip(bundle), sort_keys=True))
        assert outputs[0] == outputs[1]

    run_criterion(12, "seeded determinism", body)


# ---------------------------------------------------------------------------
# 13. a unital channel that is not catalytic


def test_criterion_13_unital_channel_not_catalytic():
    def body():
        wh = cat.werner_holevo_channel(3)
        assert np.abs(wh.apply_matrix(np.eye(3)) - np.eye(3)).max() <= 1e-12
        # Kraus rank 3 and all 9 products K_i†K_j independent: a factorizable
        # channel of this kind is a unitary conjugation, so this one is not
        # factorizable, hence not catalytic
        assert cat.kraus_products_rank(wh) == (9, 3)
        # on a catalytic channel the witness is inconclusive, as it must be
        assert cat.kraus_products_rank(cat.dephasing_channel(3)) == (3, 3)

    run_criterion(13, "a unital channel that is not catalytic", body)
