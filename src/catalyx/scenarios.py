"""End-to-end protocol experiments: multi-party refuelling, depletion of a
randomness source, absorption bounds, the 4-partite conservation identity and
free-randomness accounting for classically correlated intermediates.

Every step that touches a catalyst goes through :func:`catalyx.catalysis.ledger`,
so the information-balance identity is enforced on each transition.  Each
transition is evolved once, inside the ledger, on the factor of its state
(ρ = XX†: the fresh inputs are pure and the catalysts of low rank), and the
scenario reads its marginals from the factor-held state the ledger returns,
through ``partial_trace`` and ``mutual_information``, which reuse each
marginal the ledger took; so no transition forms or diagonalizes its joint
D×D state.  Each scenario checks the joint state it will hold against the
one size budget, ``hilbert.MAX_BYTES``, before allocating.  The refuelling,
depletion and initialization scenarios are deterministic and take no seed;
only the checks that sample (``conservation_law_check``, ``absorption_check``)
take one.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np

from . import hilbert
from .catalysis import KrausChannel, LedgerRecord, ledger
from .constructions import initialization_classical, multiparty_unitary
from .entropy import _clip_zero, mutual_information, von_neumann, von_neumann_rows
from .hilbert import (
    DensityOperator,
    UnitaryOperator,
    clock_matrix,
    max_entangled,
    maximally_mixed,
    partial_trace,
    plus_state,
    trace_distance,
    weyl_set,
)


class ScenarioStep(NamedTuple):
    actor: str
    operation: str
    ledger: LedgerRecord | None
    marginals: dict[str, float]

    def to_json_dict(self) -> dict:
        return {
            "actor": self.actor,
            "operation": self.operation,
            "ledger": self.ledger.to_json_dict() if self.ledger else None,
            "marginals": dict(self.marginals),
        }


class ScenarioTrace(NamedTuple):
    name: str
    steps: tuple[ScenarioStep, ...]
    config: dict
    notices: tuple[str, ...] = ()

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "config": dict(self.config),
            "notices": list(self.notices),
            "steps": [s.to_json_dict() for s in self.steps],
        }

    def csv_rows(self) -> list[list[str]]:
        keys = sorted({k for s in self.steps for k in s.marginals})
        header = ["actor", "operation", "delta_S", "delta_I", "residual"] + keys
        rows = [header]
        for s in self.steps:
            if s.ledger is not None:
                ds = f"{s.ledger.s_out - s.ledger.s_in:.12g}"
                di = f"{s.ledger.delta_i:.12g}"
                res = f"{s.ledger.residual:.12g}"
            else:
                ds = di = res = ""
            rows.append(
                [s.actor, s.operation, ds, di, res]
                + [f"{s.marginals[k]:.12g}" if k in s.marginals else "" for k in keys]
            )
        return rows

    def reading(self, operation: str, key: str) -> float:
        for s in reversed(self.steps):
            if s.operation == operation and key in s.marginals:
                return s.marginals[key]
        raise KeyError(f"no reading {key!r} for operation {operation!r}")


# ---------------------------------------------------------------------------
# multi-party refuelling


def multiparty_refuel(d: int, rounds: int, classical: bool = False) -> ScenarioTrace:
    """Agents A and B alternate turns dephasing a fresh unbiased input with one
    shared maximally mixed d-level catalyst.

    With the quantum construction each turn fully depletes the catalyst for
    the acting agent while exactly refuelling it for the idle one.  With
    ``classical=True`` both agents instead use the catalyst through a fixed
    basis (d-level inputs, clock-power controls); the joint map then fails to
    factorize into independent dephasings.
    """
    if d < 2 or rounds < 1:
        raise ValueError("need d >= 2 and rounds >= 1")
    reg_dim = d if classical else d * d
    hilbert.check_size(
        (reg_dim * d) ** 2, f"multiparty refuelling at total dimension {reg_dim * d}"
    )
    notices: list[str] = []
    # fresh registers accumulate, so the joint state grows exponentially;
    # keep the rounds whose joint state fits the budget
    max_rounds = 1
    while max_rounds < rounds and hilbert.within_budget(
        (reg_dim ** (max_rounds + 1) * d) ** 2
    ):
        max_rounds += 1
    if max_rounds < rounds:
        notices.append(
            f"trace truncated to {max_rounds} rounds: round {max_rounds + 1} exceeds "
            f"the budget of {hilbert.MAX_BYTES} bytes (hilbert.MAX_BYTES)"
        )

    if classical:
        z = clock_matrix(d)
        turn_u = UnitaryOperator.controlled(
            [np.linalg.matrix_power(z, k) for k in range(d)], [d, d]
        )
    else:
        turn_u = multiparty_unitary(d)

    inter = maximally_mixed([d])
    reg_turn: list[int] = []  # turn number of each register in layout order
    steps: list[ScenarioStep] = []
    fresh = plus_state(reg_dim).density()

    for turn in range(1, max_rounds + 1):
        actor = "A" if turn % 2 == 1 else "B"
        n_inter = len(inter.layout.dims)
        on = [0, n_inter]  # the fresh register and the catalyst
        rec, inter = ledger(turn_u, fresh, inter, n_inter - 1, on=on)
        reg_turn = [turn] + reg_turn

        a_regs = [i for i, t in enumerate(reg_turn) if t % 2 == 1]
        b_regs = [i for i, t in enumerate(reg_turn) if t % 2 == 0]
        c_idx = len(inter.layout) - 1
        marg = {
            "S(C)": von_neumann(partial_trace(inter, [c_idx])),
            "I(A:C)": mutual_information(inter, a_regs, [c_idx]) if a_regs else 0.0,
        }
        if b_regs:
            marg["I(B:C)"] = mutual_information(inter, b_regs, [c_idx])
        if a_regs:
            tau_ac = partial_trace(inter, a_regs + [c_idx])
            marg["D(tau_AC, mm)"] = trace_distance(tau_ac, np.eye(tau_ac.dim) / tau_ac.dim)
        steps.append(ScenarioStep(actor, f"turn{turn}", rec, marg))

    if classical and max_rounds >= 2:
        # deviation of the joint two-turn output from the ideal product of
        # independent dephasings (which maps |+> ⊗ |+> to 1/d ⊗ 1/d)
        joint = partial_trace(inter, [0, 1])
        ideal = np.eye(reg_dim * reg_dim) / (reg_dim * reg_dim)
        steps.append(
            ScenarioStep(
                "B",
                "joint-check",
                None,
                {"D(joint, product)": trace_distance(joint, ideal)},
            )
        )

    return ScenarioTrace(
        name="multiparty_refuel",
        steps=tuple(steps),
        config={"d": d, "rounds": rounds, "classical": classical},
        notices=tuple(notices),
    )


# ---------------------------------------------------------------------------
# 4-partite conservation identity


class ConservationReport(NamedTuple):
    max_residual: float
    max_inequality_violation: float
    samples: int
    ok: bool


def conservation_law_check(
    seed: int = 0, n_samples: int = 100, dims: Sequence[int] = (2, 2, 2, 2)
) -> ConservationReport:
    """For Haar random 4-partite pure states on W, X, Y, Z check the identity
    2 S(Y) = I(X:Y) + I(Y:WZ) and the weaker 2 S(Y) >= I(X:Y) + I(Y:Z).

    Sampling is sound here: both hold for every pure state, so each sample
    fully tests the code and no maximum over states is being estimated.

    All samples are drawn at once, from the stream ``n_samples`` calls of
    ``haar_state`` would read, normalized and checked as ``StateVector``
    does, on the whole stack at once (``hilbert._unit_rows``), and held as
    one stack of rank-1 factors, so the joint pure states are never formed.
    Each of the seven marginals is solved for every sample in one stacked
    eigensolve on the smaller side of its cut, through the factor helpers
    ``partial_trace`` uses, and its entropies come from one
    ``von_neumann_rows`` call; the report equals, bit for bit, the one
    sample-by-sample marginals would give."""
    dims = [int(x) for x in dims]
    if len(dims) != 4 or any(x > 3 for x in dims):
        raise ValueError("need four factors of dimension <= 3")
    if n_samples < 1:
        raise ValueError(f"conservation check needs n_samples >= 1, got {n_samples}")
    layout = hilbert.SubsystemLayout(dims)
    hilbert.check_size(
        n_samples * layout.total_dim,
        f"conservation check with {n_samples} samples at dimension {layout.total_dim}",
    )
    rng = hilbert._rng(seed)
    z = rng.standard_normal((n_samples, 2, layout.total_dim))
    v = z[:, 0] + 1j * z[:, 1]
    # haar_state's division by the norm, then StateVector's check, on the stack
    x = hilbert._unit_rows(v / hilbert.frobenius(v[:, None])[:, None])[..., None]
    w_i, x_i, y_i, z_i = 0, 1, 2, 3
    groups = ([x_i], [y_i], [z_i], [x_i, y_i], [y_i, z_i], [w_i, z_i], [w_i, y_i, z_i])
    s_x, s_y, s_z, s_xy, s_yz, s_wz, s_wyz = (
        von_neumann_rows(hilbert.factor_spectrum(hilbert.factor_marginal(x, dims, g)))
        for g in groups
    )
    i_xy = s_x + s_y - s_xy
    i_ywz = s_y + s_wz - s_wyz
    i_yz = s_y + s_z - s_yz
    worst_res = max(0.0, float(np.abs(2 * s_y - i_xy - i_ywz).max()))
    worst_ineq = max(0.0, float((i_xy + i_yz - 2 * s_y).max()))
    return ConservationReport(
        max_residual=worst_res, max_inequality_violation=worst_ineq, samples=n_samples,
        ok=worst_res <= 1e-9 and worst_ineq <= 1e-9,
    )


# ---------------------------------------------------------------------------
# depletion of a randomness source


def depletion_demo(d: int, identity_maps: bool = False) -> ScenarioTrace:
    """Deplete a maximally mixed d-level catalyst with one full-production
    dephasing of a fresh d^2-level unbiased input, then attempt the same map a
    second time with the now-correlated intermediate.

    The joint output's mutual information I(A1:A2) is lower bounded by
    2 S^G - S_cat = 2 log2 d, certifying that the tensor-product map was not
    implemented (a product output would need I = 0).  With
    ``identity_maps=True`` the bound is non-positive and nothing obstructs.
    """
    if d < 2:
        raise ValueError("need d >= 2")
    hilbert.check_size((d**5) ** 2, f"depletion demo at total dimension {d**5}")
    reg = d * d
    if identity_maps:
        w = UnitaryOperator(np.eye(reg * d), [reg, d])
        production = 0.0
    else:
        w = multiparty_unitary(d)
        production = 2 * math.log2(d)  # dephasing of a d^2-level unbiased input
    s_cat = 2 * math.log2(d)
    bound = 2 * production - s_cat

    fresh = plus_state(reg).density()
    steps = []
    rec1, inter = ledger(w, fresh, maximally_mixed([d]), 0)
    steps.append(
        ScenarioStep("A", "use1", rec1, {"delta_I": rec1.delta_i, "S_cat": s_cat})
    )

    rec2, out = ledger(w, fresh, inter, 1, on=[0, 2])
    i_a1a2 = mutual_information(out, [0], [1])
    steps.append(
        ScenarioStep("A", "use2", rec2, {"I(A1:A2)": i_a1a2, "bound": bound})
    )
    return ScenarioTrace(name="depletion_demo", steps=tuple(steps),
                         config={"d": d, "identity_maps": identity_maps})


# ---------------------------------------------------------------------------
# absorption bound


class AbsorptionReport(NamedTuple):
    max_local_decrease: float
    min_global_increase_at_max: float
    ok: bool


def absorption_check(
    channel: KrausChannel, n_samples: int = 32, seed: int = 0
) -> AbsorptionReport:
    """Locate the sampled state γ whose entropy the channel decreases the most
    and check the global entropy increase S((1 ⊗ Phi)(ψ_γ)) of its
    purification dominates that decrease, within ``hilbert.ENTROPY_SLACK``.

    Sampling is sound here: Araki–Lieb gives S(RB) >= S(R) - S(B) state by
    state, so each sample fully tests the code and no maximum over states is
    being estimated.

    The candidates are the maximally mixed state, then ``n_samples`` draws
    from the stream that as many ``random_density([d], 1 + rng.integers(d),
    rng)`` calls would read (the rank, the Ginibre matrix, the weights, for
    each draw in turn), their Haar unitaries taken in one stacked QR.  Each
    candidate is held as its factor V√w, padded with zero columns to d×d, and
    all are solved as one stack: one ``factor_spectrum`` gives the input
    spectra, one ``stinespring`` call on the factors laid side by side gives
    the Stinespring factors Y (Phi(γ) = YY†), a reshape regroups them as a
    stack whose ``factor_spectrum`` gives the output spectra, and the global
    increase is read from the complementary output of the worst candidate (its
    Y regrouped as (·, n)), so no d²-dimensional output is formed.  The
    candidates are taken in chunks whose stacked Stinespring factors fit
    ``hilbert.MAX_BYTES``; at d <= 4 one chunk holds the default 33.  At
    d_out <= d the maximally mixed candidate's decrease is >= 0, so a
    negative maximum within 1e-9 of zero is rounding and reads 0.0."""
    if n_samples < 0:
        raise ValueError(f"absorption check needs n_samples >= 0, got {n_samples}")
    n, d_out, d = channel.kraus.shape
    per = d_out * d * n  # entries of one candidate's Stinespring factor
    hilbert.check_size(per, f"absorption check of {n} Kraus operators of {d_out}×{d}")
    chunk = hilbert.MAX_BYTES // (16 * per)
    rng = hilbert._rng(seed)
    best_dec, best_exchange = -np.inf, None
    for start in range(0, n_samples + 1, chunk):
        count = min(chunk, n_samples + 1 - start)
        drawn = count - (start == 0)
        g, w = np.empty((drawn, 2, d, d)), np.zeros((drawn, 1, d))
        for k in range(drawn):
            rank = 1 + int(rng.integers(d))
            g[k], w[k, 0, :rank] = hilbert.random_density_draws(d, rank, rng)
        x = hilbert.haar_from_normals(g) * np.sqrt(w)
        if not start:  # the maximally mixed state, 1·√(1/d), comes first
            x = np.concatenate([np.eye(d)[None] * math.sqrt(1 / d), x])
        s_in = von_neumann_rows(hilbert.factor_spectrum(x))
        y = channel.stinespring(x.transpose(1, 0, 2).reshape(d, count * d))
        y = y.reshape(d_out, count, d * n).transpose(1, 0, 2)
        dec = s_in - von_neumann_rows(hilbert.factor_spectrum(y))
        k = int(np.argmax(dec))
        if dec[k] > best_dec:  # keep only the complementary factor of the worst
            best_dec, best_exchange = float(dec[k]), y[k].reshape(-1, n)
    inc = von_neumann(hilbert.factor_spectrum(best_exchange))
    return AbsorptionReport(
        max_local_decrease=_clip_zero(best_dec),
        min_global_increase_at_max=inc,
        ok=inc >= best_dec - hilbert.ENTROPY_SLACK,
    )


# ---------------------------------------------------------------------------
# free randomness of a classically correlated intermediate


def free_randomness(intermediate: DensityOperator, n_a2: int) -> float:
    """2 S(B) - I(A2:B) for an intermediate on A2 ⊗ B in layout order."""
    b = range(n_a2, len(intermediate.layout))
    s_b = von_neumann(partial_trace(intermediate, b))
    i_ab = mutual_information(intermediate, range(n_a2), b) if n_a2 else 0.0
    return 2 * s_b - i_ab


class FreeRandomnessReport(NamedTuple):
    free_bits: float
    erasure_deviation: float
    ledger_record: LedgerRecord


def cq_free_randomness(d: int) -> FreeRandomnessReport:
    """A randomness source fully known to its user still works.

    The intermediate (1/d) sum |i><i| ⊗ |i><i| keeps 2 S(B) - I(A2:B) = log2 d
    bits of free randomness.  Spending it: dephase the input with a clock
    power controlled on B, then mask with a shift power controlled on the
    memory A2.  Acting on the unbiased input this produces the maximally
    mixed state exactly while preserving the whole intermediate.
    """
    if d < 2:
        raise ValueError("need d >= 2")
    hilbert.check_size((d**3) ** 2, f"cq_free randomness at total dimension {d**3}")
    intermediate = DensityOperator(np.diag(np.eye(d).reshape(-1)) / d, [d, d])
    free = free_randomness(intermediate, 1)

    # X^a Z^b on the input when the memory A2 reads a and the source B reads b
    u = UnitaryOperator.controlled(weyl_set(d), [d, d, d])
    rho = plus_state(d).density()
    rec, tau = ledger(u, rho, intermediate, 1)
    deviation = trace_distance(partial_trace(tau, [0]), np.eye(d) / d)
    return FreeRandomnessReport(
        free_bits=free, erasure_deviation=deviation, ledger_record=rec
    )


# ---------------------------------------------------------------------------
# initialization end-to-end


def initialization_scenario(d: int) -> ScenarioTrace:
    """Run the classical-intermediate initialization end to end: pure input
    (memory-catalyst correlation survives), maximally mixed input (entropy and
    intermediate correlation both drop by log2 d) and entangled input (both
    rise by log2 d)."""
    hilbert.check_size((d**4) ** 2, f"initialization scenario at total dimension {d**4}")
    gen = initialization_classical(d)
    u, inter = gen.unitary, gen.intermediate
    steps = []

    # catalyst marginal of the intermediate
    sigma_b = partial_trace(inter, [1])
    i_before = mutual_information(inter, [0], [1])
    steps.append(
        ScenarioStep(
            "setup",
            "intermediate",
            None,
            {
                "I(A':B)": i_before,
                "D(sigma_B, mm)": trace_distance(sigma_b, np.eye(d) / d),
            },
        )
    )

    rho_pure = hilbert.basis_state(d, 1).density()
    rec, tau = ledger(u, rho_pure, inter, gen.n_a2)
    marg = {
        "I(A':B)": mutual_information(tau, [1], [2]),
        "D(out_A, |0><0|)": trace_distance(
            partial_trace(tau, [0]), hilbert.basis_state(d, 0).density().matrix
        ),
    }
    steps.append(ScenarioStep("A", "pure-input", rec, marg))

    rho_mm = maximally_mixed([d])
    rec, tau = ledger(u, rho_mm, inter, gen.n_a2)
    marg = {
        "delta_I": rec.delta_i,
        "D(out_A, |0><0|)": trace_distance(
            partial_trace(tau, [0]), hilbert.basis_state(d, 0).density().matrix
        ),
    }
    steps.append(ScenarioStep("A", "mixed-input", rec, marg))

    # reference-extended run with a maximally entangled input
    gamma = hilbert.StateVector(max_entangled(d), [d, d])
    rec, _ = ledger(u, gamma.density(), inter, gen.n_a2, on=[1, 2, 3])
    steps.append(ScenarioStep("A", "entangled-input", rec, {"delta_I": rec.delta_i}))

    return ScenarioTrace(name="initialization_scenario", steps=tuple(steps), config={"d": d})
