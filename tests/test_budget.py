"""The one size budget: ``hilbert.MAX_BYTES``, checked by ``hilbert.check_size``
before anything a caller sizes is allocated.

Every construction, scenario and the conservation sample stack keep the limit
16·D² ≤ 2^28 (D ≤ 4096); each refusal here is at the first size past it and
allocates nothing.
"""

import pytest

from catalyx import catalysis as cat
from catalyx import constructions as con
from catalyx import hilbert as hl
from catalyx import scenarios as sc


def test_check_size_names_the_object_its_bytes_and_the_budget():
    hl.check_size(2**24, "one 4096×4096 operator")  # exactly the budget
    with pytest.raises(ValueError) as err:
        hl.check_size(2**24 + 1, "thing")
    assert str(err.value) == (
        f"thing needs {16 * (2**24 + 1)} bytes > budget of {2**28} bytes (hilbert.MAX_BYTES)"
    )


@pytest.mark.parametrize(
    "build, what",
    [
        (lambda: con.dephasing_catalysis([17]), "dephasing construction at total dimension 4913"),
        (lambda: con.conserved_optimal_catalyst([4097]), "conserved-optimal catalyst"),
        (lambda: con.angular_momentum_catalyst(64), "at dimension 4225"),
        (lambda: con.initialization_classical(17), "classical initialization"),
        (lambda: con.initialization_masking(5), "masking initialization"),
        (lambda: con.multiparty_unitary(17), "multiparty unitary"),
        (lambda: sc.depletion_demo(6), "depletion demo at total dimension 7776"),
        (lambda: sc.initialization_scenario(9), "initialization scenario"),
        (lambda: sc.cq_free_randomness(17), "cq_free randomness"),
        (lambda: sc.multiparty_refuel(17, 1), "multiparty refuelling"),
        (lambda: sc.conservation_law_check(n_samples=2**20 + 1), "conservation check"),
    ],
    ids=["dephasing", "conserved", "angular", "classical", "masking", "multiparty",
         "depletion", "initialization", "cq_free", "refuel", "conservation"],
)
def test_first_size_past_the_limit_is_refused(build, what):
    with pytest.raises(ValueError, match=f"{what}.* budget"):
        build()


# each channel builder checks the complex entries of its Kraus stack (of the
# Haar unitary its isometry is cut from, for random_channel)
CHANNELS = [
    (cat.identity_channel, 3, 9),
    (cat.dephasing_channel, 3, 27),
    (cat.erasure_channel, 3, 81),
    (cat.weyl_twirl_channel, 3, 81),
    (cat.initialization_channel, 3, 27),
    (cat.werner_holevo_channel, 3, 27),
    (lambda d: cat.random_channel(d, 2, 0), 3, 36),
]


@pytest.mark.parametrize("build, d, entries", CHANNELS, ids=[
    "identity", "dephasing", "erasure", "weyl_twirl", "initialization", "werner_holevo", "random"])
def test_channel_builders_check_their_stack(build, d, entries, monkeypatch):
    monkeypatch.setattr(hl, "MAX_BYTES", 16 * entries)
    assert build(d).dim_in == d
    monkeypatch.setattr(hl, "MAX_BYTES", 16 * entries - 1)
    with pytest.raises(ValueError, match=f"needs {16 * entries} bytes > budget"):
        build(d)


@pytest.mark.parametrize("d, rounds, kept", [(2, 6, 5), (3, 4, 3), (2, 10**9, 5)])
def test_refuel_keeps_the_rounds_that_fit(d, rounds, kept):
    # at d = 2 the sixth round would hold 4^6·2 = 8192 dimensions, at d = 3
    # the fourth 9^4·3 = 19683; rounds are counted up from one, so a huge
    # round count stops there too
    tr = sc.multiparty_refuel(d, rounds)
    assert len([s for s in tr.steps if s.ledger]) == kept
    assert tr.notices == (
        f"trace truncated to {kept} rounds: round {kept + 1} exceeds the budget of "
        f"{2**28} bytes (hilbert.MAX_BYTES)",
    )
