import json
import subprocess
import sys

import numpy as np
import pytest

from catalyx import hilbert as hl

CNOT = np.eye(4)[:, [0, 1, 3, 2]].astype(complex)


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "catalyx", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        timeout=300,
    )


def write_operator(path, matrix, dims):
    u = hl.UnitaryOperator(matrix, dims)
    hl.save_json(str(path), hl.operator_to_payload(u))


def strip_timestamps(obj):
    if isinstance(obj, dict):
        return {
            k: strip_timestamps(v) for k, v in obj.items() if k != "timestamp"
        }
    if isinstance(obj, list):
        return [strip_timestamps(v) for v in obj]
    return obj


def test_verify_pass(tmp_path):
    write_operator(tmp_path / "cnot.json", CNOT, [2, 2])
    sigma = hl.maximally_mixed([2])
    hl.save_json(str(tmp_path / "mm.json"), hl.operator_to_payload(sigma))
    res = run_cli(
        "verify", str(tmp_path / "cnot.json"), "--sigma-file", str(tmp_path / "mm.json")
    )
    assert res.returncode == 0
    assert "PASS" in res.stdout


def test_verify_fail_prints_defect(tmp_path):
    write_operator(tmp_path / "swap.json", hl.swap_matrix(2), [2, 2])
    res = run_cli("verify", str(tmp_path / "swap.json"))
    assert res.returncode == 1
    assert "FAIL" in res.stdout and "defect" in res.stdout


def test_verify_malformed_json(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    res = run_cli("verify", str(bad))
    assert res.returncode == 2


def test_entropy_command(tmp_path):
    rho = hl.DensityOperator(np.diag([0.5, 0.25, 0.25]), [3])
    hl.save_json(str(tmp_path / "rho.json"), hl.operator_to_payload(rho))
    res = run_cli("entropy", str(tmp_path / "rho.json"))
    assert res.returncode == 0
    assert "vn = 1.500000" in res.stdout
    assert "catalytic_vn = 2.000000" in res.stdout

    mm = hl.maximally_mixed([4])
    hl.save_json(str(tmp_path / "mm4.json"), hl.operator_to_payload(mm))
    res = run_cli("entropy", str(tmp_path / "mm4.json"))
    assert "catalytic_vn = 4.000000" in res.stdout

    pure = hl.basis_state(3, 0).density()
    hl.save_json(str(tmp_path / "pure.json"), hl.operator_to_payload(pure))
    res = run_cli("entropy", str(tmp_path / "pure.json"))
    assert "vn = 0.000000" in res.stdout
    assert "catalytic_vn = 0.000000" in res.stdout


def test_entropy_accepts_state_payload(tmp_path):
    v = hl.plus_state(2)
    hl.save_json(str(tmp_path / "plus.json"), hl.state_to_payload(v))
    res = run_cli("entropy", str(tmp_path / "plus.json"))
    assert res.returncode == 0
    assert "vn = 0.000000" in res.stdout


def test_construct_angular_momentum(tmp_path):
    res = run_cli("construct", "angular_momentum", "--lM", "1", "--out", str(tmp_path))
    assert res.returncode == 0
    assert "S_cat = 3.321928 bits" in res.stdout
    assert (tmp_path / "angular_momentum_sigma.json").exists()


def test_construct_instance_bundle(tmp_path):
    res = run_cli("construct", "multiparty", "--d", "2", "--out", str(tmp_path))
    assert res.returncode == 0
    bundle = json.load(open(tmp_path / "multiparty_instance.json"))
    assert bundle["layout"] == {"a_dims": [4], "b_dims": [2]}
    assert bundle["certification"]["defect"] <= 1e-9
    # the emitted files re-verify
    res = run_cli(
        "verify",
        str(tmp_path / "multiparty_unitary.json"),
        "--sigma-file",
        str(tmp_path / "multiparty_sigma.json"),
    )
    assert res.returncode == 0


def test_construct_unknown_kind_usage_error(tmp_path):
    res = run_cli("construct", "nonsense", "--out", str(tmp_path))
    assert res.returncode == 2


def test_scenario_multiparty(tmp_path):
    out = tmp_path / "trace.json"
    res = run_cli(
        "scenario", "multiparty", "--d", "2", "--rounds", "2", "--out", str(out)
    )
    assert res.returncode == 0
    assert "I(A:C) = 0.000000" in res.stdout
    trace = json.load(open(out))["trace"]
    assert len(trace["steps"]) == 2


def test_scenario_multiparty_prints_no_negative_zero(tmp_path):
    # I(A:C) vanishes after turn 2; float noise must not print it as -0
    out = tmp_path / "trace.json"
    res = run_cli(
        "scenario", "multiparty", "--d", "3", "--rounds", "2", "--out", str(out)
    )
    assert res.returncode == 0
    assert "I(A:C) = 0.000000 bits after round 2" in res.stdout
    assert "-0.000000" not in res.stdout
    steps = json.load(open(out))["trace"]["steps"]
    for step in steps:
        for key, value in step["marginals"].items():
            if key.startswith("I("):
                assert value >= 0.0, (step["operation"], key, value)


def test_scenario_csv_format(tmp_path):
    out = tmp_path / "trace.csv"
    res = run_cli(
        "scenario", "depletion", "--d", "2", "--format", "csv", "--out", str(out)
    )
    assert res.returncode == 0
    rows = out.read_text().strip().splitlines()
    assert rows[0].startswith("actor,operation,delta_S,delta_I,residual")
    assert len(rows) == 3


def test_scenario_conservation(tmp_path):
    res = run_cli("scenario", "conservation", "--samples", "20")
    assert res.returncode == 0
    assert "max residual" in res.stdout


def test_optimize_ea_dephasing():
    res = run_cli("optimize", "ea", "--channel", "dephasing2")
    assert res.returncode == 0
    assert "C_EA = 1.000000 bits" in res.stdout


def test_optimize_unknown_channel():
    res = run_cli("optimize", "ea", "--channel", "wormhole7")
    assert res.returncode == 2


def test_optimize_not_converged_exits_one(tmp_path, monkeypatch, capsys):
    from catalyx import cli, optimize

    stalled = optimize.OptimizationResult(
        value=0.5, argmax=np.array([1.0, 0.0], dtype=complex), argmax_kind="pure",
        iterations=2000, restarts=1, converged=False, gradient_norm_at_end=1.5,
    )
    monkeypatch.setattr(optimize, "max_entropy_production_local", lambda *a, **k: stalled)
    out = tmp_path / "report.json"
    assert cli.main(["optimize", "local", "--channel", "dephasing2",
                     "--out", str(out)]) == 1
    assert "S_prod_local = 0.500000 bits" in capsys.readouterr().out
    assert json.load(open(out))["result"]["converged"] is False


def test_selftest():
    res = run_cli("selftest")
    assert res.returncode == 0
    assert res.stdout.count("PASS") >= 6
    assert "FAIL" not in res.stdout


@pytest.mark.parametrize(
    "args",
    [
        ("construct", "dephasing_degeneracy", "--r", "1,2"),
        ("construct", "max_extraction", "--r", "1,2"),
        ("construct", "initialization_classical", "--d", "3"),
        ("construct", "initialization_masking", "--m", "2"),
        ("construct", "double_random", "--d", "2"),
        ("construct", "conserved_optimal", "--r", "1,3"),
        ("construct", "thermal_levels", "--r", "1,2,4", "--e-inf", "3"),
    ],
)
def test_construct_kinds_end_to_end(args, tmp_path):
    res = run_cli(*args, "--out", str(tmp_path))
    assert res.returncode == 0, res.stderr


@pytest.mark.parametrize(
    "args, expect",
    [
        (("scenario", "absorption", "--d", "2", "--samples", "8"), "absorption"),
        (("scenario", "cq_free", "--d", "4"), "free_bits = 2.000000"),
        (("scenario", "initialization", "--d", "3"), "I(A':B) = 1.584963"),
        (("optimize", "global", "--channel", "erasure2"), "S_prod_global = 2.000000"),
        (("optimize", "local", "--channel", "dephasing2"), "S_prod_local = 1.000000"),
        # the default --d is 3, the smallest odd size
        (("scenario", "initialization"), "I(A':B) = 1.584963"),
    ],
)
def test_remaining_cli_paths(args, expect, tmp_path):
    res = run_cli(*args)
    assert res.returncode == 0, res.stderr
    assert expect in res.stdout


def test_tol_override_loosens_check(tmp_path):
    # an almost-unitary matrix passes verification once the tolerance is raised
    eps = 1e-7
    u = hl.haar_unitary_matrix(4, 0) * (1 + eps)
    payload = {
        "dims": [2, 2],
        "re": u.real.tolist(),
        "im": u.imag.tolist(),
    }
    hl.save_json(str(tmp_path / "almost.json"), payload)
    res = run_cli("verify", str(tmp_path / "almost.json"))
    assert res.returncode == 2  # rejected at load time with default tolerances
    res = run_cli(
        "verify", str(tmp_path / "almost.json"), "--tol-override", "unitary=1e-3"
    )
    assert res.returncode in (0, 1)  # loads; verdict depends on the transpose


def test_determinism_identical_seeds(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        res = run_cli(
            "construct", "dephasing_degeneracy", "--r", "1,2", "--seed", "7",
            "--out", str(out),
        )
        assert res.returncode == 0
    ra = strip_timestamps(json.load(open(a / "dephasing_degeneracy_report.json")))
    rb = strip_timestamps(json.load(open(b / "dephasing_degeneracy_report.json")))
    assert json.dumps(ra, sort_keys=True) == json.dumps(rb, sort_keys=True)
    ua = json.load(open(a / "dephasing_degeneracy_unitary.json"))
    ub = json.load(open(b / "dephasing_degeneracy_unitary.json"))
    assert json.dumps(ua, sort_keys=True) == json.dumps(ub, sort_keys=True)

    ta, tb = tmp_path / "ta.json", tmp_path / "tb.json"
    for out in (ta, tb):
        res = run_cli(
            "scenario", "depletion", "--d", "2", "--seed", "3", "--out", str(out)
        )
        assert res.returncode == 0
    ja = strip_timestamps(json.load(open(ta)))
    jb = strip_timestamps(json.load(open(tb)))
    assert json.dumps(ja, sort_keys=True) == json.dumps(jb, sort_keys=True)


def test_verify_empty_cut_usage_error(tmp_path):
    write_operator(tmp_path / "haar.json", hl.haar_unitary_matrix(4, 0), [2, 2])
    res = run_cli("verify", str(tmp_path / "haar.json"), "--cut", "")
    assert res.returncode == 2
    assert "at least one subsystem" in res.stderr
    assert "PASS" not in res.stdout


def test_verify_wrong_catalyst_size_is_a_usage_error_before_the_verdict(tmp_path):
    # the swap fails the partial-transpose test, but a catalyst that does not
    # fit the B side is bad input whatever the verdict: exit 2, not 1
    write_operator(tmp_path / "swap.json", hl.swap_matrix(2), [2, 2])
    hl.save_json(str(tmp_path / "mm3.json"), hl.operator_to_payload(hl.maximally_mixed([3])))
    res = run_cli("verify", str(tmp_path / "swap.json"), "--sigma-file", str(tmp_path / "mm3.json"))
    assert res.returncode == 2
    assert "catalyst dimension does not match the B side" in res.stderr
    assert "FAIL" not in res.stdout


def test_verify_failing_unitary_leaves_compatibility_unevaluated(tmp_path):
    # the swap fails the partial-transpose test, so the catalyst checks do not
    # run: compatibility is null, not false (with the maximally mixed catalyst
    # its entropy gap would be 0)
    from catalyx import catalysis

    swap = hl.UnitaryOperator(hl.swap_matrix(2), [2, 2])
    mm = hl.maximally_mixed([2])
    assert catalysis.verify_catalysis_exhaustive(swap, mm).entropy_gap == 0.0
    write_operator(tmp_path / "swap.json", swap.matrix, [2, 2])
    hl.save_json(str(tmp_path / "mm.json"), hl.operator_to_payload(mm))
    out = tmp_path / "v.json"
    res = run_cli("verify", str(tmp_path / "swap.json"), "--sigma-file", str(tmp_path / "mm.json"),
                  "--out", str(out))
    assert res.returncode == 1
    rep = json.load(open(out))
    assert rep["compatible"] is None and rep["pass"] is False
    assert rep["is_catalysis_unitary"] is False
    assert rep["error"].startswith("not a catalysis unitary: partial-transpose defect")
    assert "entropy_gap_bits" not in rep


def _write_dephasing_pair(tmp_path, swap):
    """Files of the dephasing(1, 2) catalysis, party-swapped (layout [3, 5],
    system side last) when ``swap`` is set."""
    from catalyx import catalysis, constructions

    inst = constructions.dephasing_catalysis([1, 2])
    u = catalysis.party_swap(inst.unitary, 1) if swap else inst.unitary
    write_operator(tmp_path / "u.json", u.matrix, list(u.layout.dims))
    hl.save_json(str(tmp_path / "sigma.json"), hl.operator_to_payload(inst.sigma))
    return str(tmp_path / "u.json"), str(tmp_path / "sigma.json")


def test_verify_trailing_cut_with_catalyst(tmp_path):
    u_file, sigma_file = _write_dephasing_pair(tmp_path, swap=True)
    out = tmp_path / "v.json"
    res = run_cli("verify", u_file, "--cut", "1", "--sigma-file", sigma_file,
                  "--out", str(out))
    assert res.returncode == 0, res.stderr
    rep = json.load(open(out))
    assert rep["pass"] is True and rep["compatible"] is True
    assert rep["max_deviation"] <= 1e-12


def test_tol_override_reaches_exact_check(tmp_path):
    u_file, sigma_file = _write_dephasing_pair(tmp_path, swap=False)
    res = run_cli("verify", u_file, "--sigma-file", sigma_file)
    assert res.returncode == 0, res.stderr
    res = run_cli("verify", u_file, "--sigma-file", sigma_file,
                  "--tol-override", "state=1e-20")
    assert res.returncode == 1
    assert "FAIL" in res.stdout


def _write_raw_density(path, matrix):
    """Operator payload written without validation, so it may break a tolerance."""
    m = np.asarray(matrix, dtype=complex)
    hl.save_json(str(path), {"dims": [len(m)], "re": m.real.tolist(), "im": m.imag.tolist()})


@pytest.mark.parametrize(
    "override, matrix, key, default, overridden",
    [
        # two eigenvalues 2e-4 apart merge once the relative gap is 1e-2
        ("group=1e-2", np.diag([0.5, 0.25 + 1e-4, 0.25 - 1e-4]), "catalytic_vn", 1.5, 2.0),
        # an eigenvalue of 1e-5 counts as zero for both max entropies
        ("psd=1e-3", np.diag([0.6, 0.4 - 1e-5, 1e-5]), "catalytic_max", np.log2(3), 1.0),
        # exit codes: rejected at load time (2) until the tolerance is raised
        ("herm=1e-6", [[0.5, 1e-8], [0.0, 0.5]], None, 2, 0),
        ("norm=1e-8", np.diag([0.5, 0.5 + 5e-8]), None, 2, 0),
        # selftest runs the ledger, which fails every transition below zero
        ("ledger=-1", None, None, 0, 1),
    ],
    ids=["group", "psd", "herm", "norm", "ledger"],
)
def test_tol_override_reaches_every_use(tmp_path, override, matrix, key, default, overridden):
    if matrix is None:
        args = ["selftest"]
    else:
        _write_raw_density(tmp_path / "rho.json", matrix)
        args = ["entropy", str(tmp_path / "rho.json"), "--out", str(tmp_path / "rep.json")]

    def outcome(*extra):
        res = run_cli(*args, *extra)
        if key is None:
            return res.returncode
        assert res.returncode == 0, res.stderr
        return json.load(open(tmp_path / "rep.json"))[key]

    assert outcome() == pytest.approx(default)
    assert outcome("--tol-override", override) == pytest.approx(overridden)


def test_tol_override_lasts_one_run(tmp_path, capsys):
    from catalyx import cli

    rho = hl.DensityOperator(np.diag([0.5, 0.25 + 1e-4, 0.25 - 1e-4]), [3])
    hl.save_json(str(tmp_path / "near.json"), hl.operator_to_payload(rho))
    before = hl.GROUP_TOL
    assert cli.main(["entropy", str(tmp_path / "near.json"),
                     "--tol-override", "group=1e-2"]) == 0
    assert "catalytic_vn = 2.000000" in capsys.readouterr().out
    assert hl.GROUP_TOL == before
    assert cli.main(["entropy", str(tmp_path / "near.json")]) == 0
    assert "catalytic_vn = 1.500000" in capsys.readouterr().out


@pytest.mark.parametrize(
    "args, message",
    [
        (("depletion", "--d", "12"), "depletion demo at total dimension 248832 needs"),
        (("multiparty", "--d", "17", "--rounds", "1"), "multiparty refuelling at total dimension"),
    ],
    ids=["depletion", "multiparty"],
)
def test_scenario_too_large_is_a_usage_error(args, message):
    res = run_cli("scenario", *args)
    assert res.returncode == 2
    assert message in res.stderr


@pytest.mark.parametrize(
    "args",
    [
        ("conservation", "--samples", "0"),
        ("conservation", "--samples", "-3"),
        ("absorption", "--d", "2", "--samples", "-1"),
    ],
    ids=["conservation0", "conservation-3", "absorption-1"],
)
def test_scenario_sample_count_is_checked(args):
    res = run_cli("scenario", *args)
    assert res.returncode == 2
    assert "n_samples" in res.stderr
    assert '"pass"' not in res.stdout


@pytest.mark.parametrize(
    "args, flag",
    [
        (("optimize", "global", "--channel", "dephasing2", "--restarts", "0"), "restarts"),
        (("optimize", "local", "--channel", "dephasing2", "--restarts", "-1"), "restarts"),
        (("optimize", "ea", "--channel", "dephasing2", "--restarts", "4"), "--restarts"),
        (("scenario", "conservation", "--samples", "2", "--format", "csv"), "--format csv"),
        (("scenario", "absorption", "--samples", "2", "--format", "csv"), "--format csv"),
        (("scenario", "cq_free", "--format", "csv"), "--format csv"),
        (("optimize", "ea", "--channel", "dephasing2", "--format", "csv"), "--format csv"),
        (("construct", "conserved_optimal", "--r", "1,3", "--format", "csv"), "--format csv"),
        (("selftest", "--format", "csv"), "--format csv"),
        # refused before the file is read
        (("verify", "missing.json", "--format", "csv"), "--format csv"),
        (("entropy", "missing.json", "--format", "csv"), "--format csv"),
        # ea has no Renyi order, so no value of --alpha is read
        (("optimize", "ea", "--channel", "dephasing2", "--alpha", "7"), "--alpha"),
        # each kind accepts only the flags it reads
        (("scenario", "depletion", "--d", "2", "--samples", "3"), "--samples"),
        (("scenario", "depletion", "--d", "2", "--rounds", "9"), "--rounds"),
        (("scenario", "depletion", "--d", "2", "--classical"), "--classical"),
        (("construct", "dephasing_degeneracy", "--r", "1,3", "--d", "9"), "--d"),
        (("construct", "dephasing_degeneracy", "--r", "1,3", "--m", "5"), "--m"),
        (("construct", "dephasing_degeneracy", "--r", "1,3", "--lM", "4"), "--lM"),
        (("construct", "thermal_levels", "--r", "1,2", "--sigma-file", "f.json"), "--sigma-file"),
        (("scenario", "cq_free", "--d", "2", "--channel", "erasure2"), "--channel"),
        (("selftest", "--out", "x"), "--out"),
        # one catalyst source, not two; SIGMA names a catalyst file that exists
        (("construct", "max_extraction", "--r", "1,2", "--sigma-file", "SIGMA"), "--sigma-file"),
        (("optimize", "ea", "--channel", "dephasing2", "--format", "json"), "--format"),
        # a named channel fixes its own dimension, so --d would be ignored
        (("scenario", "absorption", "--channel", "erasure2", "--d", "5", "--samples", "1"),
         "argument --d: not allowed with argument --channel"),
    ],
)
def test_ignored_or_invalid_flags_are_usage_errors(args, flag, tmp_path, capsys):
    from catalyx import cli

    sigma = tmp_path / "sigma.json"
    hl.save_json(str(sigma), hl.operator_to_payload(hl.maximally_mixed([2])))
    args = [str(sigma) if a == "SIGMA" else a for a in args]
    out = tmp_path / "out"
    assert cli.main([*args, "--out", str(out)]) == 2
    assert flag in capsys.readouterr().err
    assert not out.exists()  # rejected before any work


@pytest.mark.parametrize(
    "args, message",
    [
        (("entropy", "STATE", "--alpha", "0.5,nan"), "alpha must be nonnegative, got nan"),
        (("construct", "thermal_levels", "--r", "1,2", "--e-inf", "nan"), "e_inf must be finite"),
        # NaN would switch the unitarity check off: the file is not unitary
        (("verify", "TWICE", "--tol-override", "unitary=nan"), "tolerance 'unitary'"),
        (("entropy", "STATE", "--tol-override", "ledger=NaN"), "tolerance 'ledger'"),
    ],
    ids=["alpha", "e_inf", "unitary", "ledger"],
)
def test_nan_inputs_are_usage_errors(args, message, tmp_path, capsys):
    from catalyx import cli

    files = {"STATE": tmp_path / "state.json", "TWICE": tmp_path / "twice.json"}
    hl.save_json(str(files["STATE"]), hl.operator_to_payload(hl.maximally_mixed([2])))
    twice = 2 * np.eye(4)
    hl.save_json(str(files["TWICE"]),
                 {"dims": [2, 2], "re": twice.tolist(), "im": np.zeros((4, 4)).tolist()})
    args = [str(files.get(a, a)) for a in args]
    out = tmp_path / "out"
    assert cli.main([*args, "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "args, what",
    [
        (("construct", "dephasing_degeneracy", "--r", "1,2"), "dephasing construction"),
        (("construct", "max_extraction", "--r", "1,2"), "conserved-optimal catalyst"),
        (("construct", "conserved_optimal", "--r", "1,3"), "conserved-optimal catalyst"),
        (("construct", "angular_momentum", "--lM", "1"), "conserved-optimal catalyst"),
        (("construct", "initialization_classical", "--d", "3"), "classical initialization"),
        (("construct", "initialization_masking", "--m", "2"), "masking initialization"),
        (("construct", "double_random", "--d", "2"), "clock family"),
        (("construct", "multiparty", "--d", "2"), "multiparty unitary"),
        (("scenario", "multiparty", "--d", "2"), "multiparty refuelling"),
        (("scenario", "depletion", "--d", "2"), "depletion demo"),
        (("scenario", "initialization", "--d", "3"), "initialization scenario"),
        (("scenario", "cq_free", "--d", "2"), "cq_free randomness"),
        (("scenario", "absorption", "--d", "2"), "initialization channel"),
        (("scenario", "absorption", "--channel", "erasure2"), "erasure channel"),
        (("scenario", "conservation", "--samples", "1"), "conservation check"),
        (("optimize", "ea", "--channel", "dephasing2"), "dephasing channel"),
        (("optimize", "global", "--channel", "weyl_twirl2"), "Weyl-twirl channel"),
        (("optimize", "local", "--channel", "identity2"), "identity channel"),
    ],
)
def test_sizes_from_outside_are_checked_against_the_budget(args, what, tmp_path, capsys,
                                                           monkeypatch):
    # thermal_levels takes --r too, but allocates one level per entry of r,
    # no more than its input, so it has nothing to check
    from catalyx import cli

    monkeypatch.setattr(hl, "MAX_BYTES", 16)  # one complex entry
    out = tmp_path / "out"
    assert cli.main([*args, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {what}") and "> budget of 16 bytes (hilbert.MAX_BYTES)" in err
    assert "Traceback" not in err and len(err.splitlines()) == 1
    assert not out.exists()  # refused before any work
