"""Command-line interface: outputs, exit codes, determinism, round-trips."""

import json
import math

import numpy as np
import pytest

import capsieve as cs
from capsieve.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_bound_hemisphere(capsys):
    code, out, _ = run_cli(capsys, "bound", "s2", "--K", "0", "--delta", "0")
    assert code == 0
    payload = json.loads(out)
    assert payload["T2"] == pytest.approx(2.0, abs=1e-12)
    assert payload["space"] == "s2"
    assert payload["meta"]["version"] == cs.__version__


def test_bound_report_fields(capsys):
    code, out, _ = run_cli(capsys, "bound", "s2", "--K", "8")
    assert code == 0
    payload = json.loads(out)
    for field in ("space", "K", "delta", "t_KK", "T2", "cap_measure_at_tKK",
                  "A_K", "A_infinity", "p_exponent", "quadrature_nodes"):
        assert field in payload
    assert payload["delta"] == payload["t_KK"]
    assert payload["A_K"] == pytest.approx(
        payload["cap_measure_at_tKK"] * cs.t2_constant(
            cs.space_from_id("s2"), 8, payload["t_KK"]), rel=1e-12)


def test_bound_validation_error_exit_code(capsys):
    code, out, err = run_cli(capsys, "bound", "s2", "--K", "8", "--delta", "0.5")
    assert code == 1
    assert "t_KK" in err or "delta" in err


def test_bound_unknown_space(capsys):
    code, _, err = run_cli(capsys, "bound", "q7", "--K", "2")
    assert code == 1
    assert "space" in err


def test_zeros_output(capsys):
    code, out, _ = run_cli(capsys, "zeros", "s2", "--K", "10")
    assert code == 0
    payload = json.loads(out)
    assert payload["t_KK"] == pytest.approx(cs.nyquist_delta(cs.space_from_id("s2"), 10),
                                            abs=1e-14)
    assert payload["theta_K1"] == pytest.approx(np.arccos(payload["t_KK"]), abs=1e-14)
    assert payload["t_KK"] <= payload["euler_rayleigh_bound"]
    # the large-K estimate carries an O(K^-3) error term
    assert payload["asymptotic_estimate"] == pytest.approx(payload["t_KK"], abs=6e-3)


def test_limit_value(capsys):
    code, out, _ = run_cli(capsys, "limit", "s2")
    assert code == 0
    payload = json.loads(out)
    assert payload["A_infinity"] == pytest.approx(3.710381, abs=5e-6)


def test_density_command(tmp_path, capsys, pole):
    region = {"space": "s2", "complement": False,
              "caps": [{"center": [0.0, 0.0, 1.0], "delta": 0.9}]}
    path = tmp_path / "r.json"
    path.write_text(json.dumps(region))
    code, out, _ = run_cli(capsys, "density", "--region", str(path), "--K", "5",
                           "--samples", "64", "--seed", "7")
    assert code == 0
    payload = json.loads(out)
    assert 0.0 <= payload["rho"] <= 1.0
    assert payload["seed"] == 7
    assert payload["lambda2_bound"] <= 1.0
    assert payload["margin_applied"] is False
    # margin flag increases (or keeps) the bound
    code, out2, _ = run_cli(capsys, "density", "--region", str(path), "--K", "5",
                            "--samples", "64", "--seed", "7", "--margin")
    payload2 = json.loads(out2)
    assert payload2["rho_used"] >= payload["rho_used"]


def test_density_deterministic_output(tmp_path, capsys):
    region = {"space": "s2", "complement": False,
              "caps": [{"center": [0.0, 1.0, 1.0], "delta": 0.85}]}
    path = tmp_path / "r.json"
    path.write_text(json.dumps(region))
    args = ("density", "--region", str(path), "--K", "5", "--samples", "64",
            "--seed", "3")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2
    # the same on the projective plane (even K only) and on S^3
    for space, center in (("rp2", [0.0, 1.0, 1.0]), ("s3", [0.0, 1.0, 0.0, -1.0])):
        path.write_text(json.dumps({"space": space, "caps": [
            {"center": center, "delta": 0.85}, {"center": [-1.0] + center[1:], "delta": 0.9}]}))
        argv = ("density", "--region", str(path), "--K", "4", "--samples", "64",
                "--seed", "3", "--margin")
        outs = [run_cli(capsys, *argv)[1] for _ in range(2)]
        assert outs[0] == outs[1] and json.loads(outs[0])["space"] == space


def test_density_missing_region_file(capsys):
    code, _, err = run_cli(capsys, "density", "--region", "/nonexistent.json",
                           "--K", "5")
    assert code == 1


def _region_file(tmp_path, caps):
    path = tmp_path / "r.json"
    path.write_text(json.dumps({"space": "s2", "caps": caps}))
    return str(path)


def test_density_rejects_zero_samples(tmp_path, capsys):
    path = _region_file(tmp_path, [{"center": [0.0, 0.0, 1.0], "delta": 0.9}])
    code, out, err = run_cli(capsys, "density", "--region", path, "--K", "5",
                             "--samples", "0")
    assert code == 1
    assert out == ""
    assert "n_per_center must be >= 1" in err


def test_density_rejects_too_many_samples(tmp_path, capsys):
    # 10^9 samples would need about 100 GB; nothing is drawn
    path = _region_file(tmp_path, [{"center": [0.0, 0.0, 1.0], "delta": 0.9}])
    code, out, err = run_cli(capsys, "density", "--region", path, "--K", "5",
                             "--samples", "1000000000")
    assert code == 1
    assert out == ""
    assert "1000000000 samples on s2" in err
    assert "largest accepted n is 5592405" in err


def test_density_misspelled_cap_key(tmp_path, capsys):
    path = _region_file(tmp_path, [{"center": [0.0, 0.0, 1.0], "delta": 0.9},
                                   {"centre": [1.0, 0.0, 0.0], "delta": 0.9}])
    code, _, err = run_cli(capsys, "density", "--region", path, "--K", "5")
    assert code == 1
    assert "cap 1" in err and "'center'" in err
    path = _region_file(tmp_path, [{"center": [0.0, 0.0, 1.0]}])
    code, _, err = run_cli(capsys, "density", "--region", path, "--K", "5")
    assert code == 1
    assert "cap 0" in err and "'delta'" in err


@pytest.mark.parametrize("payload, message", [
    ({"caps": []}, "'space' key"),
    ([1, 2], "JSON object"),
    ({"space": "s2", "caps": 5}, "'caps' must be a list"),
    ({"space": "s2", "caps": [{"center": [float("nan"), 0.0, 1.0], "delta": 0.9}]},
     "finite"),
    ({"space": "s2", "complement": "false",
      "caps": [{"center": [0.0, 0.0, 1.0], "delta": 0.9}]}, "'complement'"),
    ({"space": "s2", "caps": [{"center": [0.0, 0.0, 1.0], "delta": [0.9]}]}, "'delta'"),
    ({"space": "s2", "caps": [{"center": {"a": 1}, "delta": 0.9}]}, "'center'"),
    ({"space": 5, "caps": []}, "'space'"),
])
def test_density_rejects_malformed_region_file(tmp_path, capsys, payload, message):
    path = tmp_path / "r.json"
    path.write_text(json.dumps(payload))
    code, out, err = run_cli(capsys, "density", "--region", str(path), "--K", "5")
    assert code == 1
    assert out == ""
    assert message in err


def test_density_meta_reports_search_parameters(tmp_path, capsys):
    from capsieve import region

    path = _region_file(tmp_path, [{"center": [0.0, 0.0, 1.0], "delta": 0.9}])
    code, out, _ = run_cli(capsys, "density", "--region", path, "--K", "3",
                           "--samples", "4")
    assert code == 0
    meta = json.loads(out)["meta"]
    assert meta["grid_size"] == region.GRID_SIZE
    assert meta["refine_iters"] == region.REFINE_ITERS
    assert meta["samples_per_center"] == 4


def test_bound_high_dimensional_spheres(capsys):
    # A_infinity needs J_{alpha+1}: s21 has alpha + 1 = 10.5, s90 has 45.
    # T2 and A_K stop at alpha = 80 (s162), where the tail rule is checked.
    for sid in ("s21", "s90", "s162"):
        code, out, _ = run_cli(capsys, "bound", sid, "--K", "10")
        assert code == 0, sid
        assert json.loads(out)["A_infinity"] > 0.0
    code, out, err = run_cli(capsys, "bound", "s164", "--K", "10")
    assert code == 1
    assert out == ""
    assert "alpha=81" in err


def test_limit_high_orders(capsys):
    # (j/2)^(2 alpha) alone overflows from alpha = 91 (s184)
    for sid in ("s90", "s184", "s400"):
        code, out, _ = run_cli(capsys, "limit", sid)
        assert code == 0, sid
        assert math.isfinite(json.loads(out)["A_infinity"])


def test_limit_beyond_normal_beta_function(capsys):
    # B(alpha+1, beta+1) is subnormal from s1020 on and 0 from about s1100
    for sid, alpha in (("s1030", 514), ("s1500", 749)):
        code, out, err = run_cli(capsys, "limit", sid)
        assert code == 1
        assert out == ""
        assert f"{sid} (alpha={alpha})" in err and "below the normal double range" in err
    code, out, _ = run_cli(capsys, "limit", "s1000")
    assert code == 0
    assert math.isfinite(json.loads(out)["A_infinity"])


def test_table_beyond_checked_tail_rule(capsys):
    # at alpha = 149 the tail rule is 1e-3 off a 40-digit integral
    code, out, err = run_cli(capsys, "table", "s300", "--K-max", "60")
    assert code == 1
    assert out == ""
    assert "alpha=149" in err


@pytest.mark.parametrize("delta", ["nan", "inf"])
def test_bound_rejects_non_finite_delta(capsys, delta):
    code, out, err = run_cli(capsys, "bound", "s2", "--K", "5", "--delta", delta)
    assert code == 1
    assert out == ""
    assert "delta must be finite" in err


def test_bound_s82_small_k(capsys):
    # at K = 1, t_KK = 0: the Nyquist cap is a hemisphere, of measure 1/2,
    # and T2 = 2 (d + 1) = 166 (6 on S^2), so A_K = 83.  A cancelling incomplete-beta
    # series printed -892.47 here.
    code, out, _ = run_cli(capsys, "bound", "s82", "--K", "1")
    assert code == 0
    rep = json.loads(out)
    assert rep["cap_measure_at_tKK"] == 0.5
    assert rep["A_K"] == pytest.approx(83.0, rel=1e-12)


def test_json_round_trip_byte_identical(capsys):
    _, out, _ = run_cli(capsys, "bound", "s3", "--K", "4")
    payload = json.loads(out)
    assert json.dumps(payload, indent=2, sort_keys=True) + "\n" == out


def test_table_csv(capsys):
    code, out, _ = run_cli(capsys, "table", "s2", "--K-max", "6")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "K,t_KK,T2,A_K"
    assert len(lines) == 7  # K = 1..6
    row = dict(zip(lines[0].split(","), lines[3].split(",")))
    k = int(row["K"])
    assert float(row["t_KK"]) == pytest.approx(
        cs.nyquist_delta(cs.space_from_id("s2"), k), abs=1e-13)
    # floats round-trip through repr
    assert float(row["A_K"]) == cs.a_constant(cs.space_from_id("s2"), k)


def test_table_solves_one_zero_per_row(capsys, monkeypatch):
    from capsieve import sieve

    calls = []

    def counting(idx):
        calls.append(idx)
        return cs.largest_zero(idx)

    monkeypatch.setattr(sieve, "largest_zero", counting)
    sieve._largest_zero_t.cache_clear()
    code, _, _ = run_cli(capsys, "table", "s2", "--K-max", "20")
    assert code == 0
    assert sorted(idx.n for idx in calls) == list(range(1, 21))


def test_table_runs_one_batched_recurrence(capsys, monkeypatch):
    from capsieve import sieve

    calls = []

    def counting(alpha, beta, degrees, t):
        calls.append(list(degrees))
        return cs.jacobi_eval_rows(alpha, beta, degrees, t)

    monkeypatch.setattr(sieve, "jacobi_eval_rows", counting)
    code, _, _ = run_cli(capsys, "table", "s2", "--K-max", "20")
    assert code == 0
    assert calls == [list(range(1, 21))]


@pytest.mark.parametrize("space,k_max,smallest", [("s2", "0", 1), ("s2", "-3", 1),
                                                  ("rp2", "1", 2)])
def test_table_without_positive_k(capsys, space, k_max, smallest):
    code, out, err = run_cli(capsys, "table", space, "--K-max", k_max)
    assert code == 1
    assert out == ""
    assert f"smallest admissible K_max is {smallest}" in err


@pytest.mark.parametrize("space", ["s2", "cay16"])
def test_bound_very_large_k(capsys, space):
    # a fixed-size tail rule: no O(K^2) matrix at K = 20000
    code, out, _ = run_cli(capsys, "bound", space, "--K", "20000")
    assert code == 0
    payload = json.loads(out)
    assert payload["quadrature_nodes"] == 128
    assert payload["A_K"] == pytest.approx(payload["A_infinity"], rel=200 / 20000 ** 2)


def test_table_projective_index_set(capsys):
    code, out, _ = run_cli(capsys, "table", "rp2", "--K-max", "8")
    ks = [int(line.split(",")[0]) for line in out.strip().splitlines()[1:]]
    assert ks == [2, 4, 6, 8]


def test_verify_ordering_cay16(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "ordering",
                           "--space", "cay16", "--K", "30")
    assert code == 0
    payload = json.loads(out)
    assert payload["all_pass"] is True
    assert payload["checks"][0]["check"].startswith("ordering[cay16")


def _extremal_ks(capsys, *argv):
    code, out, _ = run_cli(capsys, "verify", "--suite", "extremal", *argv)
    assert code == 0
    names = [c["check"] for c in json.loads(out)["checks"]]
    return sorted({int(n.split(",K=")[1].split(",")[0]) for n in names})


def test_verify_extremal_honours_k(capsys):
    assert _extremal_ks(capsys, "--K", "1") == [1]
    assert _extremal_ks(capsys, "--K", "3") == [2, 3]
    assert _extremal_ks(capsys, "--space", "rp2", "--K", "3") == [2]
    assert _extremal_ks(capsys) == [2, 4]
    code, _, err = run_cli(capsys, "verify", "--suite", "extremal", "--K", "0")
    assert code == 1 and "K >= 1" in err


def test_verify_structural(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "structural",
                           "--space", "hp8", "--K", "40")
    assert code == 0
    assert json.loads(out)["all_pass"] is True


def test_verify_failure_exit_code(capsys, monkeypatch):
    import capsieve.cli as cli
    monkeypatch.setattr(
        cli, "_suite_ordering",
        lambda space, K, seed: [cli._check("forced_failure", 1.0, 0.0, False)])
    code, out, _ = run_cli(capsys, "verify", "--suite", "ordering")
    assert code == 2
    assert json.loads(out)["all_pass"] is False


def test_verify_report_shape(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "limit", "--space", "s2")
    assert code == 0
    payload = json.loads(out)
    for check in payload["checks"]:
        assert set(check) == {"check", "value", "threshold", "pass"}


def test_cli_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
