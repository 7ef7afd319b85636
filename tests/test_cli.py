"""End-to-end command-line behavior, exercised in process through main()."""

import json
import math

import pytest

import hperim.cli as cli
from hperim.cli import (
    EXIT_CHECK_FAILED,
    EXIT_OK,
    EXIT_SCAN_EXHAUSTED,
    EXIT_USAGE,
    main,
)


def run(argv):
    return main(list(argv))


# ---------------------------------------------------------------------------
# curvature


def test_curvature_csv_for_ruled_graph(tmp_path, capsys):
    out = tmp_path / "curv.csv"
    code = run(["curvature", "--alpha", "1", "--beta", "0",
                "--grid", "5", "--out", str(out)])
    assert code == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0] == "y,t,curvature"
    assert len(lines) == 1 + 5 * 5
    assert "max |curvature|" in capsys.readouterr().out
    worst = max(abs(float(line.split(",")[2])) for line in lines[1:])
    assert worst < 1e-9


def test_curvature_csv_for_plane(tmp_path):
    out = tmp_path / "plane.csv"
    code = run(["curvature", "--plane", "3", "4", "2", "--grid", "4",
                "--out", str(out)])
    assert code == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0] == "u,v,curvature"
    assert len(lines) == 1 + 4 * 4


@pytest.mark.parametrize("argv", [
    ["curvature", "--alpha", "0"],
    ["curvature", "--grid", "1"],
    ["curvature", "--box", "1", "-1", "-1", "1"],
    ["curvature", "--plane", "0", "0", "1"],
    ["burgers", "--grid", "0"],
    ["burgers", "--window", "1", "-1", "-1", "1"],
    ["burgers", "--window", "1", "1", "-1", "1"],
    ["instability", "--kmax", "-1"],
    ["identities", "--samples", "-3"],
    ["identities", "--ibp-samples", "-2"],
    ["identities", "--seed", "-1"],
    ["replay", "missing-run-record.json"],
], ids=[
    "curvature-alpha-0", "curvature-grid-1", "curvature-reversed-box", "curvature-zero-normal",
    "burgers-grid-0", "burgers-reversed-window", "burgers-empty-window",
    "instability-kmax-negative", "identities-samples-negative",
    "identities-ibp-samples-negative", "identities-seed-negative", "replay-missing-file",
])
def test_usage_errors_exit_2_with_message(argv, capsys):
    try:
        code = run(argv)
    except SystemExit as exc:
        code = exc.code
    assert code == EXIT_USAGE
    assert capsys.readouterr().err.strip()


def test_version_flag_exits_cleanly(capsys):
    with pytest.raises(SystemExit) as info:
        run(["--version"])
    assert info.value.code == 0
    assert "hperim" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# identities


def test_identities_table_passes(capsys):
    code = run(["identities", "--alpha", "2", "--beta", "1",
                "--samples", "300", "--ibp-samples", "1"])
    assert code == EXIT_OK
    text = capsys.readouterr().out
    assert "pass" in text
    assert "FAIL" not in text


def test_identities_zero_samples_warns_vacuous(capsys):
    code = run(["identities", "--samples", "0", "--ibp-samples", "0"])
    assert code == EXIT_OK
    assert "vacuously" in capsys.readouterr().out


def test_identities_unconverged_ibp_row_fails(capsys, monkeypatch):
    # the CLI sets no subdivision budget, so feed it a row that did not converge
    row = {"name": "ibp-z", "sample": 0, "residual": 1e-3, "budget": 1.0, "converged": False}
    monkeypatch.setattr(cli, "ibp_residuals", lambda *a, **k: [row])
    code = run(["identities", "--samples", "10", "--ibp-samples", "1"])
    assert code == EXIT_CHECK_FAILED
    text = capsys.readouterr().out
    assert "ibp-z[0]" in text and "FAIL" in text
    assert "failed: ibp-z residual 0.001 (an integral did not converge)" in text


def test_identities_fail_exit_code(capsys):
    # an absurdly tight tolerance forces every pointwise row to fail
    code = run(["identities", "--samples", "50", "--ibp-samples", "0",
                "--tol", "1e-30"])
    assert code == EXIT_CHECK_FAILED
    text = capsys.readouterr().out
    assert "FAIL" in text
    assert "failed:" in text


# ---------------------------------------------------------------------------
# instability


def test_instability_writes_certificate_and_scan(tmp_path, capsys):
    cert_path = tmp_path / "cert.json"
    code = run(["instability", "--alpha", "1", "--beta", "0",
                "--direction", "x1", "--out", str(cert_path)])
    assert code == EXIT_OK
    blob = json.loads(cert_path.read_text())
    assert blob["k"] == 2
    assert blob["value"] + blob["error"] < 0.0
    scan_path = tmp_path / "cert_scan.csv"
    lines = scan_path.read_text().splitlines()
    assert lines[0] == "k,value,error"
    assert len(lines) == 1 + 2
    text = capsys.readouterr().out
    assert "certified: direction x1, k=2" in text


def test_instability_exhausted_scan(tmp_path, capsys):
    cert_path = tmp_path / "cert.json"
    code = run(["instability", "--kmax", "0", "--out", str(cert_path)])
    assert code == EXIT_SCAN_EXHAUSTED
    assert not cert_path.exists()
    scan_path = tmp_path / "cert_scan.csv"
    assert scan_path.read_text() == "k,value,error\n"
    assert "scan exhausted" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# hardy


def test_hardy_rows_and_limits(tmp_path):
    out = tmp_path / "hardy.csv"
    code = run(["hardy", "--alpha", "1", "--klist", "3", "5", "--out", str(out)])
    assert code == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0] == "k,lhs,rhs,gap,lhs_limit,rhs_limit,gap_limit"
    assert len(lines) == 3
    row = lines[1].split(",")
    assert float(row[0]) == 3.0
    gap_limit = float(row[6])
    assert math.isclose(gap_limit, 0.375 * math.pi * math.sqrt(2.0), rel_tol=1e-12)


def test_hardy_empty_klist_writes_header_only(capsys):
    code = run(["hardy"])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert out.startswith("k,lhs,rhs,gap,")


# ---------------------------------------------------------------------------
# burgers


def test_burgers_family_summary_on_stdout(capsys):
    code = run(["burgers", "--mode", "family", "--alpha", "2", "--beta", "1"])
    assert code == EXIT_OK
    summary = json.loads(capsys.readouterr().out)
    assert math.isclose(summary["burgers_at_center"], 1.0, abs_tol=1e-12)


def test_burgers_family_summary_values(tmp_path):
    out = tmp_path / "summary.json"
    code = run(["burgers", "--mode", "family", "--alpha", "2", "--beta", "1",
                "--out", str(out)])
    assert code == EXIT_OK
    summary = json.loads(out.read_text())
    assert math.isclose(summary["burgers_at_center"], 1.0, abs_tol=1e-12)
    assert summary["max_abs_curvature"] < 1e-8
    assert summary["first_variation_gap"] < 1e-7
    assert summary["perimeter"] > 0.0
    assert summary["mode"] == "family"


def test_burgers_plane_summary(tmp_path):
    out = tmp_path / "plane.json"
    code = run(["burgers", "--mode", "plane", "--plane-coeffs", "3", "4", "2",
                "--out", str(out)])
    assert code == EXIT_OK
    summary = json.loads(out.read_text())
    assert summary["max_abs_curvature"] < 1e-12
    assert math.isclose(summary["perimeter"], 4.0 * math.sqrt(1.0 + (4.0 / 3.0) ** 2),
                        rel_tol=1e-10)


def test_burgers_plane_requires_solvable_chart(capsys):
    code = run(["burgers", "--mode", "plane", "--plane-coeffs", "0", "1", "0"])
    assert code == EXIT_USAGE
    assert "nonzero first coefficient" in capsys.readouterr().err


def test_burgers_custom_quadratic(tmp_path):
    out = tmp_path / "custom.json"
    code = run(["burgers", "--mode", "custom",
                "--coeffs", "0", "0.1", "0", "0", "0", "0.05",
                "--out", str(out)])
    assert code == EXIT_OK
    summary = json.loads(out.read_text())
    assert summary["mode"] == "custom"
    assert summary["perimeter"] >= 4.0  # density sqrt(1 + B^2) >= 1 on [-1,1]^2


# ---------------------------------------------------------------------------
# determinism, records, replay


def test_reruns_are_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["curvature", "--alpha", "1.5", "--beta", "-0.5", "--grid", "7"]
    assert run(argv + ["--out", str(a)]) == EXIT_OK
    assert run(argv + ["--out", str(b)]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()

    c, d = tmp_path / "c.json", tmp_path / "d.json"
    argv = ["burgers", "--mode", "family", "--alpha", "1", "--beta", "0"]
    assert run(argv + ["--out", str(c)]) == EXIT_OK
    assert run(argv + ["--out", str(d)]) == EXIT_OK
    assert c.read_bytes() == d.read_bytes()


def test_record_and_replay_round_trip(tmp_path, capsys):
    rec = tmp_path / "run.json"
    out = tmp_path / "hardy.csv"
    code = run(["hardy", "--alpha", "2", "--klist", "2",
                "--out", str(out), "--record", str(rec)])
    assert code == EXIT_OK
    record = json.loads(rec.read_text())
    assert record["command"] == "hardy"
    assert record["version"]
    assert record["quadrature"]["rel_tol"] > 0.0
    assert "--record" in record["argv"]

    capsys.readouterr()
    code = run(["replay", str(rec)])
    assert code == EXIT_OK
    assert "replay outputs match the record" in capsys.readouterr().out


def test_replay_detects_tampered_outputs(tmp_path, capsys):
    rec = tmp_path / "run.json"
    out = tmp_path / "hardy.csv"
    run(["hardy", "--klist", "2", "--out", str(out), "--record", str(rec)])
    record = json.loads(rec.read_text())
    record["outputs"]["gap_limit"] = 123.0
    rec.write_text(json.dumps(record))

    capsys.readouterr()
    code = run(["replay", str(rec)])
    assert code == EXIT_CHECK_FAILED
    assert "differ from the record" in capsys.readouterr().out


def test_replay_refuses_nested_replay(tmp_path, capsys):
    rec = tmp_path / "meta.json"
    rec.write_text(json.dumps({"argv": ["replay", "somefile"], "outputs": {}}))
    code = run(["replay", str(rec)])
    assert code == EXIT_USAGE
    assert "refusing to replay a replay" in capsys.readouterr().err


@pytest.mark.parametrize("text", [
    "{not json", '{"outputs": {}}', "[1, 2]", '{"argv": [1], "outputs": {}}',
], ids=["invalid-json", "no-argv", "not-an-object", "argv-not-strings"])
def test_replay_rejects_malformed_record(tmp_path, capsys, text):
    rec = tmp_path / "bad.json"
    rec.write_text(text)
    assert run(["replay", str(rec)]) == EXIT_USAGE
    assert "cannot replay" in capsys.readouterr().err


def test_replay_does_not_write_new_record(tmp_path):
    rec = tmp_path / "run.json"
    run(["hardy", "--klist", "2", "--record", str(rec),
         "--out", str(tmp_path / "h.csv")])
    before = rec.read_bytes()
    assert run(["replay", str(rec)]) == EXIT_OK
    assert rec.read_bytes() == before
