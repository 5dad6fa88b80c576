"""Command-line interface: outputs, determinism, exit codes."""

import json

import numpy as np
import pytest

from ipdsaw import cli, largedev, wetting


def parse_csv(text):
    lines = [ln for ln in text.strip().splitlines()]
    comments = [ln for ln in lines if ln.startswith("#")]
    body = [ln for ln in lines if not ln.startswith("#")]
    header = body[0].split(",")
    rows = [dict(zip(header, ln.split(","))) for ln in body[1:]]
    return comments, header, rows


def test_phase_grid_csv(tmp_path):
    out = tmp_path / "phase.csv"
    rc = cli.main(["phase", "--beta-grid", "1.5:2.5:0.5", "--delta", "0.3",
                   "--out", str(out)])
    assert rc == 0
    comments, header, rows = parse_csv(out.read_text())
    assert comments[0].startswith("# ipdsaw ")
    assert any("command: phase" in c for c in comments)
    assert header == ["beta", "delta", "a_tilde", "Phi", "Psi_or_empty",
                      "h_wet", "delta_tilde", "delta_c", "delta_circ"]
    assert [float(r["beta"]) for r in rows] == [1.5, 2.0, 2.5]
    for r in rows:
        beta = float(r["beta"])
        assert float(r["delta"]) == 0.3
        assert float(r["Phi"]) < 0.0
        assert float(r["h_wet"]) == pytest.approx(
            wetting.wetting_free_energy(beta, 0.3), rel=1e-12)
        curves = sorted([float(r["delta_tilde"]), float(r["delta_c"]),
                         float(r["delta_circ"])])
        assert [float(r["delta_tilde"]), float(r["delta_c"]),
                float(r["delta_circ"])] == curves
        assert r["Psi_or_empty"] == ""  # delta != 0


def test_phase_reruns_and_workers_byte_identical(tmp_path):
    args = ["phase", "--beta", "1.5", "--delta", "0.0"]
    paths = [tmp_path / f"p{i}.csv" for i in range(3)]
    assert cli.main(args + ["--out", str(paths[0])]) == 0
    assert cli.main(args + ["--out", str(paths[1])]) == 0
    assert cli.main(args + ["--workers", "2", "--out", str(paths[2])]) == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()
    # the worker count appears in the provenance but never in the data
    strip = lambda p: [ln for ln in p.read_text().splitlines()
                       if not ln.startswith("# params:")]
    assert strip(paths[0]) == strip(paths[2])
    _, _, rows = parse_csv(paths[0].read_text())
    assert rows[0]["Psi_or_empty"] != ""  # delta == 0 exposes the third scale


def test_phase_below_collapse_threshold_exits_2(tmp_path):
    rc = cli.main(["phase", "--beta", "1.0", "--delta", "0.0",
                   "--out", str(tmp_path / "x.csv")])
    assert rc == 2


def test_phase_beyond_supported_beta_exits_2(tmp_path, capsys):
    rc = cli.main(["phase", "--beta", "7.5", "--delta", "0",
                   "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert "residual" in capsys.readouterr().err


def test_phase_requires_some_beta():
    with pytest.raises(SystemExit):
        cli.main(["phase", "--delta", "0.3"])


def test_exact_with_brute_oracle_column(tmp_path):
    out = tmp_path / "exact.csv"
    rc = cli.main(["exact", "--length", "10", "--beta", "2", "--delta", "0.5",
                   "--brute", "--out", str(out)])
    assert rc == 0
    _, header, rows = parse_csv(out.read_text())
    assert header == ["variant", "length", "beta", "delta", "cutoff", "log_z",
                      "truncation_bound", "log_z_brute"]
    assert sorted(r["variant"] for r in rows) == \
        ["ConstrainedEnd", "Free", "SingleBead"]
    for r in rows:
        assert float(r["log_z"]) == pytest.approx(float(r["log_z_brute"]),
                                                  rel=1e-10)
        assert float(r["truncation_bound"]) == 0.0


def test_exact_brute_gated_at_desk_scale(tmp_path):
    rc = cli.main(["exact", "--length", "20", "--beta", "2", "--delta", "0.5",
                   "--brute", "--out", str(tmp_path / "x.csv")])
    assert rc == 2


def test_exact_single_variant(tmp_path):
    out = tmp_path / "exact.csv"
    rc = cli.main(["exact", "--length", "30", "--beta", "2", "--delta", "1.2",
                   "--variant", "free", "--out", str(out)])
    assert rc == 0
    _, _, rows = parse_csv(out.read_text())
    assert [r["variant"] for r in rows] == ["Free"]
    assert rows[0]["log_z_brute"] == ""


def test_exact_rejects_unknown_variant(tmp_path):
    with pytest.raises(SystemExit):
        cli.main(["exact", "--length", "10", "--beta", "2", "--delta", "0.5",
                  "--variant", "bogus", "--out", str(tmp_path / "x.csv")])


def test_sample_jsonl_deterministic(tmp_path):
    base = ["sample", "--length", "40", "--beta", "2", "--delta", "1.2",
            "--variant", "free", "--count", "25"]
    a, b, c = (tmp_path / n for n in ("a.jsonl", "b.jsonl", "c.jsonl"))
    assert cli.main(base + ["--seed", "5", "--out", str(a)]) == 0
    assert cli.main(base + ["--seed", "5", "--out", str(b)]) == 0
    assert cli.main(base + ["--seed", "6", "--out", str(c)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()

    lines = a.read_text().strip().splitlines()
    prov = json.loads(lines[0])
    assert prov["record"] == "provenance"
    assert prov["seed"] == 5
    records = [json.loads(ln) for ln in lines[1:]]
    assert len(records) == 25
    for rec in records:
        heights = np.cumsum(rec["stretches"])
        assert rec["horizontal_extension"] == len(rec["stretches"])
        assert rec["contacts"] == int((heights == 0).sum())
        assert rec["max_height"] == int(heights.max())
        assert rec["area"] == int(heights.sum())
        assert (heights >= 0).all()


def test_sample_outdir_env(tmp_path, monkeypatch):
    monkeypatch.setenv("IPDSAW_OUTDIR", str(tmp_path))
    rc = cli.main(["sample", "--length", "20", "--beta", "2", "--delta", "1",
                   "--count", "5", "--out", "runs/s.jsonl"])
    assert rc == 0
    assert (tmp_path / "runs" / "s.jsonl").exists()


def test_wetting_stdout(capsys):
    rc = cli.main(["wetting", "--beta", "2", "--delta", "1",
                   "--length", "50", "--out", "-"])
    assert rc == 0
    _, header, rows = parse_csv(capsys.readouterr().out)
    assert header == ["beta", "delta", "delta_tilde", "h_wet", "log_zwet",
                      "cwet"]
    r = rows[0]
    assert float(r["delta_tilde"]) == pytest.approx(wetting.delta_tilde(2.0),
                                                    rel=1e-12)
    assert float(r["h_wet"]) == pytest.approx(
        wetting.wetting_free_energy(2.0, 1.0), rel=1e-12)
    assert float(r["log_zwet"]) == pytest.approx(wetting.zwet(2.0, 1.0, 50),
                                                 rel=1e-12)
    assert float(r["cwet"]) > 0.0


def test_wetting_large_delta_is_finite(capsys):
    rc = cli.main(["wetting", "--beta", "2", "--delta", "710",
                   "--length", "50", "--out", "-"])
    assert rc == 0
    _, _, rows = parse_csv(capsys.readouterr().out)
    for col in ("h_wet", "log_zwet", "cwet"):
        assert np.isfinite(float(rows[0][col]))


def test_wetting_nan_delta_exits_2(capsys):
    rc = cli.main(["wetting", "--beta", "2", "--delta", "nan", "--out", "-"])
    assert rc == 2
    assert "delta" in capsys.readouterr().err


def test_exact_nan_delta_exits_2(capsys):
    rc = cli.main(["exact", "--length", "10", "--beta", "2", "--delta", "nan",
                   "--out", "-"])
    assert rc == 2
    assert "delta" in capsys.readouterr().err


def test_wetting_subcritical_leaves_cwet_empty(capsys):
    rc = cli.main(["wetting", "--beta", "2", "--delta", "0.2", "--out", "-"])
    assert rc == 0
    _, _, rows = parse_csv(capsys.readouterr().out)
    assert rows[0]["cwet"] == ""
    assert float(rows[0]["h_wet"]) == 0.0


def test_tilt_asymptotic(capsys):
    rc = cli.main(["tilt", "--beta", "2", "--q", "0.5", "--out", "-"])
    assert rc == 0
    _, header, rows = parse_csv(capsys.readouterr().out)
    assert header == ["beta", "q", "p", "n", "h0", "h1", "l_lambda", "rate"]
    r = rows[0]
    ref = largedev.tilt_inverse(0.5, 0.0, 2.0)
    assert float(r["h0"]) == pytest.approx(ref.h0, rel=1e-10)
    assert float(r["h1"]) == pytest.approx(ref.h1, rel=1e-10)
    assert float(r["rate"]) == pytest.approx(largedev.rate_g(0.5, 0.0, 2.0),
                                             rel=1e-10)
    assert r["n"] == ""


def test_tilt_finite_n(capsys):
    rc = cli.main(["tilt", "--beta", "2", "--q", "0.5", "--n", "100",
                   "--out", "-"])
    assert rc == 0
    _, _, rows = parse_csv(capsys.readouterr().out)
    r = rows[0]
    ref = largedev.finite_tilt(100, 0.5, 0.0, 2.0)
    assert float(r["h0"]) == pytest.approx(ref.h0, rel=1e-10)
    assert float(r["l_lambda"]) == pytest.approx(
        largedev.finite_l_lambda(100, ref), rel=1e-10)


def test_asymptotics_columns(tmp_path):
    out = tmp_path / "asym.csv"
    rc = cli.main(["asymptotics", "--beta", "2", "--delta", "1.2",
                   "--lengths", "60,80", "--out", str(out)])
    assert rc == 0
    _, header, rows = parse_csv(out.read_text())
    assert header == ["length", "beta", "delta", "log_z", "scaled_gap", "Phi"]
    assert [int(r["length"]) for r in rows] == [60, 80]
    for r in rows:
        assert float(r["Phi"]) == pytest.approx(-2.397933555200658, rel=1e-8)
        assert float(r["scaled_gap"]) < 0.0


def test_invalid_grid_exits_2(tmp_path):
    assert cli.main(["phase", "--beta-grid", "2:1:0.1",
                     "--out", str(tmp_path / "x.csv")]) == 2
    assert cli.main(["phase", "--beta-grid", "1:2",
                     "--out", str(tmp_path / "x.csv")]) == 2


def test_verify_all_checks_pass(tmp_path):
    out = tmp_path / "verify.txt"
    rc = cli.main(["verify", "--out", str(out)])
    text = out.read_text()
    assert rc == 0, text
    lines = [ln for ln in text.strip().splitlines()
             if not ln.startswith("#")]
    assert len(lines) == 10
    assert all(ln.startswith("PASS ") for ln in lines)
