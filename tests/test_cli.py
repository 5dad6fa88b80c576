"""Command-line interface: outputs, determinism, exit codes."""

import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import ipdsaw
from ipdsaw import cli, exactz, largedev, polymer, steps, wetting

import oracles


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
    # --workers 1, the only value left, is the default: provenance included
    assert cli.main(args + ["--workers", "1", "--out", str(paths[2])]) == 0
    assert paths[0].read_bytes() == paths[1].read_bytes() == paths[2].read_bytes()
    assert "workers=1" in paths[0].read_text()
    _, _, rows = parse_csv(paths[0].read_text())
    assert rows[0]["Psi_or_empty"] != ""  # delta == 0 exposes the third scale


def test_cli_import_leaves_out_process_pool():
    # no command uses a process pool, so a fresh interpreter that imports
    # the CLI does not load one
    code = ("import sys, ipdsaw.cli; "
            "sys.exit('concurrent.futures.process' in sys.modules)")
    env = dict(os.environ,
               PYTHONPATH=str(Path(ipdsaw.__file__).resolve().parents[1]))
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_cli_parser_is_built_at_the_first_call_and_reused():
    # importing the CLI builds no parser; every call after the first,
    # refused or not, parses with the one built by the first
    code = ("import sys, ipdsaw.cli as cli; "
            "built = cli.build_parser.cache_info().currsize; "
            "first = cli.main(['tilt', '--beta', '2', '--q', '0.5']); "
            "parser = cli.build_parser(); "
            "nan = cli.main(['tilt', '--beta', '2', '--q', 'nan']); "
            "again = cli.main(['wetting', '--beta', '2', '--delta', '1', "
            "'--length', '10']); "
            "sys.exit(not (built == 0 and first == again == 0 and nan == 2 "
            "and cli.build_parser() is parser "
            "and cli.build_parser.cache_info().misses == 1))")
    env = dict(os.environ,
               PYTHONPATH=str(Path(ipdsaw.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_phase_workers_other_than_1_exit_2_and_start_no_process():
    # every process start fails loudly in the child, so a refused value
    # that still forked a pool would not exit 2
    code = """if True:
        import multiprocessing.process, os, sys
        def refuse(*args, **kwargs):
            raise AssertionError("a process was started")
        os.fork = multiprocessing.process.BaseProcess.start = refuse
        from ipdsaw import cli
        for workers in ("2", "0"):
            try:
                cli.main(["phase", "--beta", "2", "--workers", workers])
            except SystemExit as exc:
                assert exc.code == 2, exc.code
            else:
                raise AssertionError("--workers " + workers + " ran")
        assert "concurrent.futures.process" not in sys.modules
    """
    env = dict(os.environ,
               PYTHONPATH=str(Path(ipdsaw.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    for workers in ("2", "0"):
        assert f"argument --workers: invalid choice: {workers}" in proc.stderr


def test_phase_below_collapse_threshold_exits_2(tmp_path):
    rc = cli.main(["phase", "--beta", "1.0", "--delta", "0.0",
                   "--out", str(tmp_path / "x.csv")])
    assert rc == 2


def test_phase_beyond_supported_beta_exits_2(tmp_path, capsys):
    # past beta = 354.198 the profile's boundary gap at delta = 0 is no
    # longer a normal double; the critical curves stay finite
    rc = cli.main(["phase", "--beta", "360", "--delta", "0",
                   "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert "gap" in capsys.readouterr().err


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


def test_exact_brute_gated_at_desk_scale(tmp_path, capsys):
    # the enumeration's own limit, L <= 24, is the only one: it refuses
    # L = 25 before any DP runs
    rc = cli.main(["exact", "--length", "25", "--beta", "2", "--delta", "0.5",
                   "--brute", "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert "L=25 too large for enumeration (max 24)" in capsys.readouterr().err


def test_exact_brute_at_the_enumeration_limit(tmp_path):
    out = tmp_path / "exact.csv"
    rc = cli.main(["exact", "--length", "24", "--beta", "2", "--delta", "0.5",
                   "--brute", "--out", str(out)])
    assert rc == 0
    _, _, rows = parse_csv(out.read_text())
    assert len(rows) == 3
    for r in rows:
        assert float(r["log_z"]) == pytest.approx(float(r["log_z_brute"]),
                                                  rel=1e-10)


def test_exact_single_variant(tmp_path):
    out = tmp_path / "exact.csv"
    rc = cli.main(["exact", "--length", "30", "--beta", "2", "--delta", "1.2",
                   "--variant", "free", "--out", str(out)])
    assert rc == 0
    _, _, rows = parse_csv(out.read_text())
    assert [r["variant"] for r in rows] == ["Free"]
    assert rows[0]["log_z_brute"] == ""


@pytest.mark.parametrize("L", [60, 300])
def test_exact_csv_is_the_same_from_the_ring_and_the_table(tmp_path, monkeypatch, L):
    # exact runs the DP on a ring; the same rows from dp_Z's table
    argv = ["exact", "--length", str(L), "--beta", "2", "--delta", "1.2",
            "--variant", "all"]
    ring, table = tmp_path / "ring.csv", tmp_path / "table.csv"
    assert cli.main([*argv, "--out", str(ring)]) == 0

    def from_table(*args, **kwargs):
        log_z, t = exactz.dp_Z(*args, **kwargs)
        return exactz.LogZ(log_z, t.height_cutoff, t.log_truncation_bound,
                           t.truncation_bound)

    monkeypatch.setattr(exactz, "dp_log_Z", from_table)
    assert cli.main([*argv, "--out", str(table)]) == 0
    assert ring.read_bytes() == table.read_bytes()


def test_exact_beyond_physical_memory_exits_2(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(exactz, "_physical_memory", lambda: 1 << 20)
    out = tmp_path / "x.csv"
    assert cli.main(["exact", "--length", "400", "--beta", "2", "--delta", "0.5",
                     "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "L=400, H=199, Free" in err and "physical memory" in err
    assert not out.exists()


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


@pytest.mark.parametrize("variant", ["free", "constrained", "single-bead"])
def test_sample_jsonl_matches_record_oracle(variant, capsys):
    # the table the CLI draws from when --cutoff is omitted
    L, beta, delta = 24, 2.0, 1.2
    _, table = exactz.certified_dp_Z(L, beta, delta, cli._VARIANT_FLAGS[variant])
    for seed in (1, 2):
        for count in (0, 60):
            assert cli.main(["sample", "--length", str(L), "--beta", str(beta),
                             "--delta", str(delta), "--variant", variant,
                             "--count", str(count), "--seed", str(seed),
                             "--out", "-"]) == 0
            text = capsys.readouterr().out
            prov = text.split("\n", 1)[0]
            record = json.loads(prov)
            assert record["record"] == "provenance"
            assert record["cutoff"] == table.height_cutoff
            assert record["truncation_bound"] == table.truncation_bound
            draws = exactz.backward_sample(table, count, np.random.default_rng(seed))
            want = "\n".join([prov, *oracles.sample_record_lines(draws)]) + "\n"
            assert text == want


def test_sample_chunks_match_on_stdout_and_in_a_file(tmp_path, capsys):
    # more draws than one chunk, about _SAMPLE_VALUES values of at most
    # L + 4 per record: the same bytes on stdout and in a file, and every
    # record is the oracle's
    count = cli._SAMPLE_VALUES // (12 + 4) + 904
    argv = ["sample", "--length", "12", "--beta", "0.3", "--delta", "-1",
            "--variant", "free", "--count", str(count), "--seed", "3"]
    assert cli.main([*argv, "--out", "-"]) == 0
    text = capsys.readouterr().out
    out = tmp_path / "draws.jsonl"
    assert cli.main([*argv, "--out", str(out)]) == 0
    assert out.read_bytes() == text.encode()
    prov, *records = text.splitlines()
    _, table = exactz.certified_dp_Z(12, 0.3, -1.0, polymer.Variant.FREE)
    draws = exactz.backward_sample(table, count, np.random.default_rng(3))
    assert records == oracles.sample_record_lines(draws)


@pytest.mark.parametrize("argv, digest", [
    # cut at 46
    ("--length 300 --beta 2 --delta 1.2 --variant free --count 1000 --seed 1",
     "00970a95659f0b9fed150ff74466af0ef19628cc825089f8b154e09035b31527"),
    # closed at 19, so draws leave the table
    ("--length 40 --beta 0.3 --delta -1 --variant free --count 2000 --seed 2",
     "c140dc70678057f4d43791f27f7e240ed84c807aa725132e286d00d094f8da29"),
    ("--length 60 --beta 2 --delta 0.5 --variant single-bead --count 2000 --seed 3",
     "a84e76802f7f56f4c050be43007ef1b39c1d1a3806b4e10bea96f47faaf2491f"),
    ("--length 50 --beta 1.5 --delta 0.3 --variant constrained --count 1000 --seed 4",
     "deb40e646fef11d8cbbd42c58f81913f1c60b92e722b74427f5fc422d67bcf13"),
])
def test_sample_records_are_pinned(argv, digest, capsys):
    # the SHA-256 of the record lines; the provenance line is left out, as
    # its float truncation_bound can move by an ulp across BLAS builds
    assert cli.main(["sample", *argv.split(), "--out", "-"]) == 0
    records = capsys.readouterr().out.split("\n", 1)[1]
    assert hashlib.sha256(records.encode()).hexdigest() == digest


def test_sample_certified_cut_table_exits_0(capsys):
    # a table cut below the exact cutoff 31, whose bound is 2.6e-16 of Z,
    # is sampled from
    rc = cli.main(["sample", "--length", "64", "--beta", "2", "--delta", "1.2",
                   "--variant", "free", "--cutoff", "30", "--count", "20",
                   "--out", "-"])
    assert rc == 0
    prov, *records = capsys.readouterr().out.splitlines()
    assert json.loads(prov)["cutoff"] == 30
    assert 0.0 < json.loads(prov)["truncation_bound"] < 1e-20
    assert len(records) == 20


def test_sample_truncated_table_exits_2(capsys):
    rc = cli.main(["sample", "--length", "60", "--beta", "20", "--delta",
                   "0.5", "--variant", "free", "--cutoff", "5", "--out", "-"])
    assert rc == 2
    assert "truncated" in capsys.readouterr().err


def test_sample_negative_count_exits_2(capsys):
    rc = cli.main(["sample", "--length", "12", "--beta", "2", "--delta", "1.2",
                   "--count", "-1", "--out", "-"])
    assert rc == 2
    assert "count" in capsys.readouterr().err


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


def test_wetting_zero_length_reports_zwet(capsys):
    # an explicit --length 0 is a length, not an omitted option
    rc = cli.main(["wetting", "--beta", "2", "--delta", "1",
                   "--length", "0", "--out", "-"])
    assert rc == 0
    _, _, rows = parse_csv(capsys.readouterr().out)
    assert rows[0]["log_zwet"] != ""
    assert float(rows[0]["log_zwet"]) == wetting.zwet(2.0, 1.0, 0) == 0.0


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


@pytest.mark.parametrize("n", [None, 100, 1000])
@pytest.mark.parametrize("q, p", [(0.5, 0.0), (1.0, 0.3)])
def test_tilt_rate_is_the_legendre_rate_bit_for_bit(capsys, q, p, n):
    # the limit against rate_g, n steps against q h0 + p h1 - L_{Lambda,n}(h)
    args = ["tilt", "--beta", "2", "--q", str(q), "--p", str(p), "--out", "-"]
    assert cli.main(args + ([] if n is None else ["--n", str(n)])) == 0
    r = parse_csv(capsys.readouterr().out)[2][0]
    if n is None:
        h = largedev.tilt_inverse(q, p, 2.0)
        value, rate = largedev.l_lambda(h), largedev.rate_g(q, p, 2.0)
    else:
        h = largedev.finite_tilt(n, q, p, 2.0)
        value = largedev.finite_l_lambda(n, h)
        rate = q * h.h0 + p * h.h1 - value
    assert (float(r["h0"]), float(r["h1"])) == (h.h0, h.h1)
    assert float(r["l_lambda"]) == value
    assert float(r["rate"]) == rate


@pytest.mark.parametrize("n", ["0", "1"])
def test_tilt_n_below_2_exits_2(capsys, n):
    # an explicit --n 0 is a finite size, not the limit tilt
    rc = cli.main(["tilt", "--beta", "2", "--q", "0.5", "--n", n,
                   "--out", "-"])
    assert rc == 2
    assert f"n = {n} " in capsys.readouterr().err


@pytest.mark.parametrize("name, value", [("q", "nan"), ("p", "inf"),
                                         ("p", "-inf")])
def test_tilt_non_finite_exits_2_naming_it(capsys, name, value):
    rc = cli.main(["tilt", "--beta", "2", "--q", "0.5", f"--{name}={value}",
                   "--out", "-"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert f"finite gradient: {name} = {value}" in err


def test_tilt_infinite_beta_exits_2_naming_it(capsys):
    rc = cli.main(["tilt", "--beta", "inf", "--q", "0.5", "--out", "-"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "beta must be positive and finite, got inf" in err


def test_tilt_unsolvable_exits_2_without_traceback():
    # at q = 100 the tilt lies closer to the domain boundary than any double
    # that meets the residual tolerance: invalid input, not a failed check
    env = dict(os.environ,
               PYTHONPATH=str(Path(ipdsaw.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "ipdsaw.cli", "tilt", "--beta", "2", "--q", "100",
         "--out", "-"], env=env, capture_output=True, text=True)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.count("\n") == 1
    assert "(q, p) = (100.0, 0.0), beta = 2.0" in proc.stderr


def test_asymptotics_columns(tmp_path):
    out = tmp_path / "asym.csv"
    rc = cli.main(["asymptotics", "--beta", "2", "--delta", "1.2",
                   "--lengths", "60,200", "--out", str(out)])
    assert rc == 0
    _, header, rows = parse_csv(out.read_text())
    assert header == ["length", "beta", "delta", "log_z", "scaled_gap", "Phi",
                      "cutoff", "log_rel_bound"]
    assert [int(r["length"]) for r in rows] == [60, 200]
    for r in rows:
        assert float(r["Phi"]) == pytest.approx(-2.397933555200658, rel=1e-8)
        assert float(r["scaled_gap"]) < 0.0
    # L = 60 keeps the exact table; L = 200 is cut far below its exact 99
    assert (int(rows[0]["cutoff"]), rows[0]["log_rel_bound"]) == (29, "-inf")
    assert int(rows[1]["cutoff"]) < 99
    assert float(rows[1]["log_rel_bound"]) < math.log(1e-13)
    exact, _ = exactz.dp_Z(200, 2.0, 1.2, polymer.Variant.SINGLE_BEAD)
    assert float(rows[1]["log_z"]) == pytest.approx(exact, rel=1e-13)


def test_invalid_grid_exits_2(tmp_path):
    assert cli.main(["phase", "--beta-grid", "2:1:0.1",
                     "--out", str(tmp_path / "x.csv")]) == 2
    assert cli.main(["phase", "--beta-grid", "1:2",
                     "--out", str(tmp_path / "x.csv")]) == 2


@pytest.mark.parametrize("args", [
    ("--beta-grid", "1.5:inf:0.5"),
    ("--beta", "2", "--delta-grid", "0:1:inf"),
    ("--beta", "2", "--delta-grid", "0:1:1e-300"),  # 1e300 points
], ids=["inf-hi", "inf-step", "tiny-step"])
def test_unbounded_phase_grid_exits_2_at_once(tmp_path, capsys, args):
    out = tmp_path / "x.csv"
    tracemalloc.start()
    try:
        rc = cli.main(["phase", *args, "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 2
    assert "grid" in capsys.readouterr().err
    assert peak < 1 << 20  # refused before any list of points was built
    assert not out.exists()


def test_verify_all_checks_pass(tmp_path):
    out = tmp_path / "verify.txt"
    rc = cli.main(["verify", "--out", str(out)])
    text = out.read_text()
    assert rc == 0, text
    lines = [ln for ln in text.strip().splitlines()
             if not ln.startswith("#")]
    assert len(lines) == 10
    assert all(ln.startswith("PASS ") for ln in lines)


def test_verify_leaves_public_zwet_direct_uncalled(tmp_path, monkeypatch):
    # perfbench/selftest.py requires wetting.zwet_direct to read 0 calls on
    # a workload that reaches wetting only through verify, so verify and
    # area_wetting_dp take the private bridge, never the public name
    def public_call(*args, **kwargs):
        raise AssertionError("verify called wetting.zwet_direct")

    monkeypatch.setattr(wetting, "zwet_direct", public_call)
    out = tmp_path / "verify.txt"
    assert cli.main(["verify", "--out", str(out)]) == 0, out.read_text()


def test_public_names_resolve():
    # perfbench/tracer.py wraps every name of each module's __all__ through
    # getattr, and perfbench/ reads the names below; a missing one would
    # break only traced benchmark runs
    for name in ipdsaw.__all__:
        assert hasattr(ipdsaw, name), name
    for mod in (steps, wetting, polymer, exactz, largedev):
        for name in mod.__all__:
            assert hasattr(mod, name), f"{mod.__name__}.{name}"
    for fn in (exactz.enumerate_configs, polymer.StretchConfig.prefix_heights,
               polymer.hamiltonian, steps.StepLaw,
               largedev.grad_finite_l_lambda):
        assert callable(fn)
    kernel = wetting.return_kernel(2.0, 10)
    assert kernel.t_max == 10
    assert kernel.height_cutoff == 0  # closed form: no height cutoff
    # the tracer's return hooks: dp_Z's table and backward_sample's batch
    _, table = exactz.dp_Z(12, 2.0, 1.2, polymer.Variant.FREE)
    assert table.log_weights.nbytes > 0
    assert table.height_cutoff == exactz._exact_cutoff(12)
    assert table.L == 12
    assert len(exactz.backward_sample(table, 3, np.random.default_rng(0))) == 3
