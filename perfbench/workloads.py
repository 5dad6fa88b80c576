"""The two workloads: their operations, input sizes and output checks.

An operation is one CLI invocation (``ipdsaw.cli.main(argv)``) or one
library call.  It fails on an exception, a non-zero exit, or an output
outside the stated precision of its reference in ``refs.json``:

* log Z within 1e-10 relative (references by enumeration for L <= 18 and by
  ``zwet_direct`` for the renewal ``zwet``; seed values elsewhere);
* phase, tilt and wetting rows within 1e-9 of their references;
* every tilt's residual |grad L_Lambda(h) - (q, p)| <= 1e-10;
* ``verify`` exits 0 with 10/10 PASS;
* samples by law, not by bytes: every draw decodes to a valid configuration,
  and the draws pass a fixed-level test against the exact law.

``size`` is ``full`` for measurement and ``small`` for the self-test.
"""

from __future__ import annotations

import json
import math
from typing import Callable, NamedTuple

LOGZ_RTOL = 1e-10
ROW_TOL = 1e-9
TILT_RESIDUAL_TOL = 1e-10
# fixed test level 1e-6: upper normal quantile and the z-bound on a mean
CHI2_Z = 4.753424308822899
MEAN_Z_MAX = 5.0


class Op(NamedTuple):
    name: str
    args: tuple           # CLI argv without --out/--seed, or (function, *args)
    check: Callable
    kind: str = "cli"     # "cli" or "lib"
    seeded: bool = False  # receives the workload seed as --seed


# phase-wetting has deterministic inputs: it ignores the seed
SEEDED = {"exact-sampling": True, "phase-wetting": False}


def operations(workload: str, size: str = "full") -> list:
    full = size == "full"
    if workload == "exact-sampling":
        L, count = (300, 1000) if full else (60, 200)
        Lb, count12 = (18, 50000) if full else (10, 5000)
        return [
            Op("exact-L300", ("exact", "--length", str(L), "--beta", "2",
                              "--delta", "1.2", "--variant", "all"), check_exact),
            Op("sample-L300", ("sample", "--length", str(L), "--beta", "2",
                               "--delta", "1.2", "--variant", "free",
                               "--count", str(count)), check_sample_mean,
               seeded=True),
            Op("verify", ("verify",), check_verify),
            Op("exact-brute", ("exact", "--length", str(Lb), "--beta", "2",
                               "--delta", "0.5", "--brute"), check_exact),
            Op("sample-L12", ("sample", "--length", "12", "--beta", "2",
                              "--delta", "1.2", "--variant", "free",
                              "--count", str(count12)), check_sample_law,
               seeded=True),
        ]
    if workload == "phase-wetting":
        grid = (("--beta-grid", "1.5:3:1.5", "--delta-grid", "0.5:1.2:0.7")
                if full else ("--beta", "1.5", "--delta", "0.5"))
        N = "5000" if full else "500"
        return [
            Op("phase", ("phase", *grid, "--workers", "1"), check_rows),
            Op("tilt-q0.5", ("tilt", "--beta", "2", "--q", "0.5"), check_tilt),
            Op("tilt-q1-p0.3", ("tilt", "--beta", "2", "--q", "1",
                                "--p", "0.3"), check_tilt),
            Op("tilt-n100", ("tilt", "--beta", "2", "--q", "0.5",
                             "--p", "0.1", "--n", "100"), check_tilt),
            Op("tilt-n1000", ("tilt", "--beta", "2", "--q", "0.25",
                              "--p", "-0.2", "--n", "1000"), check_tilt),
            Op("wetting-b0.5", ("wetting", "--beta", "0.5", "--delta", "2",
                                "--length", N), check_wetting),
            Op("wetting-b2", ("wetting", "--beta", "2", "--delta", "1",
                              "--length", N), check_wetting),
            Op("zwet-direct", ("wetting.zwet_direct", 2.0, 1.0, int(N)),
               check_zwet_direct, kind="lib"),
        ]
    raise ValueError(f"unknown workload {workload!r}")


# -- parsing helpers ----------------------------------------------------------

def parse_csv(text: str) -> tuple:
    """(header, rows) of an ipdsaw CSV artifact, provenance lines dropped."""
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def _close(got: str, want, rtol: float) -> bool:
    if want is None or got == "":
        return want is None and got == ""
    g = float(got)
    return math.isfinite(g) and abs(g - want) <= rtol * max(1.0, abs(want))


def _row_problems(header, row, ref_row, rtol=ROW_TOL) -> list:
    return [f"{col}={got!r} vs reference {want!r}"
            for col, got, want in zip(header, row, ref_row)
            if not _close(got, want, rtol)]


def decode_draw(rec: dict, L: int) -> tuple:
    """(overlap, contacts) of one sampled Free record; raises if invalid."""
    l = rec["stretches"]
    if not l or any(type(v) is not int for v in l):
        raise ValueError(f"bad stretch vector {l!r}")
    if len(l) + sum(abs(v) for v in l) != L:
        raise ValueError(f"stretches {l!r} do not have total length {L}")
    heights, t = [], 0
    for v in l:
        t += v
        heights.append(t)
    if min(heights) < 0:
        raise ValueError(f"stretches {l!r} dip below the wall")
    contacts = heights.count(0)
    derived = {"horizontal_extension": len(l), "contacts": contacts,
               "max_height": max(heights), "area": sum(heights)}
    for k, v in derived.items():
        if rec[k] != v:
            raise ValueError(f"record field {k}={rec[k]!r}, stretches give {v}")
    padded = [0, *l, 0]
    overlap = sum(min(abs(a), abs(b)) for a, b in zip(padded, padded[1:])
                  if a * b <= 0)
    return overlap, contacts


def _draws(op: Op, text: str, ctx: dict) -> list:
    """Decoded (overlap, contacts) of every draw; raises on any bad record."""
    prov, *records = (json.loads(ln) for ln in text.splitlines())
    argv = dict(zip(op.args[1::2], op.args[2::2]))
    if prov.get("record") != "provenance" or prov.get("seed") != ctx["seed"]:
        raise ValueError(f"bad provenance record {prov!r}")
    if len(records) != int(argv["--count"]):
        raise ValueError(f"{len(records)} records, expected {argv['--count']}")
    L = int(argv["--length"])
    return [decode_draw(r, L) for r in records]


# -- checks: each returns a list of problems, empty when the output holds ------

def check_exact(op: Op, text: str, ctx: dict) -> list:
    header, rows = parse_csv(text)
    ref = ctx["ref"]
    col = {name: i for i, name in enumerate(header)}
    seen = {r[col["variant"]]: r for r in rows}
    problems = [] if sorted(seen) == sorted(ref) and len(rows) == len(ref) else [
        f"variants {sorted(seen)} != {sorted(ref)}"]
    for var, want in ref.items():
        row = seen.get(var)
        if row is None:
            continue
        cols = ["log_z"] + (["log_z_brute"] if "--brute" in op.args else [])
        problems += [f"{var} {c}={row[col[c]]} vs {want!r}" for c in cols
                     if not _close(row[col[c]], want, LOGZ_RTOL)]
        if float(row[col["truncation_bound"]]) != 0.0:
            problems.append(f"{var} table is truncated")
    return problems


def check_sample_mean(op: Op, text: str, ctx: dict) -> list:
    """Mean contacts within MEAN_Z_MAX standard errors of d/d delta log Z."""
    contacts = [c for _, c in _draws(op, text, ctx)]
    n = len(contacts)
    mean = sum(contacts) / n
    var = sum((c - mean) ** 2 for c in contacts) / (n - 1)
    want = ctx["ref"]["mean_contacts"]
    z = (mean - want) / math.sqrt(var / n) if var > 0 else (
        0.0 if mean == want else math.inf)
    return [] if abs(z) <= MEAN_Z_MAX else [
        f"mean contacts {mean:.4f} vs exact {want:.4f}: z = {z:.2f}"]


def check_sample_law(op: Op, text: str, ctx: dict) -> list:
    """Chi-square test of (overlap, contacts) frequencies at level 1e-6."""
    draws = _draws(op, text, ctx)
    n = len(draws)
    beta, delta = float(op.args[op.args.index("--beta") + 1]), float(
        op.args[op.args.index("--delta") + 1])
    hist = {(w, c): m for w, c, m in ctx["ref"]["histogram"]}
    weights = {k: m * math.exp(beta * k[0] + delta * k[1]) for k, m in hist.items()}
    total = math.fsum(weights.values())
    observed: dict = {}
    for k in draws:
        observed[k] = observed.get(k, 0) + 1
    unknown = set(observed) - set(hist)
    if unknown:
        return [f"draws with impossible features {sorted(unknown)[:5]}"]
    cells, pool_o, pool_e = [], 0, 0.0
    for k in sorted(hist):
        e = n * weights[k] / total
        if e < 5.0:
            pool_o, pool_e = pool_o + observed.get(k, 0), pool_e + e
        else:
            cells.append((observed.get(k, 0), e))
    if pool_e > 0.0:
        cells.append((pool_o, pool_e))
    stat = sum((o - e) ** 2 / e for o, e in cells)
    df = len(cells) - 1
    # Wilson-Hilferty upper quantile of chi-square(df) at level 1e-6
    crit = df * (1.0 - 2.0 / (9 * df) + CHI2_Z * math.sqrt(2.0 / (9 * df))) ** 3
    return [] if stat <= crit else [
        f"chi-square {stat:.1f} > {crit:.1f} on {df} degrees of freedom"]


def check_verify(op: Op, text: str, ctx: dict) -> list:
    lines = text.splitlines()
    passes = [ln for ln in lines if ln.startswith("PASS ")]
    fails = [ln for ln in lines if ln.startswith("FAIL ")]
    if len(passes) == 10 and not fails and lines[-1] == "# 10/10 checks passed":
        return []
    return [f"verify: {len(passes)} PASS, failures {fails}"]


def check_rows(op: Op, text: str, ctx: dict) -> list:
    header, rows = parse_csv(text)
    ref = ctx["ref"]
    if len(rows) != len(ref):
        return [f"{len(rows)} rows, expected {len(ref)}"]
    return [p for row, want in zip(rows, ref) for p in _row_problems(header, row, want)]


def check_tilt(op: Op, text: str, ctx: dict) -> list:
    header, rows = parse_csv(text)
    problems = check_rows(op, text, ctx)
    largedev = ctx["ipdsaw"].largedev
    row = dict(zip(header, rows[0]))
    h = largedev.TiltVector(float(row["h0"]), float(row["h1"]), float(row["beta"]))
    q, p = float(row["q"]), float(row["p"])
    gq, gp = (largedev.grad_finite_l_lambda(int(row["n"]), h) if row["n"]
              else largedev.grad_l_lambda(h))
    res = math.hypot(gq - q, gp - p)
    if not res <= TILT_RESIDUAL_TOL:
        problems.append(f"tilt residual {res:.2e} > {TILT_RESIDUAL_TOL}")
    return problems


def check_wetting(op: Op, text: str, ctx: dict) -> list:
    """Row within 1e-9 of the seed row; log_zwet within 1e-10 of zwet_direct."""
    header, rows = parse_csv(text)
    if len(rows) != 1:
        return [f"{len(rows)} rows, expected 1"]
    row = dict(zip(header, rows[0]))
    problems = _row_problems(header, rows[0], ctx["ref"]["row"])
    if not _close(row["log_zwet"], ctx["ref"]["log_zwet_direct"], LOGZ_RTOL):
        problems.append(f"log_zwet {row['log_zwet']} vs direct route "
                        f"{ctx['ref']['log_zwet_direct']!r}")
    return problems


def check_zwet_direct(op: Op, text: str, ctx: dict) -> list:
    """Against its reference and against the renewal route of ``wetting-b2``."""
    problems = [] if _close(text.strip(), ctx["ref"], LOGZ_RTOL) else [
        f"zwet_direct {text.strip()} vs reference {ctx['ref']!r}"]
    renewal = ctx["outputs"].get("wetting-b2")
    if renewal is None:
        return problems + ["no renewal output to compare against"]
    header, rows = parse_csv(renewal)
    log_zwet = dict(zip(header, rows[0]))["log_zwet"]
    if not _close(log_zwet, float(text), LOGZ_RTOL):
        problems.append(f"renewal {log_zwet} vs direct {text.strip()}")
    return problems
