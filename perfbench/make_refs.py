"""Write ``refs.json``: the reference values the workload checks compare to.

    PYTHONPATH=src python3 perfbench/make_refs.py

Run once on a trusted revision; the file is checked in with the benchmark.
Where a cheap independent route exists it is used:

* L <= 18 partition values: plain recursive enumeration
  (``enumerate_configs`` + ``hamiltonian``), not the histogram sweep that
  ``brute_force_Z`` uses;
* the L=12 feature histogram for the sampling-law test: the same
  enumeration, and it must equal ``feature_histogram``;
* renewal ``log_zwet``: the direct height DP ``zwet_direct``.

Elsewhere (L=400 transfer DP, phase rows, tilts, wetting constants) the
value is what this revision computes; the mean contact count at L=400 is
the central difference of log Z in delta.
"""

from __future__ import annotations

import json
import math
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from ipdsaw import cli, exactz, polymer, wetting  # noqa: E402

DELTA_STEP = 1e-4


def _arg(op, flag):
    return op.args[op.args.index(flag) + 1]


def _run_cli(op) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "out")
        rc = cli.main([*op.args, *(("--seed", "1") if op.seeded else ()),
                       "--out", path])
        if rc != 0:
            raise RuntimeError(f"{op.name} exited with {rc}")
        with open(path, encoding="utf-8") as fh:
            return fh.read()


def _cells(row) -> list:
    return [float(c) if c else None for c in row]


def enumerated(L: int, variant) -> dict:
    """{(overlap, contacts): count} by recursive enumeration."""
    hist: dict = {}
    for l in exactz.enumerate_configs(L, variant):
        cfg = polymer.StretchConfig(l, L, variant)
        w = round(polymer.hamiltonian(cfg, 1.0, 0.0))
        c = round(polymer.hamiltonian(cfg, 0.0, 1.0))
        hist[(w, c)] = hist.get((w, c), 0) + 1
    return hist


def log_z_enumerated(L: int, beta: float, delta: float, variant) -> float:
    hist = enumerated(L, variant)
    terms = [math.log(n) + beta * w + delta * c for (w, c), n in hist.items()]
    m = max(terms)
    return m + math.log(math.fsum(math.exp(t - m) for t in terms))


def refs_for(workload: str, size: str) -> dict:
    out = {}
    for op in workloads.operations(workload, size):
        if op.check is workloads.check_exact:
            L, beta, delta = int(_arg(op, "--length")), float(_arg(op, "--beta")), \
                float(_arg(op, "--delta"))
            if "--brute" in op.args:
                out[op.name] = {v.value: log_z_enumerated(L, beta, delta, v)
                                for v in polymer.Variant}
            else:
                out[op.name] = {v.value: exactz.dp_Z(L, beta, delta, v)[0]
                                for v in polymer.Variant}
        elif op.check is workloads.check_sample_mean:
            L, beta, delta = int(_arg(op, "--length")), float(_arg(op, "--beta")), \
                float(_arg(op, "--delta"))
            up = exactz.dp_Z(L, beta, delta + DELTA_STEP, "Free")[0]
            dn = exactz.dp_Z(L, beta, delta - DELTA_STEP, "Free")[0]
            out[op.name] = {"mean_contacts": (up - dn) / (2.0 * DELTA_STEP)}
        elif op.check is workloads.check_sample_law:
            L = int(_arg(op, "--length"))
            hist = enumerated(L, polymer.Variant.FREE)
            if hist != exactz.feature_histogram(L, polymer.Variant.FREE):
                raise RuntimeError("enumeration and feature_histogram disagree")
            out[op.name] = {"histogram": sorted([w, c, n] for (w, c), n in hist.items())}
        elif op.check in (workloads.check_rows, workloads.check_tilt):
            _, rows = workloads.parse_csv(_run_cli(op))
            out[op.name] = [_cells(r) for r in rows]
        elif op.check is workloads.check_wetting:
            beta, delta, N = float(_arg(op, "--beta")), float(_arg(op, "--delta")), \
                int(_arg(op, "--length"))
            _, rows = workloads.parse_csv(_run_cli(op))
            out[op.name] = {"row": _cells(rows[0]),
                            "log_zwet_direct": wetting.zwet_direct(beta, delta, N)}
        elif op.check is workloads.check_zwet_direct:
            out[op.name] = wetting.zwet_direct(*op.args[1:])
        elif op.check is workloads.check_verify:
            out[op.name] = None
        else:
            raise RuntimeError(f"no reference route for {op.name}")
    return out


def main() -> int:
    refs = {size: {w: refs_for(w, size) for w in workloads.SEEDED}
            for size in ("full", "small")}
    with open(os.path.join(HERE, "refs.json"), "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
