"""Self-test of the benchmark at reduced input sizes (about a minute).

    python3 perfbench/selftest.py

For every workload it runs ``run.py --size small`` untraced and traced and
checks that

* no operation fails and the last line is the result object;
* every end-to-end (untraced) or per-layer (traced) metric of
  ``BENCHMARK.json`` is printed with its unit and sample count;
* the traced run wrote artifacts byte-identical to the untraced run;
* each workload touches only its layers: no ``exactz`` or ``polymer`` call
  on phase-wetting, and on exact-sampling only the few ``largedev`` and
  ``wetting`` calls that ``verify`` makes.

Finally it runs the benchmark in a directory holding only ``BENCHMARK.json``
and the benchmark files, where it must fail without printing a result.
"""

from __future__ import annotations

import filecmp
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_out")
SEED = 7

ISOLATED = {  # per-layer count -> workloads on which it must read 0
    "exactz.calls": ("phase-wetting",),
    "polymer.calls": ("phase-wetting",),
    # exact-sampling reaches largedev and wetting only through verify
    "largedev.phi_prime.calls": ("exact-sampling",),
    "wetting.zwet_direct.calls": ("exact-sampling",),
    "wetting.cwet_constant.calls": ("exact-sampling",),
}


def run(workload, trace, root=ROOT):
    cmd = [sys.executable, os.path.join(root, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(SEED), "--seconds", "1",
           "--trace", str(trace), "--size", "small"]
    return subprocess.run(cmd, capture_output=True, text=True, cwd=root, timeout=180)


def check_workload(workload, spec) -> list:
    problems = []
    results = {}
    for trace, metrics in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
        proc = run(workload, trace)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            return [f"trace {trace}: exit {proc.returncode}\n{proc.stderr}"]
        res = json.loads(lines[-1])
        results[trace] = res
        if set(res) != {"correct", "attempted", "failed", "metrics"}:
            problems.append(f"trace {trace}: result keys {sorted(res)}")
        if not res["correct"] or res["failed"] or res["attempted"] < 1:
            problems.append(f"trace {trace}: {res['failed']}/{res['attempted']} "
                            f"operations failed\n{proc.stderr}")
        for m in metrics:
            got = res["metrics"].get(m["name"])
            if got is None or got["unit"] != m["unit"]:
                problems.append(f"trace {trace}: metric {m['name']} missing or "
                                f"without unit {m['unit']}: {got}")
            shown = f"{workload} {m['name']} median "
            if not any(ln.startswith(shown) and f" {m['unit']} (" in ln
                       and "n=" in ln for ln in lines[:-1]):
                problems.append(f"trace {trace}: {m['name']} not printed")
        if set(res["metrics"]) != {m["name"] for m in metrics}:
            problems.append(f"trace {trace}: extra metrics "
                            f"{sorted(set(res['metrics']) - {m['name'] for m in metrics})}")
    plain = os.path.join(OUT, f"{workload}-trace0", "iter0")
    traced = os.path.join(OUT, f"{workload}-trace1", "iter0")
    arts = sorted(f for f in os.listdir(plain) if f.endswith(".out"))
    if not arts:
        problems.append("no artifacts written")
    _, mismatch, errors = filecmp.cmpfiles(plain, traced, arts, shallow=False)
    if mismatch or errors:
        problems.append(f"traced artifacts differ from untraced: {mismatch + errors}")
    layers = results[1]["metrics"]
    for metric, wls in ISOLATED.items():
        calls = layers[metric]["value"]
        if workload in wls and calls != 0:
            problems.append(f"{metric} reads {calls}")
    return problems


def check_without_package() -> list:
    bare = os.path.join(OUT, "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("exact-sampling", 0, root=bare)
    shutil.rmtree(bare)
    last = (proc.stdout.strip().splitlines() or [""])[-1]
    if proc.returncode == 0 or last.startswith("{"):
        return [f"without the package: exit {proc.returncode}, last line {last!r}"]
    return []


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    failed = False
    for w in (w["name"] for w in spec["workloads"]):
        problems = check_workload(w, spec)
        failed |= bool(problems)
        print(f"{'FAIL' if problems else 'ok'} {w}")
        for p in problems:
            print(f"  {p}")
    problems = check_without_package()
    failed |= bool(problems)
    print(f"{'FAIL' if problems else 'ok'} refuses to run without the package")
    for p in problems:
        print(f"  {p}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
