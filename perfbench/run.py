"""ipdsaw benchmark: one workload, fresh worker processes, medians.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all ...     # every workload in turn

Run from anywhere; the package is taken from ``src/`` next to this
directory.  The run first spawns one untimed interpreter (byte-compiles the
package), then ``SETUP_SAMPLES`` set-up-only interpreters, then whole
workload iterations, each in a fresh worker process, while another one is
expected to finish within ``--seconds`` (at least one always runs).  Every
worker also contributes one set-up sample.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end medians with
``--trace 0``, the per-layer medians with ``--trace 1``.  The lines before
it give each metric's median, quartiles and sample count, and the failure
fraction.  The full record (every sample, the environment, per-operation
problems) goes to ``.bench_out/<workload>-seed<N>-trace<T>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402

SETUP_SAMPLES = 8
HARD_LIMIT_S = 170.0  # every process of one run ends within this
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")


def _spec() -> dict:
    with open(BENCHMARK_JSON, encoding="utf-8") as fh:
        return json.load(fh)


def _git_revision():
    """HEAD of the checkout, read from .git without running git; None if absent."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _spawn(worker_args, log_path, deadline) -> int:
    """Run worker.py to completion (killed at ``deadline``); its exit code."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src") + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("IPDSAW_OUTDIR", None)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--t-spawn", "",
           *worker_args]
    with open(log_path, "w", encoding="utf-8") as log:
        cmd[3] = repr(time.monotonic())  # set-up is timed from here
        proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT,
                                env=env, cwd=ROOT)
        try:
            return proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            return -9
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()


def _setup_sample(out_dir, name, deadline) -> float:
    log = os.path.join(out_dir, f"setup-{name}.log")
    rc = _spawn(["--setup-only"], log, deadline)
    if rc != 0:
        raise RuntimeError(f"set-up worker failed with code {rc}; see {log}")
    with open(log, encoding="utf-8") as fh:
        return json.loads(fh.read().splitlines()[-1])["setup_s"]


def _iteration(out_dir, k, workload, seed, trace, size, deadline) -> dict | None:
    """One workload iteration in a fresh worker; None if the worker died."""
    it_dir = os.path.join(out_dir, f"iter{k}")
    os.makedirs(it_dir)
    rc = _spawn(["--workload", workload, "--seed", str(seed), "--trace", str(trace),
                 "--size", size, "--out-dir", it_dir,
                 "--refs", os.path.join(HERE, "refs.json")],
                os.path.join(it_dir, "worker.log"), deadline)
    path = os.path.join(it_dir, "result.json")
    if rc != 0 or not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def summarize(values) -> dict:
    values = sorted(values)
    if len(values) > 1:
        q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = med = q3 = values[0]
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def run_workload(workload, seed, seconds, trace, size="full") -> dict:
    start = time.monotonic()
    out_dir = os.path.join(ROOT, ".bench_out", f"{workload}-trace{trace}")
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    deadline = start + HARD_LIMIT_S
    n_ops = len(workloads.operations(workload, size))

    _setup_sample(out_dir, "warmup", deadline)  # byte-compiles the package; not counted
    setup = [_setup_sample(out_dir, k, deadline) for k in range(SETUP_SAMPLES)]
    iters, durations, attempted, failed, problems = [], [], 0, 0, []
    while True:
        t0 = time.monotonic()
        res = _iteration(out_dir, len(durations), workload, seed, trace, size,
                         deadline)
        durations.append(time.monotonic() - t0)
        attempted += n_ops
        if res is None:
            failed += n_ops
            problems.append(f"iteration {len(durations) - 1}: worker died")
        else:
            iters.append(res)
            setup.append(res["setup_s"])
            for op in res["ops"]:
                if not op["ok"]:
                    failed += 1
                    problems.append(f"{op['name']}: {op['problems']}")
        if time.monotonic() + max(durations) > start + seconds:
            break

    samples = {"setup_s": setup}
    if iters:
        for key in ("wall_s", "peak_rss_mb", "cpu_s"):
            samples[key] = [r[key] for r in iters]
        if trace:
            for key in iters[0]["layers"]:
                samples[key] = [r["layers"][key] for r in iters]
    spec = _spec()
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    summary = {m["name"]: dict(summarize(samples[m["name"]]), unit=m["unit"])
               for m in wanted if m["name"] in samples}
    record = {
        "workload": workload,
        "why": next(w["why"] for w in _spec()["workloads"] if w["name"] == workload),
        "seed": seed,
        "seed_used": workloads.SEEDED[workload],
        "size": size,
        "operations": [{"name": op.name, "kind": op.kind, "args": list(op.args),
                        "seeded": op.seeded}
                       for op in workloads.operations(workload, size)],
        "traced": bool(trace),
        "seconds": seconds,
        "git_revision": _git_revision(),
        "env": iters[0]["env"] if iters else None,
        "iterations": len(durations),
        "attempted": attempted,
        "failed": failed,
        "fail_frac": failed / attempted,
        "problems": problems,
        "samples": samples,
        "op_wall_s": [r["op_wall_s"] for r in iters],
        "summary": summary,
    }
    with open(os.path.join(ROOT, ".bench_out",
                           f"{workload}-seed{seed}-trace{trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    return record


def print_summary(rec) -> None:
    for name, s in rec["summary"].items():
        print(f"{rec['workload']} {name} median {s['median']:.6g} {s['unit']} "
              f"(q1 {s['q1']:.6g}, q3 {s['q3']:.6g}, n={s['n']})")
    print(f"{rec['workload']} fail_frac {rec['fail_frac']:.6g} "
          f"({rec['failed']}/{rec['attempted']} operations)")
    for p in rec["problems"][:20]:
        print(f"{rec['workload']} FAILED {p}", file=sys.stderr)


def result_line(rec) -> dict:
    return {
        "correct": rec["failed"] == 0,
        "attempted": rec["attempted"],
        "failed": rec["failed"],
        "metrics": {k: {"value": s["median"], "unit": s["unit"]}
                    for k, s in rec["summary"].items()},
    }


def _terminate(signum, frame):
    raise SystemExit(128 + signum)  # unwinds through _spawn, which kills the worker


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    names = [w["name"] for w in _spec()["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*names, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "small"), default="full",
                    help="small: reduced inputs, for the self-test")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "ipdsaw", "__init__.py")):
        print(f"perfbench: no ipdsaw package under {ROOT}/src", file=sys.stderr)
        return 2
    chosen = names if args.workload == "all" else [args.workload]
    results = {}
    for w in chosen:
        rec = run_workload(w, args.seed, args.seconds, args.trace, args.size)
        print_summary(rec)
        results[w] = result_line(rec)
    if args.workload == "all":
        print(json.dumps(results))
    else:
        print(json.dumps(results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
