"""One iteration of one workload, in a fresh interpreter.

    python3 perfbench/worker.py --t-spawn T --setup-only
    python3 perfbench/worker.py --t-spawn T --workload W --seed N --trace 0|1
                                --size full|small --out-dir DIR

``T`` is the parent's ``time.monotonic()`` just before the spawn (the
clock is system-wide on Linux), so set-up time runs from the fresh
interpreter to ``import ipdsaw`` and ``ipdsaw.cli`` complete.  The worker
then runs the workload's operations, timing from the first call into
ipdsaw to the last output written, reads its peak RSS, and only then
checks the outputs.  With ``--trace 1`` it first wraps the package's public
entry points (see ``tracer.py``) and adds the per-layer numbers.  The
result goes to ``DIR/result.json``; artifacts go to ``DIR/<op>.out``.
"""

import sys
import time

import ipdsaw
import ipdsaw.cli

SETUP_DONE = time.monotonic()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402

import tracer  # noqa: E402
import workloads  # noqa: E402


def environment() -> dict:
    """Machine and library versions, as this worker process sees them."""
    cfg = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{cfg.get('name')} {cfg.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_thread_env": {k: os.environ.get(k) for k in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "ipdsaw": ipdsaw.__version__,
        "ipdsaw_path": os.path.dirname(ipdsaw.__file__),
    }


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _blas_threads():
    """OpenBLAS's own thread count, read from the library numpy loaded."""
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "lib*openblas*.so*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def run_ops(ops, seed, out_dir) -> tuple:
    """Run each operation: (error string or None, wall seconds) per operation."""
    errors, walls = [], []
    for op in ops:
        t0 = time.perf_counter()
        path = os.path.join(out_dir, op.name + ".out")
        try:
            if op.kind == "cli":
                argv = [*op.args, *(("--seed", str(seed)) if op.seeded else ()),
                        "--out", path]
                rc = ipdsaw.cli.main(argv)
            else:
                mod, fn = op.args[0].split(".")
                value = getattr(getattr(ipdsaw, mod), fn)(*op.args[1:])
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(repr(value) + "\n")
                rc = 0
            errors.append(None if rc == 0 else f"exit code {rc}")
        except (Exception, SystemExit):  # a failed operation is counted, not fatal
            errors.append(traceback.format_exc())
        walls.append(time.perf_counter() - t0)
    return errors, walls


def check_ops(ops, errors, seed, out_dir, refs) -> list:
    outputs, results = {}, []
    for op, err in zip(ops, errors):
        problems = [err] if err else []
        if not problems:
            with open(os.path.join(out_dir, op.name + ".out"), encoding="utf-8") as fh:
                outputs[op.name] = fh.read()
            ctx = {"ref": refs.get(op.name), "seed": seed, "outputs": outputs,
                   "ipdsaw": ipdsaw}
            try:
                problems = op.check(op, outputs[op.name], ctx)
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                problems = [f"unreadable output: {exc!r}"]
        results.append({"name": op.name, "ok": not problems, "problems": problems})
    return results


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--t-spawn", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "small"), default="full")
    ap.add_argument("--out-dir")
    ap.add_argument("--refs")
    args = ap.parse_args()
    setup_s = SETUP_DONE - args.t_spawn
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    ops = workloads.operations(args.workload, args.size)
    with open(args.refs, encoding="utf-8") as fh:
        refs = json.load(fh)[args.size][args.workload]
    tr = None
    if args.trace:
        tr = tracer.Tracer(f"{args.workload}-{args.seed}-{os.getpid()}")
        tr.install(ipdsaw)

    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    errors, op_walls = run_ops(ops, args.seed, args.out_dir)
    wall_s = time.perf_counter() - t0
    ru1 = resource.getrusage(resource.RUSAGE_SELF)

    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": (ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime),
        "peak_rss_mb": ru1.ru_maxrss / 1024.0,
        "op_wall_s": {op.name: w for op, w in zip(ops, op_walls)},
        "env": environment(),
    }
    if tr is not None:
        layers = tr.layer_metrics()
        layers["traced_wall_s"] = wall_s
        layers["cpu_s"] = result["cpu_s"]
        cli_outs = [os.path.join(args.out_dir, op.name + ".out")
                    for op in ops if op.kind == "cli"]
        cli_outs = [p for p in cli_outs if os.path.exists(p)]
        layers["cli.out_bytes"] = sum(os.path.getsize(p) for p in cli_outs)
        layers["cli.out_lines"] = sum(_count_lines(p) for p in cli_outs)
        result["layers"] = layers
        result["spans"] = len(tr.spans)
        tr.write_spans(os.path.join(args.out_dir, "spans.jsonl"))
    result["ops"] = check_ops(ops, errors, args.seed, args.out_dir, refs)
    with open(os.path.join(args.out_dir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    return 0


def _count_lines(path) -> int:
    with open(path, "rb") as fh:
        return sum(1 for _ in fh)


if __name__ == "__main__":
    sys.exit(main())
