"""Batch front end: reproducible experiments over the numeric modules.

Seven subcommands wire the library into machine-readable artifacts:

* ``phase``        critical curves and collapse-profile grids (CSV);
* ``exact``        transfer-DP partition values with an optional
                   brute-force cross-check column (CSV);
* ``asymptotics``  (log Z - beta L) / sqrt(L) against the collapse
                   constant across a list of lengths, at the smallest
                   certified height cutoff, with that cutoff and the log
                   of its truncation bound relative to the reduced Z (CSV);
* ``sample``       exact polymer-measure draws with observables
                   (JSON lines), by default from the smallest certified
                   height cutoff;
* ``verify``       the identity/oracle check suite, one pass/fail line
                   per check, non-zero exit on any failure;
* ``wetting``      pinned-walk free energy and related constants (CSV);
* ``tilt``         the Legendre layer at one (q, p) (CSV).

Every artifact opens with a provenance header (tool version, command,
seed, parameter echo) and is byte-reproducible: the same configuration
and seed always produce the same bytes.  The grid command accepts
``--workers`` for process fan-out; results are written by the parent in
input order.  It refuses a grid with a non-finite end or step, or with
more than ``_PHASE_MAX_POINTS`` points, before building it.  The
environment variable ``IPDSAW_OUTDIR`` redirects relative output paths;
``--out -`` writes to standard output.

Exit codes: 0 success, 1 verification failure, 2 invalid input.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__, exactz, largedev, polymer, steps, wetting
from .polymer import Variant

OUTDIR_ENV = "IPDSAW_OUTDIR"

_VARIANT_FLAGS = {
    "free": Variant.FREE,
    "constrained": Variant.CONSTRAINED_END,
    "single-bead": Variant.SINGLE_BEAD,
}


@dataclass(frozen=True)
class ExperimentConfig:
    """One fully-specified run: everything needed to reproduce its output."""

    command: str
    parameters: dict
    seed: int
    output_path: str
    format: str  # "csv" or "json-lines"


# -- output plumbing --------------------------------------------------------

def _resolve_path(path: str) -> str:
    outdir = os.environ.get(OUTDIR_ENV)
    if outdir and not os.path.isabs(path):
        return os.path.join(outdir, path)
    return path


def _fmt(value) -> str:
    """Shortest round-trip decimal for a float; empty string for None."""
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _provenance_lines(config: ExperimentConfig) -> list:
    params = " ".join(
        f"{k}={config.parameters[k]}" for k in sorted(config.parameters)
    )
    return [
        f"# ipdsaw {__version__}",
        f"# command: {config.command}",
        f"# format: {config.format}",
        f"# seed: {config.seed}",
        f"# params: {params}",
    ]


def _emit_csv(config: ExperimentConfig, header: list, rows) -> None:
    lines = _provenance_lines(config)
    lines.append(",".join(header))
    lines.extend(",".join(row) for row in rows)
    _write(config, ["\n".join(lines) + "\n"])


def _emit_jsonl(config: ExperimentConfig, chunks, **facts) -> None:
    """Provenance record, with ``facts`` about the run, then ``chunks``,
    pieces of already serialized record lines, each line ending in a
    newline, written one after the other."""
    prov = {
        "record": "provenance",
        "tool": "ipdsaw",
        "version": __version__,
        "command": config.command,
        "seed": config.seed,
        "parameters": config.parameters,
        **facts,
    }
    _write(config, itertools.chain([json.dumps(prov, sort_keys=True) + "\n"],
                                   chunks))


def _write(config: ExperimentConfig, pieces) -> None:
    """Write the strings of ``pieces`` one after the other."""
    if config.output_path == "-":
        for piece in pieces:
            sys.stdout.write(piece)
        return
    path = _resolve_path(config.output_path)
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for piece in pieces:
            fh.write(piece)


def _parse_grid(spec: str) -> tuple:
    """``lo:hi:step`` inclusive of both ends (up to rounding fuzz), as
    (lo, step, point count), so that a grid can be refused before it is
    built; the count is inf where the span overflows a double."""
    parts = spec.split(":")
    if len(parts) != 3:
        raise ValueError(f"grid {spec!r} is not of the form lo:hi:step")
    lo, hi, step = (float(p) for p in parts)
    if not all(map(math.isfinite, (lo, hi, step))):
        raise ValueError(f"grid {spec!r} needs a finite lo, hi and step")
    if step <= 0 or hi < lo:
        raise ValueError(f"grid {spec!r} needs hi >= lo and step > 0")
    span = (hi - lo) / step
    return lo, step, math.floor(span + 1e-9) + 1 if math.isfinite(span) else math.inf


# -- phase ------------------------------------------------------------------

# beta points times delta points of one phase run; at about 126 bytes a
# row, a run at the limit writes about 13 MB of CSV
_PHASE_MAX_POINTS = 10 ** 5
_PHASE_HEADER = ["beta", "delta", "a_tilde", "Phi", "Psi_or_empty",
                 "h_wet", "delta_tilde", "delta_c", "delta_circ"]


def _phase_row(point) -> list:
    beta, delta = point
    curves = wetting.critical_curves(beta)
    h = wetting.wetting_free_energy(beta, delta)
    a_tilde = phi_max = psi = None
    if delta < curves.delta_circ:
        prof = largedev.collapse_profile(beta, delta)
        a_tilde, phi_max, psi = prof.a_tilde, prof.phi_max, prof.psi
    return [_fmt(beta), _fmt(delta), _fmt(a_tilde), _fmt(phi_max),
            _fmt(psi), _fmt(h), _fmt(curves.delta_tilde),
            _fmt(curves.delta_c), _fmt(curves.delta_circ)]


def _run_phase(config: ExperimentConfig) -> int:
    p = config.parameters
    grids = [_parse_grid(p["beta_grid"]) if p.get("beta_grid")
             else (p["beta"], 0.0, 1),
             _parse_grid(p["delta_grid"]) if p.get("delta_grid")
             else (p.get("delta", 0.0), 0.0, 1)]
    total = grids[0][2] * grids[1][2]
    if total > _PHASE_MAX_POINTS:
        raise ValueError(f"phase grid of {total:.6g} (beta x delta) points is "
                         f"over the limit of {_PHASE_MAX_POINTS}")
    betas, deltas = ([lo + k * step for k in range(n)] for lo, step, n in grids)
    points = [(b, d) for b in betas for d in deltas]
    workers = int(p.get("workers", 1))
    if workers > 1:
        # imported here: the process pool costs every other run its import
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_phase_row, points, chunksize=4))
    else:
        rows = [_phase_row(pt) for pt in points]
    _emit_csv(config, _PHASE_HEADER, rows)
    return 0


# -- exact ------------------------------------------------------------------

def _run_exact(config: ExperimentConfig) -> int:
    p = config.parameters
    L, beta, delta = p["length"], p["beta"], p["delta"]
    cutoff = p.get("cutoff")
    want_brute = bool(p.get("brute"))
    if want_brute and L > 18:
        raise ValueError("--brute supported only for --length <= 18")
    variants = ([_VARIANT_FLAGS[p["variant"]]] if p.get("variant", "all") != "all"
                else list(_VARIANT_FLAGS.values()))
    header = ["variant", "length", "beta", "delta", "cutoff", "log_z",
              "truncation_bound", "log_z_brute"]
    rows = [_exact_row(L, beta, delta, var, cutoff, want_brute)
            for var in variants]
    _emit_csv(config, header, rows)
    return 0


def _exact_row(L, beta, delta, var, cutoff, want_brute) -> list:
    """One CSV row, from the DP on a ring: no table is kept."""
    z = exactz.dp_log_Z(L, beta, delta, var, height_cutoff=cutoff)
    brute = exactz.brute_force_Z(L, beta, delta, var) if want_brute else None
    return [var.value, str(L), _fmt(beta), _fmt(delta), str(z.height_cutoff),
            _fmt(z.log_z), _fmt(z.truncation_bound), _fmt(brute)]


# -- asymptotics ------------------------------------------------------------

def _run_asymptotics(config: ExperimentConfig) -> int:
    p = config.parameters
    beta, delta = p["beta"], p["delta"]
    lengths = [int(tok) for tok in p["lengths"].split(",")]
    prof = largedev.collapse_profile(beta, delta)
    header = ["length", "beta", "delta", "log_z", "scaled_gap", "Phi",
              "cutoff", "log_rel_bound"]
    rows = []
    for L in lengths:
        z = exactz.certified_dp_log_Z(L, beta, delta, Variant.SINGLE_BEAD)
        scaled = (z.log_z - beta * L) / math.sqrt(L)
        bound = z.log_truncation_bound  # -inf: the cutoff is exact
        rel = bound if bound == -math.inf else bound - (z.log_z - beta * L)
        rows.append([str(L), _fmt(beta), _fmt(delta), _fmt(z.log_z),
                     _fmt(scaled), _fmt(prof.phi_max),
                     str(z.height_cutoff), _fmt(rel)])
    _emit_csv(config, header, rows)
    return 0


# -- sample -----------------------------------------------------------------

_SAMPLE_CHUNK = 4096  # draws formatted and written at a time by ``sample``


def _sample_template(n: int) -> str:
    """%-template of json.dumps(record, sort_keys=True) for one draw's
    record with n stretches: area, contacts, n, max height, then the
    stretches."""
    return ('{"area": %d, "contacts": %d, "horizontal_extension": %d, '
            '"max_height": %d, "stretches": [' + ", ".join(["%d"] * n) + "]}")


def _run_sample(config: ExperimentConfig) -> int:
    p = config.parameters
    L, beta, delta = p["length"], p["beta"], p["delta"]
    var = _VARIANT_FLAGS[p.get("variant", "single-bead")]
    count = int(p.get("count", 100))
    cutoff = p.get("cutoff")
    _, table = (exactz.certified_dp_Z(L, beta, delta, var) if cutoff is None
                else exactz.dp_Z(L, beta, delta, var, height_cutoff=cutoff))
    rng = np.random.default_rng(config.seed)
    draws = exactz.backward_sample(table, count=count, rng=rng)
    templates = {n: _sample_template(n) for n in set(draws.sizes.tolist())}

    def chunks():
        # per chunk of draws, its observables, each record's ints (area,
        # contacts, n, max height, then its n stretches) in one flat list,
        # one template per record size, and one %
        for a in range(0, count, _SAMPLE_CHUNK):
            part = slice(a, a + _SAMPLE_CHUNK)
            obs = polymer.batch_observables(draws.stretches[part], draws.sizes[part])
            sizes = obs["horizontal_extension"]
            rows = np.column_stack((obs["signed_area"], obs["contacts"], sizes,
                                    obs["max_height"], draws.stretches[part]))
            values = rows[np.arange(rows.shape[1]) < 4 + sizes[:, None]].tolist()
            lines = "\n".join([templates[n] for n in sizes.tolist()])
            yield lines % tuple(values) + "\n"

    _emit_jsonl(config, chunks(), cutoff=table.height_cutoff,
                truncation_bound=table.truncation_bound)
    return 0


# -- verify -----------------------------------------------------------------

def _check_dp_vs_brute() -> tuple:
    worst = 0.0
    for beta, delta in ((2.0, 0.5), (1.0, 2.0)):
        for L in range(2, 11):
            for var in Variant:
                a = exactz.dp_log_Z(L, beta, delta, var).log_z
                b = exactz.brute_force_Z(L, beta, delta, var)
                if math.isinf(a) and math.isinf(b):
                    continue
                worst = max(worst, abs(a - b) / max(abs(b), 1.0))
    return worst < 1e-10, f"max rel err {worst:.2e} (tol 1e-10)"


def _check_walk_identity(variant: Variant, walks, lengths: range) -> tuple:
    beta, delta = 2.0, 0.5
    worst = 0.0
    for L in lengths:
        lhs = walks(L, beta, delta)
        log_z = exactz.dp_log_Z(L, beta, delta, variant).log_z
        rhs = math.exp(log_z - beta * L) / steps.StepLaw(beta).c_beta
        if rhs > 0:
            worst = max(worst, abs(lhs - rhs) / rhs)
    return worst < 1e-9, (f"max rel err {worst:.2e} over lengths "
                          f"{lengths[0]}..{lengths[-1]}")


def _check_curve_ordering() -> tuple:
    ok = True
    for beta in (1.3, 2.0, 4.0):
        c = wetting.critical_curves(beta)
        ok = ok and c.delta_tilde < c.delta_c < c.delta_circ
    return ok, "delta_tilde < delta_c < delta_circ at beta in {1.3, 2, 4}"


def _check_collapse_consistency() -> tuple:
    law = steps.StepLaw(2.0)
    c = wetting.critical_curves(2.0)
    r1 = abs(math.log(law.gamma_beta) + wetting.wetting_free_energy(2.0, c.delta_c))
    r2 = abs(2.0 * math.log(law.gamma_beta)
             + wetting.wetting_free_energy(2.0, c.delta_circ))
    return max(r1, r2) < 1e-7, f"curve residuals {r1:.1e}, {r2:.1e}"


def _check_legendre_duality() -> tuple:
    worst = 0.0
    for q, p in ((0.5, 0.0), (1.0, 0.3), (0.25, -0.2)):
        h = largedev.tilt_inverse(q, p, 2.0)
        gq, gp = largedev.grad_l_lambda(h)
        worst = max(worst, abs(gq - q), abs(gp - p))
    return worst < 1e-10, f"max inversion residual {worst:.2e}"


def _check_area_dp_reduction() -> tuple:
    a0 = exactz.area_wetting_dp(200, 0.0, 2.0, 1.0)
    zw = wetting.zwet(2.0, 1.0, 200)
    diff = abs(a0 - zw)
    return diff < 1e-10, f"area DP at zero tilt vs pinned walk: diff {diff:.2e}"


def _check_airy_zero() -> tuple:
    a1 = largedev.airy_first_zero()
    diff = abs(a1 - (-2.338107410459767))
    return diff < 1e-9, f"first Airy zero residual {diff:.2e}"


def _check_sampler_determinism() -> tuple:
    _, table = exactz.dp_Z(10, 2.0, 1.2, Variant.SINGLE_BEAD)
    a, b = (exactz.backward_sample(table, count=50, rng=np.random.default_rng(11))
            for _ in range(2))
    same = np.array_equal(a.stretches, b.stretches) and np.array_equal(a.sizes, b.sizes)
    return same, "same seed reproduces 50 draws exactly"


def _check_truncation_bound() -> tuple:
    # H = 10 is below the exact cutoff 19, so the table loses weight
    beta, delta, L, H = 2.0, 0.5, 40, 10
    full = exactz.dp_log_Z(L, beta, delta, Variant.FREE, height_cutoff=L)
    cut = exactz.dp_log_Z(L, beta, delta, Variant.FREE, height_cutoff=H)
    lost = math.exp(full.log_z - beta * L) - math.exp(cut.log_z - beta * L)
    ok = 0.0 <= lost <= cut.truncation_bound
    return ok, f"lost mass {lost:.2e} <= bound {cut.truncation_bound:.2e}"


_VERIFY_CHECKS = [
    ("dp-vs-brute", _check_dp_vs_brute),
    ("single-bead-identity", functools.partial(
        _check_walk_identity, Variant.SINGLE_BEAD, exactz.z_circ_from_walks,
        range(4, 15))),
    ("constrained-identity", functools.partial(
        _check_walk_identity, Variant.CONSTRAINED_END,
        exactz.z_constrained_from_walks, range(2, 13))),
    ("curve-ordering", _check_curve_ordering),
    ("collapse-consistency", _check_collapse_consistency),
    ("legendre-duality", _check_legendre_duality),
    ("area-dp-reduction", _check_area_dp_reduction),
    ("airy-zero", _check_airy_zero),
    ("sampler-determinism", _check_sampler_determinism),
    ("truncation-bound", _check_truncation_bound),
]


def _run_verify(config: ExperimentConfig) -> int:
    lines = _provenance_lines(config)
    failures = 0
    for name, check in _VERIFY_CHECKS:
        ok, detail = check()
        failures += 0 if ok else 1
        lines.append(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    lines.append(f"# {len(_VERIFY_CHECKS) - failures}/{len(_VERIFY_CHECKS)} "
                 f"checks passed")
    _write(config, ["\n".join(lines) + "\n"])
    return 1 if failures else 0


# -- wetting ----------------------------------------------------------------

def _run_wetting(config: ExperimentConfig) -> int:
    p = config.parameters
    beta, delta = p["beta"], p["delta"]
    dt = wetting.delta_tilde(beta)
    h = wetting.wetting_free_energy(beta, delta)
    N = p.get("length")
    log_zwet = wetting.zwet(beta, delta, N) if N is not None else None
    cwet = wetting.cwet_constant(beta, delta) if delta > dt else None
    header = ["beta", "delta", "delta_tilde", "h_wet", "log_zwet", "cwet"]
    rows = [[_fmt(beta), _fmt(delta), _fmt(dt), _fmt(h),
             _fmt(log_zwet), _fmt(cwet)]]
    _emit_csv(config, header, rows)
    return 0


# -- tilt -------------------------------------------------------------------

def _run_tilt(config: ExperimentConfig) -> int:
    p = config.parameters
    beta, q, pp = p["beta"], p["q"], p["p"]
    n = p.get("n")
    if n is not None:
        h = largedev.finite_tilt(int(n), q, pp, beta)
        value = largedev.finite_l_lambda(int(n), h)
    else:
        h = largedev.tilt_inverse(q, pp, beta)
        value = largedev.l_lambda(h)
    rate = q * h.h0 + pp * h.h1 - value
    header = ["beta", "q", "p", "n", "h0", "h1", "l_lambda", "rate"]
    rows = [[_fmt(beta), _fmt(q), _fmt(pp),
             "" if n is None else _fmt(int(n)),
             _fmt(h.h0), _fmt(h.h1), _fmt(value), _fmt(rate)]]
    _emit_csv(config, header, rows)
    return 0


# -- argument parsing -------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ipdsaw",
        description="Exact numerics for a collapsed partially directed "
                    "polymer above a hard wall.",
    )
    parser.add_argument("--version", action="version",
                        version=f"ipdsaw {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, seed=True):
        sp.add_argument("--out", default="-",
                        help="output path, or - for stdout (default); "
                             f"relative paths honor ${OUTDIR_ENV}")
        if seed:
            sp.add_argument("--seed", type=int, default=0,
                            help="64-bit seed for stochastic output")

    sp = sub.add_parser("phase", help="critical curves and collapse profiles")
    sp.add_argument("--beta-grid", help="inverse temperatures, lo:hi:step")
    sp.add_argument("--beta", type=float, help="single inverse temperature")
    sp.add_argument("--delta-grid", help="pinning rewards, lo:hi:step")
    sp.add_argument("--delta", type=float, default=0.0,
                    help="single pinning reward (default 0)")
    sp.add_argument("--workers", type=int, default=1,
                    help="process fan-out for the parameter grid")
    common(sp, seed=False)

    sp = sub.add_parser("exact", help="transfer-DP partition values")
    sp.add_argument("--length", type=int, required=True)
    sp.add_argument("--beta", type=float, required=True)
    sp.add_argument("--delta", type=float, required=True)
    sp.add_argument("--variant", default="all",
                    choices=[*_VARIANT_FLAGS, "all"])
    sp.add_argument("--cutoff", type=int,
                    help="height cutoff; omit for the exact table")
    sp.add_argument("--brute", action="store_true",
                    help="add a brute-force enumeration column (length <= 18)")
    common(sp, seed=False)

    sp = sub.add_parser("asymptotics",
                        help="scaled log-partition gap against the "
                             "collapse constant")
    sp.add_argument("--beta", type=float, required=True)
    sp.add_argument("--delta", type=float, required=True)
    sp.add_argument("--lengths", default="100,200,400",
                    help="comma-separated lengths (default 100,200,400)")
    common(sp, seed=False)

    sp = sub.add_parser("sample", help="exact draws from the polymer measure")
    sp.add_argument("--length", type=int, required=True)
    sp.add_argument("--beta", type=float, required=True)
    sp.add_argument("--delta", type=float, required=True)
    sp.add_argument("--variant", default="single-bead",
                    choices=list(_VARIANT_FLAGS))
    sp.add_argument("--count", type=int, default=100)
    sp.add_argument("--cutoff", type=int,
                    help="height cutoff; omit for the smallest certified one")
    common(sp)

    sp = sub.add_parser("verify", help="identity and oracle checks")
    common(sp, seed=False)

    sp = sub.add_parser("wetting", help="pinned-walk free energy and constants")
    sp.add_argument("--beta", type=float, required=True)
    sp.add_argument("--delta", type=float, required=True)
    sp.add_argument("--length", type=int,
                    help="also report log Z_wet at this length")
    common(sp, seed=False)

    sp = sub.add_parser("tilt", help="Legendre layer at one (q, p)")
    sp.add_argument("--beta", type=float, required=True)
    sp.add_argument("--q", type=float, required=True)
    sp.add_argument("--p", type=float, default=0.0)
    sp.add_argument("--n", type=int,
                    help="finite-size tilt instead of the limit")
    common(sp, seed=False)

    return parser


_RUNNERS = {
    "phase": _run_phase,
    "exact": _run_exact,
    "asymptotics": _run_asymptotics,
    "sample": _run_sample,
    "verify": _run_verify,
    "wetting": _run_wetting,
    "tilt": _run_tilt,
}

_FORMATS = {"sample": "json-lines"}


def config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    params = {
        k: v for k, v in vars(args).items()
        if k not in ("command", "out", "seed") and v is not None
    }
    return ExperimentConfig(
        command=args.command,
        parameters=params,
        seed=getattr(args, "seed", 0),
        output_path=args.out,
        format=_FORMATS.get(args.command, "csv"),
    )


def run(config: ExperimentConfig) -> int:
    """Execute one experiment; returns the process exit status."""
    try:
        return _RUNNERS[config.command](config)
    except (ValueError, KeyError) as exc:
        print(f"ipdsaw: invalid input: {exc}", file=sys.stderr)
        return 2


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "phase" and not (args.beta_grid or args.beta is not None):
        parser.error("phase requires --beta-grid or --beta")
    return run(config_from_args(args))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
