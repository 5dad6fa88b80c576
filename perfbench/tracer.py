"""Spans around the public entry points of ipdsaw, installed from outside.

``install`` replaces every public function named in a module's ``__all__``
(plus ``cli.main``, ``StretchConfig`` construction, ``StretchConfig.
prefix_heights`` and ``StepLaw`` construction) by a wrapper that records a
span, and rebinds that name in every ipdsaw module that imported it, so
``from .wetting import logsumexp_c`` inside ``exactz`` is traced as well.
No file of the package changes and nothing is written until the run ends.

A span is ``[name, start, end, parent index]``; the run id is the same for
every span of one worker process and is attached when spans are written.
Self time is a span's duration minus the time its direct children cover
(spans nest strictly: the package is single-threaded at ``--workers 1``).
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import statistics
import time

MODULES = ("cli", "exactz", "polymer", "wetting", "largedev", "steps")


class Tracer:
    """In-memory span store plus the few values read from return values."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list = []
        self._stack: list = []
        self.tables: list = []   # (table MB, height cutoff, GFLOP) per dp_Z
        self.kernels: list = []  # (height cutoff, GFLOP) per return_kernel
        self.draws = 0
        self.tilts: list = []    # (solver, args, kwargs, TiltVector) per solve
        self.originals: dict = {}

    def wrap(self, name: str, fn, on_return=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if on_return is not None:
                on_return(args, kwargs, out)
            return out

        return traced

    # -- return hooks: plain attribute reads, no copies of large results --

    def _on_dp_z(self, args, kwargs, out):
        table = out[1]
        lw = table.log_weights
        nbytes = sum(a.nbytes for a in lw) if isinstance(lw, tuple) else lw.nbytes
        n = table.height_cutoff + 1
        # one (n x n) @ (n x n) product per remaining length R = 1..L, per stack
        gflop = (2 if isinstance(lw, tuple) else 1) * table.L * 2.0 * n ** 3 / 1e9
        self.tables.append((nbytes / 1e6, table.height_cutoff, gflop))

    def _on_return_kernel(self, args, kwargs, out):
        H = out.height_cutoff
        # t = 2..t_max: one H x H mat-vec and three length-H dots
        gflop = (out.t_max - 1) * (2.0 * H * H + 6.0 * H) / 1e9
        self.kernels.append((H, gflop))

    def _on_backward_sample(self, args, kwargs, out):
        self.draws += len(out)

    # -- installation ------------------------------------------------------

    def install(self, pkg) -> None:
        """Wrap the public callables of ``pkg``'s modules and rebind them."""
        mods = {m: getattr(pkg, m) for m in MODULES}
        hooks = {
            "exactz.dp_Z": self._on_dp_z,
            "exactz.backward_sample": self._on_backward_sample,
            "wetting.return_kernel": self._on_return_kernel,
            "largedev.tilt_inverse": lambda a, k, out: self.tilts.append(
                ("tilt_inverse", a, k, out)),
            "largedev.finite_tilt": lambda a, k, out: self.tilts.append(
                ("finite_tilt", a, k, out)),
        }
        wrapped = {}  # id(original) -> (original, wrapper)
        publics = [(m, a) for m in MODULES for a in getattr(mods[m], "__all__", ())]
        publics.append(("cli", "main"))
        for m, attr in publics:
            obj = getattr(mods[m], attr)
            if inspect.isclass(obj) or not callable(obj) or id(obj) in wrapped:
                continue
            name = f"{m}.{attr}"
            self.originals[name] = obj
            wrapped[id(obj)] = (obj, self.wrap(name, obj, hooks.get(name)))
        for mod in (pkg, *mods.values()):
            for attr, val in list(vars(mod).items()):
                hit = wrapped.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(mod, attr, hit[1])
        # construction of the two value classes, patched on the class itself
        cfg, law = mods["polymer"].StretchConfig, mods["steps"].StepLaw
        cfg.__init__ = self.wrap("polymer.StretchConfig", cfg.__init__)
        cfg.prefix_heights = self.wrap("polymer.prefix_heights", cfg.prefix_heights)
        law.__init__ = self.wrap("steps.StepLaw", law.__init__)

    # -- output ------------------------------------------------------------

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, t0, t1, parent) in enumerate(self.spans):
                fh.write(json.dumps([self.run_id, i, parent, name, t0, t1]) + "\n")

    def tilt_residuals(self) -> list:
        """|grad - (q, p)| of every recorded tilt, by the unwrapped gradients."""
        grad = self.originals["largedev.grad_l_lambda"]
        fgrad = self.originals["largedev.grad_finite_l_lambda"]
        out = []
        for solver, args, kwargs, h in self.tilts:
            fn = self.originals["largedev." + solver]
            bound = inspect.signature(fn).bind(*args, **kwargs).arguments
            gq, gp = (fgrad(int(bound["n"]), h) if solver == "finite_tilt"
                      else grad(h))
            out.append(math.hypot(gq - bound["q"], gp - bound["p"]))
        return out

    def layer_metrics(self) -> dict:
        """Per-layer numbers from the spans and return hooks of one run."""
        cover = [0.0] * len(self.spans)
        for name, t0, t1, parent in self.spans:
            if parent >= 0:
                cover[parent] += t1 - t0
        self_s: dict = {}
        calls: dict = {}
        durations: dict = {}
        for (name, t0, t1, _), c in zip(self.spans, cover):
            self_s[name] = self_s.get(name, 0.0) + (t1 - t0) - c
            calls[name] = calls.get(name, 0) + 1
            durations.setdefault(name, []).append(t1 - t0)

        out = {}
        for m in MODULES:
            keys = [k for k in self_s if k.split(".", 1)[0] == m]
            out[f"{m}.self_s"] = sum(self_s[k] for k in keys)
            out[f"{m}.calls"] = sum(calls[k] for k in keys)
        for name in ("exactz.dp_Z", "exactz.backward_sample",
                     "exactz.feature_histogram", "exactz.brute_force_Z",
                     "polymer.StretchConfig", "polymer.prefix_heights",
                     "wetting.return_kernel", "wetting.zwet_series",
                     "wetting.zwet_direct", "wetting.cwet_constant",
                     "wetting.critical_curves", "largedev.collapse_profile",
                     "largedev.phi_prime", "largedev.tilt_inverse",
                     "largedev.l_lambda", "largedev.grad_l_lambda",
                     "largedev.finite_tilt"):
            out[f"{name}.self_s"] = self_s.get(name, 0.0)
            out[f"{name}.calls"] = calls.get(name, 0)
        prof = durations.get("largedev.collapse_profile", [])
        out["largedev.collapse_profile.p50_s"] = statistics.median(prof) if prof else 0.0
        out["largedev.collapse_profile.max_s"] = max(prof, default=0.0)
        out["exactz.dp_Z.table_mb"] = max((t[0] for t in self.tables), default=0.0)
        out["exactz.dp_Z.height_cutoff"] = max((t[1] for t in self.tables), default=0)
        out["exactz.dp_Z.gflop_computed"] = sum(t[2] for t in self.tables)
        out["wetting.return_kernel.height_cutoff"] = max(
            (k[0] for k in self.kernels), default=0)
        out["wetting.return_kernel.gflop_computed"] = sum(k[1] for k in self.kernels)
        out["exactz.backward_sample.draws"] = self.draws
        out["exactz.backward_sample.us_per_draw"] = (
            1e6 * out["exactz.backward_sample.self_s"] / self.draws if self.draws else 0.0)
        out["largedev.tilt_max_residual"] = max(self.tilt_residuals(), default=0.0)
        return out
