"""Span tracer for the benchmark's traced run.

The tracer wraps, from outside the package, the module-level names each
caller looks up at call time: the kernel entry points as seen by
``fpmimo.kernels``, ``fpmimo.transceiver`` and ``fpmimo.harness``; the
transceivers as seen by the harness; the harness entry points as seen by the
benchmark and the CLI; every public ``fpmimo.bounds`` function; and
``fpmimo.cli.main``.  It uses one private hook, ``fpmimo.kernels._round``,
which is how every kernel and ``PrecisionPolicy._rnd_work`` reach
``fpmimo.formats``.

A span is ``[layer, name, parent index, start, end, info]``; ``info`` is None
when the call raised.  Spans are kept
in memory, turned into per-layer metrics by :meth:`Tracer.metrics` and
written out by :meth:`Tracer.write` when the run ends.  A span's self time is
its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import os
import time
from collections import defaultdict

import numpy as np

import fpmimo.bounds as bounds
import fpmimo.cli as cli
import fpmimo.harness as harness
import fpmimo.kernels as kernels
import fpmimo.transceiver as transceiver
from fpmimo.formats import RangeMode, RoundingMode

KERNELS = (
    "inner_product_fp",
    "blocked_inner_mixed",
    "matmul_fp",
    "matvec_fp",
    "cholesky_fp",
    "trisolve_fp",
    "round_input",
)
TRANSCEIVERS = ("mrc_combine", "mrt_precode", "zf_detect_ne", "zf_precode_ne")

# Counts that must repeat exactly from one traced pass to the next.
EXACT_COUNTS = ("formats.round.calls", "formats.round.elems") + tuple(
    f"kernels.{k}.calls" for k in KERNELS
)

def _round_info(args, kwargs, out):
    x, fmt, mode, range_mode = args[:4]
    passthrough = (
        fmt.is_carrier
        and mode is RoundingMode.NEAREST_EVEN
        and range_mode is RangeMode.UNBOUNDED
    )
    return np.size(x), passthrough


def _bytes_info(args, kwargs, out):
    return sum(a.nbytes for a in (*args, *kwargs.values()) if isinstance(a, np.ndarray))


def _bound_args(fn):
    sig = inspect.signature(fn)

    def bind(args, kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments

    return bind


def _policy_info(fn):
    bind = _bound_args(fn)
    return lambda args, kwargs, out: bind(args, kwargs)["policy"].working.is_carrier


def _samples_info(fn):
    """Monte-Carlo condition-number samples a bounds call draws."""
    bind = _bound_args(fn)
    if fn.__name__ == "upsilon":
        def info(args, kwargs, out):
            a = bind(args, kwargs)
            return a["samples"] if a["method"] == "monte-carlo" and a["K"] > 1 else 0
    elif fn.__name__ == "expected_cd_sq":
        def info(args, kwargs, out):
            return bind(args, kwargs)["samples"]
    else:
        def info(args, kwargs, out):
            return 0
    return info


def _sweep_info(args, kwargs, out):
    """(grid points, trials, Cholesky breakdown lanes) of a run_sweep call."""
    rows = out.rows
    trials = sum(r["trials"] for r in rows)
    broken = sum(round(r["breakdown_rate"] * r["trials"]) for r in rows)
    return len(rows), trials, broken


def _verify_info(fn):
    bind = _bound_args(fn)

    def info(args, kwargs, out):
        n = bind(args, kwargs)["config"].trials
        return len(out), n * len(out), sum(n - rep["trials"] for rep in out)

    return info


def _study_info(args, kwargs, out):
    return 1, out["trials"], 0


def _csv_info(fn):
    bind = _bound_args(fn)
    return lambda args, kwargs, out: os.path.getsize(bind(args, kwargs)["path"])


def _exit_info(args, kwargs, out):
    return out


class Tracer:
    """Records spans at the layer boundaries of fpmimo while installed.

    Create it before the workload's first pass.  The span store is allocated
    up front because a store that grew during the traced passes would sit on
    top of the heap, keep the allocator from trimming it, and so make traced
    passes take fewer page faults than untraced ones.
    """

    def __init__(self, capacity: int = 1 << 20):
        self.spans = [None] * capacity
        self.count = 0
        self._stack = []
        self._patched = []

    def _wrap(self, layer, name, fn, info):
        tracer, spans, stack, clock = self, self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [layer, name, stack[-1] if stack else -1, clock(), 0.0, None]
            i = tracer.count
            if i < len(spans):
                spans[i] = span
            else:
                spans.append(span)
            tracer.count = i + 1
            stack.append(i)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[4] = clock()
                stack.pop()
            span[5] = info(args, kwargs, out)
            return out

        return traced

    def _patch(self, module, attr, layer, name, info):
        original = getattr(module, attr)
        self._patched.append((module, attr, original))
        setattr(module, attr, self._wrap(layer, name, original, info))

    def install(self) -> None:
        self._patch(kernels, "_round", "formats", "round", _round_info)
        for name in KERNELS:
            for module in (kernels, transceiver, harness):
                if name in vars(module):
                    self._patch(module, name, "kernels", name, _bytes_info)
        for name in TRANSCEIVERS:
            fn = getattr(harness, name)
            self._patch(harness, name, "transceiver", name, _policy_info(fn))
        harness_info = {
            "run_sweep": _sweep_info,
            "verify_bounds": _verify_info(harness.verify_bounds),
            "inner_product_violation_study": _study_info,
            "emit_csv": _csv_info(harness.emit_csv),
        }
        for module in (harness, cli):
            for name, info in harness_info.items():
                if name in vars(module):
                    self._patch(module, name, "harness", name, info)
        for name, fn in list(vars(bounds).items()):
            if (inspect.isfunction(fn) and fn.__module__ == bounds.__name__
                    and not name.startswith("_")):
                self._patch(bounds, name, "bounds", name, _samples_info(fn))
        self._patch(cli, "main", "cli", "main", _exit_info)

    def uninstall(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def metrics(self, first: int, last: int) -> dict:
        """Per-layer metrics of the spans recorded in ``[first, last)``.

        The range must hold whole top-level spans, such as one benchmark pass.
        """
        spans = self.spans[first:last]
        covered = defaultdict(float)
        for s in spans:
            if s[2] >= 0:
                covered[s[2]] += s[4] - s[3]

        def self_s(i, s):
            return s[4] - s[3] - covered[first + i]

        def parent_layer(s):
            return self.spans[s[2]][0] if s[2] >= 0 else None

        by_layer = defaultdict(list)
        for i, s in enumerate(spans):
            by_layer[s[0]].append((i, s))
        m = {}

        fmt = [s for _, s in by_layer["formats"]]
        calls = len(fmt)
        elems = sum(s[5][0] for s in fmt if s[5])
        busy = sum(s[4] - s[3] for s in fmt)
        m["formats.round.calls"] = calls
        m["formats.round.elems"] = elems
        m["formats.round.busy_s"] = busy
        m["formats.round.elems_per_s"] = elems / busy if busy else 0.0
        m["formats.round.elems_per_call"] = elems / calls if calls else 0.0
        m["formats.round.passthrough_ratio"] = (
            sum(1 for s in fmt if s[5] and s[5][1]) / calls if calls else 0.0
        )

        for k in KERNELS:
            ks = [(i, s) for i, s in by_layer["kernels"] if s[1] == k]
            m[f"kernels.{k}.calls"] = len(ks)
            m[f"kernels.{k}.self_s"] = sum(self_s(i, s) for i, s in ks)
            m[f"kernels.{k}.total_s"] = sum(s[4] - s[3] for _, s in ks)
            m[f"kernels.{k}.bytes_in_computed"] = sum(s[5] or 0 for _, s in ks)

        tx = by_layer["transceiver"]
        m["transceiver.calls"] = len(tx)
        m["transceiver.self_s"] = sum(self_s(i, s) for i, s in tx)
        m["transceiver.lowp_s"] = sum(s[4] - s[3] for _, s in tx if not s[5])
        m["transceiver.ref_s"] = sum(s[4] - s[3] for _, s in tx if s[5])

        hs = by_layer["harness"]
        runs = [s[5] for _, s in hs if s[1] != "emit_csv" and s[5]]
        trials = sum(r[1] for r in runs)
        m["harness.self_s"] = sum(self_s(i, s) for i, s in hs)
        m["harness.points"] = sum(r[0] for r in runs)
        m["harness.trials"] = trials
        m["harness.breakdown_ratio"] = sum(r[2] for r in runs) / trials if trials else 0.0
        m["harness.emit_csv_s"] = sum(s[4] - s[3] for _, s in hs if s[1] == "emit_csv")
        m["harness.csv_bytes"] = sum(s[5] or 0 for _, s in hs if s[1] == "emit_csv")

        outer = [s for _, s in by_layer["bounds"] if parent_layer(s) != "bounds"]
        sampling = [s for s in outer if s[5]]
        sampling_s = sum(s[4] - s[3] for s in sampling)
        m["bounds.calls"] = len(outer)
        m["bounds.busy_s"] = sum(s[4] - s[3] for s in outer)
        for name in ("upsilon", "expected_cd_sq"):
            m[f"bounds.{name}.total_s"] = sum(s[4] - s[3] for s in outer if s[1] == name)
        m["bounds.kappa_samples_per_s"] = (
            sum(s[5] for s in sampling) / sampling_s if sampling_s else 0.0
        )

        cs = by_layer["cli"]
        m["cli.commands"] = len(cs)
        m["cli.self_s"] = sum(self_s(i, s) for i, s in cs)
        m["cli.failed"] = sum(1 for _, s in cs if s[5] != 0)
        return m

    def write(self, path) -> None:
        """Write every recorded span as tab-separated text, times from the first span."""
        t0 = self.spans[0][3] if self.count else 0.0
        with open(path, "w") as fh:
            fh.write("index\tparent\tlayer\tname\tstart_s\tend_s\n")
            for i, s in enumerate(self.spans[:self.count]):
                fh.write(f"{i}\t{s[2]}\t{s[0]}\t{s[1]}\t{s[3] - t0:.9f}\t{s[4] - t0:.9f}\n")
