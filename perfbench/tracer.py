"""Span tracing of ringecho's layers, from outside the package.

Every public function defined in a layer module is wrapped, and the wrapper
is bound in place of the original in every ``ringecho`` namespace that holds
it (``validation``, ``cli`` and ``__init__`` bind names at import, and a
module calls its own functions through its globals). Methods, including the
per-sample ``RingState.step``, are not wrapped. Spans (function, start, end,
parent, failed, job) are kept in memory; a layer's self time is its spans'
time minus the time of their child spans.

Layer counters are computed from call arguments, before the span starts, so
their cost counts as tracing overhead and not as layer time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

LAYERS = (
    "core_response", "lossy_cavity", "echo_kernels", "commutators", "highq",
    "two_photon", "fdtd_oracle", "validation", "cli",
)
PER_LAYER_UNITS = {
    **{f"{layer}.{m}": u for layer in LAYERS
       for m, u in (("calls", "count"), ("self_s", "s"), ("errors", "count"))},
    "echo_kernels.pair_ops": "count",
    "echo_kernels.ns_per_pair_op": "ns",
    "echo_kernels.apply_term_samples": "count",
    "two_photon.cells_out": "count",
    "two_photon.window_terms_useful_frac": "1",
    "cli.bytes_written": "B",
    "commutators.map_cells": "count",
    "core_response.points": "count",
    "lossy_cavity.points": "count",
    "fdtd_oracle.steps": "count",
    "fdtd_oracle.ns_per_step": "ns",
    "highq.samples": "count",
    "validation.checks": "count",
    "validation.checks_failed": "count",
    "trace.overhead_s": "s",
    "trace.wrapper_s": "s",
}
# ratios and the counter they divide by; a ratio is reported as 0 when the
# workload makes no call that adds to its counter
RATIO_BASES = {
    "echo_kernels.ns_per_pair_op": "echo_kernels.pair_ops",
    "two_photon.window_terms_useful_frac": "two_photon.window_terms_looped",
    "fdtd_oracle.ns_per_step": "fdtd_oracle.steps",
}


def _points(layer):
    def count(c, a, orig):
        c[f"{layer}.points"] += np.size(a["omega"])
    return count


def _pair_ops(c, a, orig):
    c["echo_kernels.pair_ops"] += len(a["f"].offsets) * len(a["g"].offsets)


def _apply_terms(c, a, orig):
    c["echo_kernels.apply_term_samples"] += len(a["f"].offsets) * len(a["s"])


def _kernel_offsets(a, orig) -> tuple[np.ndarray, int]:
    phi = a["phi"]
    k = orig["echo_kernels.kernel_ba"](a["j"], a["T"], a["eps"])
    return np.array(k.offsets), max(1, round(a["T"] / phi.dt))


def _transform_cells(c, a, orig):
    ks, stride = _kernel_offsets(a, orig)
    ext = int(ks.max()) * stride
    n1, n2 = a["phi"].values.shape
    c["two_photon.cells_out"] += (n1 + ext) * (n2 + ext)


def _window_terms(c, a, orig):
    """Kernel terms whose shifted input overlaps the output window, per axis."""
    phi, n_out = a["phi"], a["n_out"]
    ks, stride = _kernel_offsets(a, orig)
    n1, n2 = phi.values.shape
    useful = 0
    for start, n_in in ((phi.t1_start, n1), (phi.t2_start, n2)):
        src_lo = round((a["t_out_start"] - start) / phi.dt) - ks * stride
        lo = np.maximum(0, -src_lo)
        hi = np.minimum(n_out, n_in - src_lo)
        useful += int(np.count_nonzero(lo < hi))
    c["two_photon.window_terms_useful"] += useful
    c["two_photon.window_terms_looped"] += 2 * len(ks)
    c["two_photon.cells_out"] += n_out * n_out


def _closed_form_cells(c, a, orig):
    c["two_photon.cells_out"] += a["n"] * a["n"]


def _map_cells(c, a, orig):
    c["commutators.map_cells"] += a["nt"] * a["nz"]


def _steps(c, a, orig):
    c["fdtd_oracle.steps"] += len(a["signal"])


def _samples(c, a, orig):
    c["highq.samples"] += len(a["a"])


def _checks(c, result):
    c["validation.checks"] += len(result)
    c["validation.checks_failed"] += sum(1 for r in result if not r.passed)


# counters computed from a call's bound arguments
BEFORE = {
    "core_response.g_ca": _points("core_response"),
    "core_response.g_ba": _points("core_response"),
    "lossy_cavity.g_ca_lossy": _points("lossy_cavity"),
    "lossy_cavity.g_ba_lossy": _points("lossy_cavity"),
    "lossy_cavity.noise_power": _points("lossy_cavity"),
    "lossy_cavity.noise_power_quadrature": _points("lossy_cavity"),
    "echo_kernels.convolve": _pair_ops,
    "echo_kernels.correlate": _pair_ops,
    "echo_kernels.apply_train": _apply_terms,
    "two_photon.transform_output": _transform_cells,
    "two_photon.transform_output_on_window": _window_terms,
    "two_photon.gaussian_output_closed_form": _closed_form_cells,
    "commutators.commutator_figure": _map_cells,
    "fdtd_oracle.run": _steps,
    "highq.quasimode_evolve": _samples,
}
# counters computed from a call's result
AFTER = {"validation.run_suite": _checks}


class Tracer:
    """Wraps the layers' public functions; ``install``/``uninstall`` swap
    the wrappers in and out of every ringecho namespace."""

    def __init__(self) -> None:
        self.names: list[tuple[str, str]] = []      # function id -> (layer, name)
        self.orig: dict[str, object] = {}
        self.spans: list = []
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.job = -1
        self._stack: list[int] = []
        self._wrapper_s = [0.0]  # time inside wrappers but outside the wrapped calls
        self._patches: list[tuple[object, str, object, object]] = []
        modules = {layer: importlib.import_module(f"ringecho.{layer}") for layer in LAYERS}
        namespaces = [m for n, m in sys.modules.items() if n.split(".")[0] == "ringecho"]
        for layer, mod in modules.items():
            for name, fn in sorted(vars(mod).items()):
                if name.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                qual = f"{layer}.{name}"
                self.orig[qual] = fn
                wrapped = self._wrap(len(self.names), qual, fn)
                self.names.append((layer, name))
                for ns in namespaces:
                    for attr, val in vars(ns).items():
                        if val is fn:
                            self._patches.append((ns, attr, fn, wrapped))

    def install(self) -> None:
        for ns, attr, _, wrapped in self._patches:
            setattr(ns, attr, wrapped)

    def uninstall(self) -> None:
        for ns, attr, fn, _ in self._patches:
            setattr(ns, attr, fn)

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()
        self._wrapper_s[0] = 0.0

    def _wrap(self, fid: int, qual: str, fn):
        spans, stack, counts, orig = self.spans, self._stack, self.counts, self.orig
        before, after = BEFORE.get(qual), AFTER.get(qual)
        sig = inspect.signature(fn) if before else None

        wrapper_s = self._wrapper_s

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            entered = perf_counter()
            if before is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                before(counts, bound.arguments, orig)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            failed = True
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                failed = False
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (fid, start, end, parent, failed, self.job)
                wrapper_s[0] += start - entered + perf_counter() - end
            if after is not None:
                after(counts, result)
            return result

        return traced

    def layer_metrics(self) -> tuple[dict[str, float], list[str]]:
        """Per-layer calls, self time and errors, plus the layer counters,
        for the spans recorded since the last ``reset``; and the ratios that
        have no base in these spans."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = 0
            out[f"{layer}.self_s"] = 0.0
            out[f"{layer}.errors"] = 0
        fn_self: defaultdict[str, float] = defaultdict(float)
        for i, (fid, start, end, _, failed, _) in enumerate(self.spans):
            layer, name = self.names[fid]
            own = end - start - child[i]
            out[f"{layer}.calls"] += 1
            out[f"{layer}.self_s"] += own
            out[f"{layer}.errors"] += int(failed)
            fn_self[f"{layer}.{name}"] += own
        c = self.counts

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        pair_s = fn_self["echo_kernels.convolve"] + fn_self["echo_kernels.correlate"]
        out.update({name: c[name] for name in (
            "echo_kernels.pair_ops", "echo_kernels.apply_term_samples", "two_photon.cells_out",
            "cli.bytes_written", "commutators.map_cells", "core_response.points",
            "lossy_cavity.points", "fdtd_oracle.steps", "highq.samples",
            "validation.checks", "validation.checks_failed")})
        out["echo_kernels.ns_per_pair_op"] = ratio(1e9 * pair_s, c["echo_kernels.pair_ops"])
        out["two_photon.window_terms_useful_frac"] = ratio(
            c["two_photon.window_terms_useful"], c["two_photon.window_terms_looped"])
        out["fdtd_oracle.ns_per_step"] = ratio(1e9 * fn_self["fdtd_oracle.run"], c["fdtd_oracle.steps"])
        out["trace.wrapper_s"] = self._wrapper_s[0]
        return out, [name for name, base in RATIO_BASES.items() if not c[base]]

    def called(self) -> set[str]:
        return {"{}.{}".format(*self.names[s[0]]) for s in self.spans}

    def public(self) -> list[str]:
        return ["{}.{}".format(*n) for n in self.names]

    def span_records(self, t0: float) -> list[dict]:
        return [
            {"fn": "{}.{}".format(*self.names[fid]), "start": start - t0, "end": end - t0,
             "parent": parent, "failed": failed, "job": job}
            for fid, start, end, parent, failed, job in self.spans
        ]
