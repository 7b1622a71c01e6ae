"""Span tracer for the benchmark's traced run.

The tracer wraps public ``cocyclelab`` functions where the consumer modules
look them up (``from cocyclelab.measure import mass_apply`` binds the name in
the importing module, so every module attribute that is the original
function object is replaced).  Each call records a span (name, start, end,
parent); spans stay in memory until ``take_pass`` turns them into per-layer
metrics.  A layer's self time is its span minus the time its child spans
cover.  Nothing is patched until ``install`` and ``uninstall`` restores every
original, so untraced passes run the program exactly as shipped.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from collections import defaultdict

import numpy as np
import scipy.sparse as sp

MODULES = ("measure", "driving", "transfer", "cocycle", "curves", "mixing",
           "exactness", "asymptotic", "skew", "scenario", "cli")


def kernel_nbytes(kernel) -> int:
    """Storage a kernel apply reads: the dense array, or CSR data + indices
    + indptr (computed from array sizes, not measured traffic)."""
    if sp.issparse(kernel):
        k = kernel.tocsr()
        return int(k.data.nbytes + k.indices.nbytes + k.indptr.nbytes)
    return int(np.asarray(kernel).nbytes)


def matmul_flops(a, b) -> int:
    """Multiply-adds times two for ``a @ b`` (computed from shapes and
    nonzero counts)."""
    if sp.issparse(a) and sp.issparse(b):
        a, b = a.tocsr(), b.tocsr()
        return 2 * int(np.diff(b.indptr)[a.indices].sum())
    if sp.issparse(a):
        return 2 * int(a.nnz) * int(np.prod(b.shape[1:], dtype=np.int64))
    if sp.issparse(b):
        return 2 * int(b.nnz) * int(np.prod(a.shape[:-1], dtype=np.int64))
    return 2 * int(np.prod(a.shape, dtype=np.int64)) * int(b.shape[-1])


def self_times(spans) -> dict:
    """Per span name: calls and summed self time.

    ``spans`` is a list of (name, start, end, parent_index) with parent -1 for
    roots.  Self time is the span's duration minus the length of the union of
    its children's intervals clipped to the span.
    """
    children = defaultdict(list)
    for _, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    calls = defaultdict(int)
    selfs = defaultdict(float)
    for i, (name, start, end, _) in enumerate(spans):
        covered = 0.0
        run_start = run_end = None
        for cs, ce in sorted(children.get(i, ())):
            cs, ce = max(cs, start), min(ce, end)
            if ce <= cs:
                continue
            if run_end is None or cs > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = cs, ce
            else:
                run_end = max(run_end, ce)
        if run_end is not None:
            covered += run_end - run_start
        calls[name] += 1
        selfs[name] += (end - start) - covered
    return {name: (calls[name], selfs[name]) for name in calls}


# -- counter hooks: (counters, args, kwargs, result) -> None ------------------

def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _kernel_seen(counters, kernel):
    counters["measure.kernel_bytes_max"] = max(
        counters["measure.kernel_bytes_max"], kernel_nbytes(kernel))


def _on_mass_apply(counters, args, kwargs, result):
    kernel = _arg(args, kwargs, 1, "kernel")
    counters["measure.mass_apply.bytes_computed"] += kernel_nbytes(kernel)
    _kernel_seen(counters, kernel)


def _on_kernel_matmul(counters, args, kwargs, result):
    a, b = args[0], args[1]
    counters["measure.kernel_matmul.dense"] += 0 if sp.issparse(result) else 1
    counters["measure.kernel_matmul.flops_computed"] += matmul_flops(a, b)
    _kernel_seen(counters, result)


def _on_kernel_built(counters, args, kwargs, result):
    counters["transfer.kernel_bytes"] += kernel_nbytes(result.kernel)
    _kernel_seen(counters, result.kernel)


def _on_orbit_kernels(counters, args, kwargs, result):
    counters["cocycle.orbit_kernels.steps"] += _arg(args, kwargs, 2, "n")


def _on_pullback(counters, args, kwargs, result):
    counters["cocycle.pullback.depth_sum"] += result.steps
    counters["cocycle.pullback.converged"] += int(result.converged)


def _on_advance(counters, args, kwargs, result):
    counters["driving.advance.steps"] += abs(_arg(args, kwargs, 2, "n"))


def _on_fit(counters, args, kwargs, result):
    counters["curves.rate_fits"] += len(result)


def _on_estimate_mixing(counters, args, kwargs, result):
    omegas = list(_arg(args, kwargs, 4, "omega_samples"))
    counters["mixing.curves"] += int(np.prod(result.values.shape[:-1]))
    counters["mixing.omega_sampled"] += len(omegas)
    counters["mixing.omega_distinct"] += len(set(omegas))


def _mc_samples(args, kwargs, pos):
    if len(args) > pos:
        return args[pos]
    return kwargs.get("mc_samples", 0)


def _on_skew_curve(counters, args, kwargs, result):
    if result.method == "monte-carlo":
        counters["skew.mc_samples"] += _mc_samples(args, kwargs, 6)


def _on_theta_or_nu(counters, args, kwargs, result):
    if not result.exact:  # the Monte-Carlo route
        counters["skew.mc_samples"] += _mc_samples(args, kwargs, 2)


def _on_cli_main(counters, args, kwargs, result):
    argv = list(_arg(args, kwargs, 0, "argv") or ())
    if "--out" in argv:
        path = argv[argv.index("--out") + 1]
        if os.path.exists(path):
            counters["cli.csv_bytes"] += os.path.getsize(path)


# (module, function, span name, counter hook)
TARGETS = (
    ("measure", "mass_apply", "measure.mass_apply", _on_mass_apply),
    ("measure", "kernel_matmul", "measure.kernel_matmul", _on_kernel_matmul),
    ("transfer", "pf_ulam", "transfer.pf_ulam", _on_kernel_built),
    ("transfer", "pf_exact", "transfer.pf_exact", _on_kernel_built),
    ("cocycle", "orbit_kernels", "cocycle.orbit_kernels", _on_orbit_kernels),
    ("cocycle", "compose", "cocycle.compose", None),
    ("cocycle", "invariant_density_pullback", "cocycle.pullback", _on_pullback),
    ("driving", "advance", "driving.advance", _on_advance),
    ("driving", "sample_env", "driving.sample_env", None),
    ("curves", "fit_geometric_rates", "curves.fit_geometric_rates", _on_fit),
    ("mixing", "estimate_mixing", "mixing.estimate_mixing", _on_estimate_mixing),
    ("exactness", "exactness_norms", "exactness.norms", None),
    ("exactness", "lin_dual_flatness", "exactness.dual", None),
    ("exactness", "tail_partition", "exactness.tail", None),
    ("asymptotic", "detect_periodicity", "asymptotic.detect_periodicity", None),
    ("asymptotic", "quasi_constrictive_probe", "asymptotic.qc_probe", None),
    ("asymptotic", "restricted_power_cocycle", "asymptotic.restricted_power",
     None),
    ("skew", "skew_mixing_curve", "skew.mixing_curve", _on_skew_curve),
    ("skew", "theta_invariance", "skew.theta_invariance", _on_theta_or_nu),
    ("skew", "nu_measure", "skew.nu_measure", _on_theta_or_nu),
    ("scenario", "load_scenario", "scenario.load", None),
    ("cli", "main", "cli.main", _on_cli_main),
)


class Tracer:
    """Records spans and counters for calls into ``cocyclelab`` modules."""

    def __init__(self):
        self.spans: list = []
        self.counters = defaultdict(float)
        self._stack: list[int] = []
        self._streams: dict = {}
        self._patches: list = []

    def _wrap(self, span_name, fn, hook):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans, stack = tracer.spans, tracer._stack
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (span_name, start, end, parent)
            if hook is not None:
                hook(tracer.counters, args, kwargs, result)
            return result

        return traced

    def _record_streams(self, fn):
        tracer = self

        @functools.wraps(fn)
        def recording(*args, **kwargs):
            points = fn(*args, **kwargs)
            for pt in points:
                if pt.stream is not None:
                    tracer._streams[id(pt.stream)] = pt.stream
            return points

        return recording

    def install(self):
        modules = [importlib.import_module(f"cocyclelab.{m}") for m in MODULES]
        modules.append(importlib.import_module("cocyclelab"))
        for mod_name, fn_name, span_name, hook in TARGETS:
            original = getattr(importlib.import_module(f"cocyclelab.{mod_name}"),
                               fn_name)
            wrapped = self._wrap(span_name, original, hook)
            if fn_name == "sample_env":
                wrapped = self._record_streams(wrapped)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapped)
                        self._patches.append((mod, attr, original))

    def uninstall(self):
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def take_pass(self) -> dict:
        """Per-layer metrics of the spans and counters recorded since the
        last call, then clear them."""
        metrics = dict(self.counters)
        for name, (calls, self_s) in self_times(self.spans).items():
            metrics[f"{name}.calls"] = calls
            metrics[f"{name}.self_s"] = self_s
        metrics["trace.self_s_total"] = sum(
            v for k, v in metrics.items() if k.endswith(".self_s"))
        metrics["driving.symbols_resolved"] = sum(
            len(s.cache) for s in self._streams.values())

        def ratio(num, den):
            d = metrics.get(den, 0)
            return metrics.get(num, 0) / d if d else 0.0

        metrics["measure.kernel_matmul.dense_frac"] = ratio(
            "measure.kernel_matmul.dense", "measure.kernel_matmul.calls")
        metrics["cocycle.pullback.converged_ratio"] = ratio(
            "cocycle.pullback.converged", "cocycle.pullback.calls")
        metrics["mixing.distinct_omega_ratio"] = ratio(
            "mixing.omega_distinct", "mixing.omega_sampled")
        self.spans = []
        self.counters = defaultdict(float)
        self._streams = {}
        return metrics
