"""Span tracer for the benchmark's traced runs.

The tracer measures each layer from outside: it replaces the layers' public
functions with span-recording wrappers in every ``enclosure_atlas`` module
namespace that binds them. ``from .linalg import kernel_basis`` copies the
name into ``decomposition``, so patching only the defining module would miss
the stage calls made inside ``decompose``.

A span is ``[name, start, end, parent, op]``. Spans stay in memory and are
written out when the run ends. A span's self time is its duration minus the
part of that interval its child spans cover.

This module imports only the standard library, so that ``launcher.py`` can
time ``import enclosure_atlas.cli`` before anything else loads numpy.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import threading
import time
from collections import Counter, defaultdict

PACKAGE = "enclosure_atlas"

# Wrapped function -> metric group. A group's self time is the summed self
# time of its spans.
SPAN_GROUPS = {
    "cli.main": "cli.main",
    "io.load_model_file": "io.load_model_file",
    "io.serialize_report": "io.serialize",
    "io.tolerances_to_dict": "io.serialize",
    "io.decomposition_report_to_dict": "io.serialize",
    "io.verification_record_to_dict": "io.serialize",
    "io.model_diagnostics_to_dict": "io.serialize",
    "io.identifiability_report_to_dict": "io.serialize",
    "io.qnd_uniqueness_to_dict": "io.serialize",
    "io.cross_check_to_dict": "io.serialize",
    "io.oqrw_record_to_dict": "io.serialize",
    "semigroup.build_generator": "semigroup.build",
    "semigroup.adjoint_generator": "semigroup.build",
    "semigroup.channel_superoperator": "semigroup.build",
    "semigroup.validate": "semigroup.validate",
    "decomposition.decompose": "decomposition.decompose",
    "decomposition.recurrent_projector": "decomposition.recurrent_projector",
    "decomposition.cutoff_generator": "decomposition.cutoff_generator",
    "decomposition.algebra_structure": "decomposition.algebra_structure",
    "decomposition.extremal_state": "decomposition.enclosures",
    "decomposition.is_enclosure": "decomposition.enclosures",
    "decomposition.verify_decomposition": "decomposition.verify_decomposition",
    "linalg.kernel_basis": "linalg.kernel_basis",
    "linalg.support_projector": "linalg.support_projector",
    "linalg.hermitian_basis": "linalg.hermitian_basis",
    "linalg.matrix_exponential": "linalg.matrix_exponential",
    "oqrw.verify_oqrw_theorem": "oqrw.verify_oqrw_theorem",
    "oqrw.closed_classes": "oqrw.classical",
    "oqrw.invariant_measures": "oqrw.classical",
    "identifiability.discrete_identifiability": "identifiability.discrete_identifiability",
    "identifiability.continuous_identifiability": "identifiability.continuous_identifiability",
    "identifiability.uniqueness_cross_check": "identifiability.uniqueness_cross_check",
    "identifiability.qnd_uniqueness": "identifiability.qnd_uniqueness",
}

# Functions wrapped to count calls only. cluster_sorted_values runs inside
# retry loops; a span there would move its microseconds out of the caller.
COUNTED = ("linalg.cluster_sorted_values",)

# Calls per op reported as their own metric.
CALL_COUNTS = ("linalg.kernel_basis", "identifiability.discrete_identifiability")


def _probe_bytes_in(counts, args, kwargs, result):
    counts["io.bytes_in"] += os.path.getsize(args[0] if args else kwargs["path"])


def _probe_bytes_out(counts, args, kwargs, result):
    counts["io.bytes_out"] += len(result.encode("utf-8"))


def _probe_superop(counts, args, kwargs, result):
    counts["semigroup.superop_bytes_computed"] += 16 * result.dim**4


def _probe_kernel(counts, args, kwargs, result):
    rows, cols = args[0].shape
    counts["linalg.kernel_basis.flops_computed"] += rows * cols * min(rows, cols)
    counts["linalg.kernel_basis.max_dim"] = max(
        counts["linalg.kernel_basis.max_dim"], rows, cols
    )


def _probe_decompose(counts, args, kwargs, result):
    counts[f"decomposition.recurrent.{result.recurrent_method}_ops"] += 1


def _probe_algebra(counts, args, kwargs, result):
    # One clustering isolates the center, one more splits each degenerate
    # block; every other cluster_sorted_values call was a retry.
    counts["decomposition.cluster_useful"] += 1 + sum(
        1 for block in result.blocks if block.multiplicity >= 2
    )


def _probe_cluster(counts, args, kwargs, result):
    counts["decomposition.cluster_calls"] += 1


PROBES = {
    "io.load_model_file": _probe_bytes_in,
    "io.serialize_report": _probe_bytes_out,
    "semigroup.build_generator": _probe_superop,
    "semigroup.adjoint_generator": _probe_superop,
    "semigroup.channel_superoperator": _probe_superop,
    "linalg.kernel_basis": _probe_kernel,
    "decomposition.decompose": _probe_decompose,
    "decomposition.algebra_structure": _probe_algebra,
    "linalg.cluster_sorted_values": _probe_cluster,
}


class Tracer:
    """Records spans and counters for the ops of one run."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict = defaultdict(Counter)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._op = None
        self._root = None
        self._patched: list[tuple] = []

    def begin_op(self, op_id) -> None:
        self._op = op_id
        self._root = None

    def end_op(self) -> None:
        self._op = None
        self._root = None

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _span_wrapper(self, name, fn, probe):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            # A call with an empty stack on a worker thread (analyze --batch)
            # belongs to the op's root span.
            parent = stack[-1] if stack else self._root
            span = [name, 0.0, 0.0, parent, self._op]
            with self._lock:
                sid = len(self.spans)
                self.spans.append(span)
            if not stack and threading.current_thread() is threading.main_thread():
                self._root = sid
            stack.append(sid)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if probe is not None:
                with self._lock:
                    probe(self.counts[self._op], args, kwargs, result)
            return result

        return wrapper

    def _count_wrapper(self, fn, probe):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            with self._lock:
                probe(self.counts[self._op], args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        """Patch every binding of the traced functions in loaded modules."""
        replacements = {}
        for qualified in list(SPAN_GROUPS) + list(COUNTED):
            module_name, func_name = qualified.split(".")
            module = importlib.import_module(f"{PACKAGE}.{module_name}")
            original = getattr(module, func_name)
            probe = PROBES.get(qualified)
            if qualified in COUNTED:
                wrapper = self._count_wrapper(original, probe)
            else:
                wrapper = self._span_wrapper(qualified, original, probe)
            replacements[id(original)] = (original, wrapper)
        for module_name, module in list(sys.modules.items()):
            if module is None or not (
                module_name == PACKAGE or module_name.startswith(PACKAGE + ".")
            ):
                continue
            for attr, value in list(vars(module).items()):
                entry = replacements.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, attr, entry[1])
                    self._patched.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[list]) -> list[float]:
    """Self time of each span: duration minus what its children cover."""
    children = defaultdict(list)
    for span in spans:
        if span[3] is not None:
            children[span[3]].append((span[1], span[2]))
    return [
        (span[2] - span[1]) - _covered(children.get(sid, []), span[1], span[2])
        for sid, span in enumerate(spans)
    ]


def layer_values_by_op(spans: list[list], counts: dict) -> dict:
    """Per-layer values of each op, keyed by op id, from spans and counters.

    ``self_sum_s`` is the op's summed self time, which equals the wall time
    of its root span when every span nests inside it.
    """
    per_op: dict = defaultdict(Counter)
    for span, own in zip(spans, self_times(spans)):
        values = per_op[span[4]]
        values[SPAN_GROUPS[span[0]] + ".self_s"] += own
        values["self_sum_s"] += own
        if span[0] in CALL_COUNTS:
            values[span[0] + ".calls"] += 1
    for op, op_counts in counts.items():
        per_op[op].update(op_counts)
    return per_op
