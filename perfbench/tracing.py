"""Spans around the calls into each layer of spin1chain, recorded from outside.

Each traced function is replaced by a wrapper at every module binding it
is imported under (``eig_hermitian`` is bound in ``linalg``, ``dynamics``,
``hamiltonians``, ``tomography`` and the package itself), so calls between
modules are caught.  A wrapper records one span per call: name, start,
end, parent span and op id.  Spans stay in memory and are written out at
the end of the run; the per-layer metrics are derived from them.
"""

import contextlib
import functools
import importlib
import json
import os
import sys
import time

# (module, function) pairs traced; the metric prefix is "<module>.<function>"
TRACED = (
    ("cli", "main"),
    ("kernels", "phase_series"),
    ("reporting", "write_csv"),
    ("reporting", "write_json"),
    ("linalg", "eig_hermitian"),
    ("dynamics", "evolution_cache"),
    ("dynamics", "amplitude_scan"),
    ("dynamics", "mirror_check"),
    ("dynamics", "qutrit_transfer_fidelity"),
    ("hamiltonians", "chain_hamiltonian"),
    ("hamiltonians", "engineered_sigma_block"),
    ("hamiltonians", "pst_preset"),
    ("parity", "chain_mirror_permutation"),
    ("parity", "parity_spectrum"),
    ("tomography", "synthesize_record"),
    ("tomography", "matrix_pencil"),
    ("tomography", "jacobi_reconstruct"),
    ("tomography", "write_record_csv"),
    ("tomography", "read_record_csv"),
)

OP_SPAN = "op"


def _counted(rows, span):
    """Pass the CSV rows through, counting them into the span."""
    span["rows"] = 0
    for row in rows:
        span["rows"] += 1
        yield row


def _sizes(name, span, args):
    """Work counts of one call, computed from its arguments or, for the
    writers, from the file written."""
    if name == "kernels.phase_series":
        energies, times = len(args[0]), len(args[2])
        span["terms"] = energies * times
        # float64 energies and times, complex128 coefficients and output
        span["bytes"] = 24 * energies + 24 * times
    elif name == "linalg.eig_hermitian":
        span["dim"] = len(args[0])
    elif name == "tomography.matrix_pencil":
        k = len(args[0])
        span["cells"] = (k - k // 2) * (k // 2 + 1)
    elif name in ("reporting.write_csv", "reporting.write_json"):
        path = args[0]
        span["bytes"] = os.path.getsize(path) if os.path.exists(path) else 0


class Tracer:
    """Wraps the traced functions and collects spans while enabled."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._op = None
        self._enabled = False

    def install(self):
        for module_name, func_name in TRACED:
            module = importlib.import_module(f"spin1chain.{module_name}")
            original = getattr(module, func_name)
            wrapper = self._wrap(f"{module_name}.{func_name}", original)
            for bound_module in list(sys.modules.values()):
                if not getattr(bound_module, "__name__", "").startswith("spin1chain"):
                    continue
                for attr, value in list(vars(bound_module).items()):
                    if value is original:
                        setattr(bound_module, attr, wrapper)

    def _wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer._enabled:
                return fn(*args, **kwargs)
            span = tracer._open(name)
            if name == "reporting.write_csv" and len(args) == 3:
                args = (args[0], args[1], _counted(args[2], span))
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            _sizes(name, span, args)
            return result

        return traced

    def _open(self, name):
        span = {"name": name, "op": self._op,
                "parent": self._stack[-1]["id"] if self._stack else None,
                "id": len(self.spans), "start": time.perf_counter()}
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span):
        span["end"] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def op(self, op_id, label):
        """Root span of one op; spans opened inside it carry its id."""
        self._op = op_id
        self._enabled = True
        span = self._open(OP_SPAN)
        span["label"] = label
        try:
            yield span
        finally:
            self._close(span)
            self._enabled = False
            self._op = None

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, sort_keys=True) + "\n")


def self_times(spans):
    """Self time per span id: duration minus the time its child spans cover."""
    child_time = {}
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] = (child_time.get(span["parent"], 0.0)
                                          + span["end"] - span["start"])
    return {span["id"]: span["end"] - span["start"] - child_time.get(span["id"], 0.0)
            for span in spans}


def layer_metrics(spans):
    """Per-layer metrics named ``<module>.<function>.<quantity>``.

    Every traced function gets ``calls`` and ``self_s``; the quantities the
    benchmark defines for some of them are computed from span sizes.  Also
    returns the traced wall time (sum of op spans) and the part of it that
    no traced function covers (op self time: benchmark glue and untraced
    program code between calls).
    """
    own = self_times(spans)
    by_id = {span["id"]: span for span in spans}
    metrics = {}
    for module_name, func_name in TRACED:
        name = f"{module_name}.{func_name}"
        metrics[f"{name}.calls"] = 0
        metrics[f"{name}.self_s"] = 0.0
    terms = kernel_bytes = csv_rows = written = dim3 = max_dim = cells = 0
    cache_misses = set()
    wall = unattributed = 0.0
    for span in spans:
        name = span["name"]
        if name == OP_SPAN:
            wall += span["end"] - span["start"]
            unattributed += own[span["id"]]
            continue
        metrics[f"{name}.calls"] += 1
        metrics[f"{name}.self_s"] += own[span["id"]]
        # a call that raised has no sizes
        if name == "kernels.phase_series":
            terms += span.get("terms", 0)
            kernel_bytes += span.get("bytes", 0)
        elif name.startswith("reporting.write_"):
            written += span.get("bytes", 0)
            csv_rows += span.get("rows", 0)
        elif name == "linalg.eig_hermitian":
            dim3 += span.get("dim", 0) ** 3
            max_dim = max(max_dim, span.get("dim", 0))
            parent = by_id.get(span["parent"])
            if parent is not None and parent["name"] == "dynamics.evolution_cache":
                cache_misses.add(parent["id"])
        elif name == "tomography.matrix_pencil":
            cells = max(cells, span.get("cells", 0))
    cache_calls = metrics["dynamics.evolution_cache.calls"]
    metrics.update({
        "kernels.phase_series.terms": terms,
        "kernels.phase_series.bytes_computed": kernel_bytes,
        "reporting.write_csv.rows": csv_rows,
        "reporting.bytes_written": written,
        "linalg.eig_hermitian.dim3_sum": dim3,
        "linalg.eig_hermitian.max_dim": max_dim,
        "dynamics.evolution_cache.misses": len(cache_misses),
        "dynamics.evolution_cache.hit_ratio": _hit_ratio(len(cache_misses), cache_calls),
        "tomography.matrix_pencil.hankel_cells_max": cells,
    })
    return metrics, wall, unattributed


def _hit_ratio(misses, calls):
    return 1.0 - misses / calls if calls else 0.0

