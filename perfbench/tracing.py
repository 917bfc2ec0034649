"""Span tracer installed from the benchmark's side of the program boundary.

While installed, a :class:`Tracer` replaces public entwave functions (and
the numpy/scipy FFT entry points) at every module attribute that refers to
them, so a name imported with ``from .ccwt import forward_fast`` is wrapped
as well as ``ccwt.forward_fast``.  Each call records one span: name, start,
end, the span that was open when it began (its parent), the op it belongs
to, and counts taken from its arguments or result.  Spans stay in memory
until the run writes them out.  Uninstalling restores every original, so an
untraced run executes the program's own code unchanged.
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import contextvars
import functools
import itertools
import json
import os
import sys
import time
from collections import defaultdict
from dataclasses import asdict, dataclass

import numpy as np
import scipy.fft

_current_span = contextvars.ContextVar("perfbench_span", default=None)
_current_op = contextvars.ContextVar("perfbench_op", default=None)

FFT_ENTRY_POINTS = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn", "rfft", "irfft",
                    "rfft2", "irfft2", "rfftn", "irfftn", "hfft", "ihfft")
VERIFY_SUITES = ("oracles", "parseval", "constants", "kernel")
CLI_COMMANDS = ("fock_sample", "ccwt_forward", "ccwt_inverse", "verify")


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: str | None
    tags: dict


class _ContextThreadPool(concurrent.futures.ThreadPoolExecutor):
    """Thread pool whose tasks run in a copy of the submitter's context, so a
    span opened in a worker thread names the submitting span as its parent."""

    def submit(self, fn, /, *args, **kwargs):
        return super().submit(contextvars.copy_context().run, fn, *args, **kwargs)


def _path_bytes(index):
    def tag(args, kwargs, result):
        return {"bytes": os.path.getsize(args[index] if len(args) > index else kwargs["path"])}
    return tag


def _result_points(args, kwargs, result):
    return {"points": int(np.size(result))}


def _targets():
    """(span name, owner, attribute, tag function) for every wrapped callable."""
    from entwave import ccwt, fock, grid, specfun, verify, wavelets

    out = [
        ("ccwt.forward_fast", ccwt, "forward_fast",
         lambda a, k, r: {"planes": r.values.shape[0]}),
        ("ccwt.inverse", ccwt, "inverse", lambda a, k, r: {"planes": a[0].values.shape[0]}),
        ("ccwt.ewc1_write", ccwt, "write_coefficients_ewc1", _path_bytes(1)),
        ("ccwt.ewc1_read", ccwt, "read_coefficients_ewc1", _path_bytes(0)),
        ("grid.csv_write", grid, "write_field_csv", _path_bytes(1)),
        ("grid.csv_read", grid, "read_field_csv", _path_bytes(0)),
        ("grid.ewg1_write", grid, "write_field_ewg1", _path_bytes(1)),
        ("grid.ewg1_read", grid, "read_field_ewg1", _path_bytes(0)),
        ("fock.eta_field", fock.TwoModeFockState, "eta_field",
         lambda a, k, r: {"terms": int(np.count_nonzero(a[0].coeffs))}),
        ("fock.state_field", fock, "state_field", None),
        ("fock.completeness_gram", fock, "completeness_gram", None),
        ("specfun.hermite2", specfun, "hermite2", None),
        ("wavelets.eval_wavelet", wavelets, "eval_wavelet",
         lambda a, k, r: {"points": int(np.size(a[1]))}),
        ("wavelets.c_psi_prime", wavelets, "c_psi_prime", None),
        ("verify.parseval_pairing", verify, "parseval_pairing", None),
        ("verify.reproducing_kernel", verify, "reproducing_kernel", None),
    ]
    for module in (np.fft, scipy.fft):
        out += [("fft", module, name, _result_points) for name in FFT_ENTRY_POINTS
                if hasattr(module, name)]
    return out


class Tracer:
    """Collects spans; :meth:`installed` puts the wrappers in place."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)

    @contextlib.contextmanager
    def span(self, name: str):
        """Record a span around the block; yields its tag dict."""
        sid = next(self._ids)
        parent = _current_span.get()
        token = _current_span.set(sid)
        tags = {}
        start = time.perf_counter()
        try:
            yield tags
        finally:
            end = time.perf_counter()
            _current_span.reset(token)
            self.spans.append(Span(sid, name, start, end, parent, _current_op.get(), tags))

    @contextlib.contextmanager
    def op(self, op_id: str):
        """Label every span opened in the block with ``op_id``."""
        token = _current_op.set(op_id)
        try:
            yield
        finally:
            _current_op.reset(token)

    def _wrap(self, name, fn, tag):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name) as tags:
                result = fn(*args, **kwargs)
            if tag is not None:
                tags.update(tag(args, kwargs, result))
            return result
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        from entwave import verify

        sites = [m for n, m in list(sys.modules.items())
                 if m is not None and (n == "entwave" or n.startswith("entwave."))]
        undo = []

        def patch(owner, attr, new):
            undo.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, new)

        try:
            for name, owner, attr, tag in _targets():
                original = getattr(owner, attr)
                wrapper = self._wrap(name, original, tag)
                patch(owner, attr, wrapper)
                for module in sites:
                    for site_attr, value in list(vars(module).items()):
                        if value is original:
                            patch(module, site_attr, wrapper)
            for module in sites:
                for site_attr, value in list(vars(module).items()):
                    if value is concurrent.futures.ThreadPoolExecutor:
                        patch(module, site_attr, _ContextThreadPool)
            # `verify all` reaches the suites through this table, not by name.
            patch(verify, "_SUITES", {key: self._wrap(f"verify.suite.{key}", fn, None)
                                      for key, fn in verify._SUITES.items()})
            yield self
        finally:
            for owner, attr, value in reversed(undo):
                setattr(owner, attr, value)

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(asdict(s)) + "\n")


def _covered(intervals, lo, hi) -> float:
    """Length of [lo, hi] covered by the union of ``intervals``."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def layer_metrics(spans) -> dict:
    """Per-layer metrics of one traced pass (zero for layers it never entered).

    ``busy_s`` sums span durations, across worker threads where a layer runs
    in them; ``self_s`` subtracts the time the span's children cover.
    """
    busy = defaultdict(float)
    calls = defaultdict(int)
    tags = defaultdict(lambda: defaultdict(int))
    children = defaultdict(list)
    for s in spans:
        busy[s.name] += s.end - s.start
        calls[s.name] += 1
        for key, value in s.tags.items():
            tags[s.name][key] += value
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    self_s = defaultdict(float)
    for s in spans:
        self_s[s.name] += (s.end - s.start) - _covered(children[s.id], s.start, s.end)

    m = {}
    for layer in ("ccwt.forward_fast", "ccwt.inverse"):
        planes = tags[layer]["planes"]
        m[f"{layer}.busy_s"] = busy[layer]
        m[f"{layer}.calls"] = calls[layer]
        m[f"{layer}.planes"] = planes
        m[f"{layer}.ms_per_plane"] = 1e3 * busy[layer] / planes if planes else 0.0
    m["fft.calls"] = calls["fft"]
    m["fft.points"] = tags["fft"]["points"]
    m["fft.busy_s"] = busy["fft"]
    for layer in ("ccwt.ewc1_write", "ccwt.ewc1_read"):
        m[f"{layer}.busy_s"] = busy[layer]
        m[f"{layer}.bytes"] = tags[layer]["bytes"]
    for layer in ("grid.csv_write", "grid.csv_read", "grid.ewg1_write", "grid.ewg1_read"):
        m[f"{layer}.busy_s"] = busy[layer]
    m["grid.csv.bytes"] = tags["grid.csv_write"]["bytes"] + tags["grid.csv_read"]["bytes"]
    m["fock.eta_field.busy_s"] = busy["fock.eta_field"]
    m["fock.eta_field.terms"] = tags["fock.eta_field"]["terms"]
    m["fock.state_field.busy_s"] = busy["fock.state_field"]
    m["fock.completeness_gram.busy_s"] = busy["fock.completeness_gram"]
    m["specfun.hermite2.calls"] = calls["specfun.hermite2"]
    m["specfun.hermite2.busy_s"] = busy["specfun.hermite2"]
    m["wavelets.eval_wavelet.busy_s"] = busy["wavelets.eval_wavelet"]
    m["wavelets.eval_wavelet.points"] = tags["wavelets.eval_wavelet"]["points"]
    m["wavelets.c_psi_prime.busy_s"] = busy["wavelets.c_psi_prime"]
    for suite in VERIFY_SUITES:
        m[f"verify.suite.{suite}.busy_s"] = busy[f"verify.suite.{suite}"]
    m["verify.parseval_pairing.self_s"] = self_s["verify.parseval_pairing"]
    m["verify.reproducing_kernel.busy_s"] = busy["verify.reproducing_kernel"]
    for command in CLI_COMMANDS:
        m[f"cli.{command}.self_s"] = self_s[f"cli.{command}"]
    return m
