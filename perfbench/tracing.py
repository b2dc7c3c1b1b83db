"""In-memory span tracing for traced benchmark runs.

The tracer wraps qobdd's public functions at the module attributes where the
library looks them up, records one span per wrapped call (name, start, end,
parent, run id), and restores every original attribute afterwards.  Per-row
callables (the oracle and the HSF promise) get accumulating timers instead of
one span per row; their time is charged to the span that was open when they
ran, so self times still add up.  Nothing is written until the run ends.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable

from qobdd import compiler, goodsets, programs, verification

# Span name -> per-layer metric that collects the span's self time.
SPAN_LAYERS = {
    "verification.sweep_accept_probabilities": "programs.sweep_s",
    "programs.program_to_json_dict": "programs.to_json_s",
    "programs.program_from_json_dict": "programs.from_json_s",
    "programs.accept_probability": "programs.run_s",
    "verification.sample_good": "goodsets.sample_good_s",
    "goodsets.sample": "goodsets.sample_good_s",
    "verification.compile_single": "compiler.compile_s",
    "verification.compile_general": "compiler.compile_s",
    "compiler.compile_single": "compiler.compile_s",
    "verification.closed_form_single_batch": "compiler.closed_form_s",
    "verification.closed_form_general_batch": "compiler.closed_form_s",
    "compiler.closed_form_single": "compiler.closed_form_s",
    "verification.realized_residues": "verification.realized_residues_s",
    "verification.verify": "verification.verify_self_s",
    "verification.hsf_characteristic": "hsf.characteristic_s",
    "verification.certify": "verification.certify_self_s",
    "cli.main": "cli.self_s",
}

# Accumulating timer name -> (time metric, call-count metric).
TIMER_LAYERS = {
    "verification.oracle": ("verification.oracle_s", "verification.oracle_calls"),
    "hsf.promise": ("hsf.promise_s", "hsf.promise_calls"),
}

PER_LAYER_UNITS = {
    "programs.sweep_s": "s",
    "programs.sweep_rows": "count",
    "programs.to_json_s": "s",
    "programs.from_json_s": "s",
    "programs.file_bytes": "bytes",
    "programs.run_s": "s",
    "goodsets.sample_good_s": "s",
    "goodsets.residues_checked": "count",
    "goodsets.attempts": "count",
    "compiler.compile_s": "s",
    "compiler.closed_form_s": "s",
    "compiler.closed_form_rows": "count",
    "verification.oracle_s": "s",
    "verification.oracle_calls": "count",
    "verification.realized_residues_s": "s",
    "verification.verify_self_s": "s",
    "verification.certify_self_s": "s",
    "hsf.promise_s": "s",
    "hsf.promise_calls": "count",
    "hsf.promise_kept_ratio": "ratio",
    "hsf.characteristic_s": "s",
    "cli.self_s": "s",
    "trace.root_s": "s",
    "trace.overhead_s": "s",
}


class Tracer:
    """Spans and counters of one traced run, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.run_id = 0
        self._open: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        record = {
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._open[-1] if self._open else None,
            "run": self.run_id,
            "timers_s": 0.0,
        }
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def current(self) -> str | None:
        return self.spans[self._open[-1]]["name"] if self._open else None

    def spanned(self, name: str, fn: Callable, on_call: Callable | None = None) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(*args, **kwargs)
            with self.span(name):
                return fn(*args, **kwargs)

        return wrapper

    def timed(self, name: str, fn: Callable) -> Callable:
        """Accumulating timer for a per-row callable; counts truthy results too."""
        seconds_key, calls_key = TIMER_LAYERS[name]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            result = fn(*args, **kwargs)
            elapsed = time.perf_counter() - start
            self.counts[seconds_key] += elapsed
            self.counts[calls_key] += 1
            if result:
                self.counts[name + ".truthy"] += 1
            if self._open:
                self.spans[self._open[-1]]["timers_s"] += elapsed
            return result

        return wrapper

    def counted(self, key: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def patch(self, module: object, attr: str, wrapper: Callable) -> None:
        self._patched.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def install(self) -> None:
        """Wrap the library's public functions where they are looked up."""
        for attr in (
            "sample_good",
            "realized_residues",
            "compile_single",
            "compile_general",
            "hsf_characteristic",
            "verify",
        ):
            self.patch(verification, attr, self.spanned(f"verification.{attr}", getattr(verification, attr)))
        self.patch(
            verification,
            "sweep_accept_probabilities",
            self.spanned(
                "verification.sweep_accept_probabilities",
                verification.sweep_accept_probabilities,
                on_call=lambda program, bits, *a, **k: self._add("programs.sweep_rows", bits.shape[0]),
            ),
        )
        for attr in ("closed_form_single_batch", "closed_form_general_batch"):
            self.patch(
                verification,
                attr,
                self.spanned(
                    f"verification.{attr}",
                    getattr(verification, attr),
                    on_call=lambda poly, good_set, bits: self._add("compiler.closed_form_rows", bits.shape[0]),
                ),
            )
        self.patch(verification, "hsf_eval", self.timed("verification.oracle", verification.hsf_eval))
        self.patch(
            verification, "satisfies_promise", self.timed("hsf.promise", verification.satisfies_promise)
        )
        self.patch(compiler, "compile_single", self.spanned("compiler.compile_single", compiler.compile_single))
        self.patch(
            compiler,
            "closed_form_single",
            self.spanned(
                "compiler.closed_form_single",
                compiler.closed_form_single,
                on_call=lambda *a, **k: self._add("compiler.closed_form_rows", 1),
            ),
        )
        self.patch(
            goodsets,
            "sample",
            self.spanned("goodsets.sample", goodsets.sample, on_call=self._count_attempt),
        )
        self.patch(goodsets, "is_good_for", self.counted("goodsets.residues_checked", goodsets.is_good_for))
        for attr in ("program_to_json_dict", "program_from_json_dict", "accept_probability"):
            self.patch(programs, attr, self.spanned(f"programs.{attr}", getattr(programs, attr)))

    def restore(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def _add(self, key: str, amount: float) -> None:
        self.counts[key] += amount

    def _count_attempt(self, *args, **kwargs) -> None:
        if self.current() == "verification.sample_good":
            self.counts["goodsets.attempts"] += 1


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus its direct children and its per-row timers."""
    own = [span["end"] - span["start"] - span["timers_s"] for span in spans]
    for span in spans:
        if span["parent"] is not None:
            own[span["parent"]] -= span["end"] - span["start"]
    return own


def layer_metrics(tracer: Tracer, passes: int) -> dict[str, float]:
    """Per-layer totals of a traced run, divided by the number of traced passes."""
    totals = {name: 0.0 for name in PER_LAYER_UNITS}
    for span, own in zip(tracer.spans, self_times(tracer.spans)):
        totals[SPAN_LAYERS[span["name"]]] += own
        if span["parent"] is None:
            totals["trace.root_s"] += span["end"] - span["start"]
    for key, value in tracer.counts.items():
        if key in totals:
            totals[key] += value
    per_pass = {name: value / passes for name, value in totals.items()}
    calls = tracer.counts["hsf.promise_calls"]
    per_pass["hsf.promise_kept_ratio"] = tracer.counts["hsf.promise.truthy"] / calls if calls else 0.0
    return per_pass
