"""Spans and counters around qsms's public functions, patched from outside.

The program is not edited: ``Tracer`` swaps module and class attributes for
wrappers while installed and puts the originals back on ``uninstall``.
A name bound by ``from .x import y`` is looked up in the importing module, so
it is patched there (``SPANS`` lists every site). Functions get spans
(name, start, end, parent); the value classes ``FieldElement``,
``Polynomial`` and ``QuditState`` are only counted, because they are built
hundreds of thousands of times per pass. Spans stay in memory until
``save`` writes them out.
"""
from __future__ import annotations

from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter_ns
from typing import Callable

import numpy as np
from qsms import adversary, cli, protocol, qudit, shamir, zmod

# Bytes a dense single-qudit gate reads and writes: one complex128 vector in,
# one out. Computed from the state size, not measured.
_GATE_BYTES_PER_AMPLITUDE = 2 * 16


def _gate_bytes(counts: Counter, result) -> None:
    counts["qudit.gate_bytes"] += _GATE_BYTES_PER_AMPLITUDE * result.amplitudes.size


def _shots(counts: Counter, result) -> None:
    counts["protocol.shots"] += len(result)


def _messages(counts: Counter, result) -> None:
    counts["protocol.messages"] += len(result.messages)


def _transcript_bytes(counts: Counter, result) -> None:
    counts["protocol.transcript_bytes"] += len(result.encode())


def _candidates(counts: Counter, result) -> None:
    counts["adversary.collusion.candidates"] += result.details["candidate_count"]


# (owner, attribute, span name, hook that adds the call's sizes to the counts).
Hook = Callable[[Counter, object], None]
SPANS: list[tuple[object, str, str, Hook | None]] = [
    (zmod, "is_prime", "zmod.is_prime", None),
    (qudit, "is_prime", "zmod.is_prime", None),
    (protocol, "is_prime", "zmod.is_prime", None),
    (shamir, "lagrange_coefficient", "zmod.lagrange_coefficient", None),
    (shamir.Polynomial, "evaluate", "shamir.Polynomial.evaluate", None),
    (protocol, "generate_shares", "shamir.generate_shares", None),
    (protocol, "compute_shadow", "shamir.compute_shadow", None),
    (protocol, "add_shares", "shamir.add_shares", None),
    (shamir, "reconstruct", "shamir.reconstruct", None),
    (qudit, "prepare_ghz", "qudit.prepare_ghz", None),
    (qudit, "apply_qft", "qudit.apply_qft", _gate_bytes),
    (qudit, "apply_shift", "qudit.apply_shift", _gate_bytes),
    (qudit, "measure_all", "qudit.measure_all", None),
    (qudit, "measure_position", "qudit.measure_position", None),
    (protocol, "prepare_run", "protocol.prepare_run", None),
    (adversary, "prepare_run", "protocol.prepare_run", None),
    (protocol, "run_quantum_phase", "protocol.run_quantum_phase", _shots),
    (protocol, "aggregate", "protocol.aggregate", None),
    (cli, "run_protocol", "protocol.run_protocol", _messages),
    (adversary, "run_protocol", "protocol.run_protocol", _messages),
    (protocol.ProtocolTranscript, "to_json", "protocol.to_json", _transcript_bytes),
    (cli, "intercept_and_measure", "adversary.intercept_and_measure", None),
    (cli, "intercept_resend", "adversary.intercept_resend", None),
    (cli, "collusion_inference", "adversary.collusion_inference", _candidates),
    (cli, "main", "cli.main", None),
]
CONSTRUCTIONS: list[tuple[type, str, str]] = [
    (zmod.FieldElement, "__post_init__", "zmod.FieldElement"),
    (shamir.Polynomial, "__post_init__", "shamir.Polynomial"),
    (qudit.QuditState, "__init__", "qudit.QuditState"),
]


class Tracer:
    """Install/uninstall wrappers; collect one pass's spans and counts."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("q")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("q")
        self._stack: list[int] = []
        # Constructions and hook totals, and constructions by the innermost
        # enclosing span: (counter name, span name id) -> count.
        self.counts: Counter = Counter()
        self.counts_in: Counter = Counter()
        # (owner, attribute, original, wrapper)
        self._patches: list[tuple[object, str, object, object]] = []
        for owner, attr, name, hook in SPANS:
            original = vars(owner)[attr]
            self._patches.append((owner, attr, original,
                                  self._span_wrapper(original, name, hook)))
        for owner, attr, name in CONSTRUCTIONS:
            original = vars(owner)[attr]
            self._patches.append((owner, attr, original,
                                  self._count_wrapper(original, name)))

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _span_wrapper(self, fn, name: str, hook: Hook | None):
        nid = self._id(name)
        names, starts, ends, parents = (self.span_name, self.span_start,
                                        self.span_end, self.span_parent)
        stack, counts = self._stack, self.counts

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            starts.append(0)
            ends.append(0)
            stack.append(idx)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                starts[idx] = start
                ends[idx] = end
            if hook is not None:
                hook(counts, result)
            return result

        return traced

    def _count_wrapper(self, fn, name: str):
        names, stack = self.span_name, self._stack
        counts, counts_in = self.counts, self.counts_in

        def counted(*args, **kwargs):
            counts[name] += 1
            if stack:
                counts_in[(name, names[stack[-1]])] += 1
            return fn(*args, **kwargs)

        return counted

    def reset(self) -> None:
        for arr in (self.span_name, self.span_start, self.span_end, self.span_parent):
            del arr[:]
        self._stack.clear()
        self.counts.clear()
        self.counts_in.clear()

    def install(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def removed(self) -> list[str]:
        """Patched attributes that are not the original object; [] when clean."""
        return [f"{getattr(owner, '__name__', owner)}.{attr}"
                for owner, attr, original, _ in self._patches
                if vars(owner)[attr] is not original]

    def counted_in(self, counter: str, span: str) -> int:
        return self.counts_in[(counter, self._ids[span])]

    def layer_totals(self) -> tuple[dict[str, int], dict[str, float]]:
        """Per span name: call count and self time in seconds.

        Self time is the span's duration minus the durations of its
        direct children.
        """
        name = np.array(self.span_name, dtype=np.int64)
        start = np.array(self.span_start, dtype=np.int64)
        end = np.array(self.span_end, dtype=np.int64)
        parent = np.array(self.span_parent, dtype=np.int64)
        n, k = name.size, len(self.names)
        duration = (end - start).astype(np.float64)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=duration[has_parent],
                            minlength=n)
        self_ns = np.bincount(name, weights=duration - child[:n], minlength=k)
        calls = np.bincount(name, minlength=k)
        return ({nm: int(calls[i]) for i, nm in enumerate(self.names)},
                {nm: float(self_ns[i]) / 1e9 for i, nm in enumerate(self.names)})

    def save(self, path: Path, trace_id: int) -> None:
        """Write the spans of the last traced pass; times are ns from its start."""
        start = np.array(self.span_start, dtype=np.int64)
        origin = int(start.min()) if start.size else 0
        np.savez_compressed(
            path,
            trace_id=np.int64(trace_id),
            names=np.array(self.names),
            name=np.array(self.span_name, dtype=np.int64),
            start_ns=start - origin,
            end_ns=np.array(self.span_end, dtype=np.int64) - origin,
            parent=np.array(self.span_parent, dtype=np.int64),
        )
