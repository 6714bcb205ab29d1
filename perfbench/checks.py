"""Correctness checks of the benchmark's passes, and their self-test.

Every check adds one to ``attempted``; a failed one adds a line to
``failures``. ``failed_frac`` is failures over attempts.
"""
from __future__ import annotations

import json


class Checks:
    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    def record(self, name: str, ok: bool, detail: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}")

    def exit_code(self, name: str, code: int) -> None:
        self.record(name, code == 0, f"exit code {code}")

    def equal(self, name: str, got, want) -> None:
        self.record(name, got == want, f"got {got}, want {want}")

    def identical(self, name: str, a: bytes, b: bytes) -> None:
        self.record(name, a == b, f"outputs differ ({len(a)} vs {len(b)} bytes)")

    def per_shot_sums(self, name: str, transcript: bytes, want: int, shots: int) -> None:
        """Every honest shot's digit sum is the secret total mod d."""
        try:
            sums = json.loads(transcript)["per_shot_sums"]
            wrong = [s for s in sums if s != want]
            ok = len(sums) == shots and not wrong
            detail = f"{len(sums)} sums for {shots} shots, {len(wrong)} != {want}"
        except (ValueError, KeyError, TypeError) as exc:
            ok, detail = False, f"unreadable transcript: {exc!r}"
        self.record(name, ok, detail)


def self_test() -> list[str]:
    """Give each check a clean input and a corrupted one.

    The inputs are made here, not by qsms, so a defect in the program shows
    as failed checks of a run, never as a failed self-test. Returns the cases
    where the clean input failed or the corrupted one passed; an empty list
    means every check can fail.
    """
    clean = json.dumps({"per_shot_sums": [5, 5, 5, 5], "result": 5}).encode()
    altered = json.dumps({"per_shot_sums": [5, 5, 6, 5], "result": 5}).encode()
    cases = [
        ("altered per_shot_sums entry",
         lambda c, data: c.per_shot_sums("sums", data, 5, 4), clean, altered),
        ("attack exit code 4", lambda c, code: c.exit_code("exit", code), 0, 4),
        ("wrong reconstruction", lambda c, got: c.equal("reconstruct", got, 7), 7, 8),
        ("two differing transcripts",
         lambda c, data: c.identical("repeat", clean, data), clean, altered),
    ]
    problems = []
    for label, check, good, bad in cases:
        on_good, on_bad = Checks(), Checks()
        check(on_good, good)
        check(on_bad, bad)
        if on_good.failed_frac != 0 or not on_bad.failed_frac > 0:
            problems.append(label)
    return problems
