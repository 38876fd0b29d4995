"""Violation records returned by the dataset and split validators.

A validator returns a list of Violation values; an empty list means the
input satisfies every checked invariant. Validators report all findings,
not just the first one.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Violation:
    kind: str
    message: str
    record_index: int | None = None

    def __str__(self) -> str:
        if self.record_index is None:
            return f"[{self.kind}] {self.message}"
        return f"[{self.kind}] record {self.record_index}: {self.message}"
