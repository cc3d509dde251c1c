"""What a workload hands back to the runner."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class Outcome:
    """Metrics, checks and the request tally of one workload run.

    ``end_to_end`` and ``per_layer`` map metric names to values (units come
    from ``BENCHMARK.json``); ``named`` maps the workload's own descriptive
    metric names to ``(value, unit)`` for the human-readable report.
    """

    attempted: int = 0
    failed: int = 0
    end_to_end: dict = field(default_factory=dict)
    per_layer: dict = field(default_factory=dict)
    named: dict = field(default_factory=dict)
    checks: list = field(default_factory=list)
    info: dict = field(default_factory=dict)

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        """Record one correctness check; returns ``ok``."""
        self.checks.append((name, bool(ok), detail))
        return bool(ok)

    @property
    def correct(self) -> bool:
        return bool(self.checks) and all(ok for _, ok, _ in self.checks)
