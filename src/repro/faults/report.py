"""Degradation accounting: what was injected, what the stack did about it.

:class:`InjectionLog` counts the faults that actually landed on a run's
capture stream; :class:`DegradationReport` combines that with the
receiver's :class:`~repro.core.decoder.HealingReport` and the transport
layer's degradation outcome (partial delivery, blackout rounds, budget
and deadline exhaustion) into the one record
:class:`~repro.core.pipeline.LinkRun` and
:class:`~repro.core.pipeline.TransportRun` attach.  Everything is
JSON-ready via :meth:`DegradationReport.as_dict` so the CLIs and
``benchmarks/bench_faults.py`` can persist robustness numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

from repro.core.decoder import HealingReport
from repro.obs import Telemetry


@dataclass(frozen=True)
class InjectionLog:
    """Counts of the fault events that landed on one run."""

    dropped_captures: int = 0
    duplicated_captures: int = 0
    reordered_captures: int = 0
    blackout_captures: int = 0
    polarity_flips: int = 0
    exposure_steps: int = 0
    ambient_steps: int = 0
    corrupted_packets: int = 0
    truncated_packets: int = 0

    def as_dict(self) -> dict[str, int]:
        """JSON-ready form."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @staticmethod
    def merge(logs: "list[InjectionLog | None]") -> "InjectionLog | None":
        """Fold several rounds' logs into one (None entries skipped)."""
        present = [log for log in logs if log is not None]
        if not present:
            return None
        return InjectionLog(
            **{
                f.name: sum(getattr(log, f.name) for log in present)
                for f in fields(InjectionLog)
            }
        )


def record_injection_telemetry(log: InjectionLog, telemetry: Telemetry) -> None:
    """Record every landed fault event as a ``faults.*`` work counter."""
    for f in fields(InjectionLog):
        telemetry.metrics.counter(f"faults.{f.name}").inc(getattr(log, f.name))


@dataclass(frozen=True)
class DegradationReport:
    """How one run degraded and recovered under faults.

    Attributes
    ----------
    injected:
        Fault events that landed (None when the run had no fault plan).
    healing:
        The self-healing decoder's report (None with healing disabled).
    total_bytes, delivered_bytes:
        Transport payload accounting; ``delivered_bytes`` counts the
        distinct correct payload bytes the receiver holds, which is the
        honest number even when delivery is partial.
    partial:
        True when the session ended with some but not all bytes.
    blackout_rounds:
        Transport rounds that recovered zero packets (occlusion spans).
    deadline_hit, budget_exhausted:
        Which degradation bound ended an ARQ session early, if any.
    """

    injected: InjectionLog | None = None
    healing: HealingReport | None = None
    total_bytes: int = 0
    delivered_bytes: int = 0
    partial: bool = False
    blackout_rounds: int = 0
    deadline_hit: bool = False
    budget_exhausted: bool = False
    notes: tuple[str, ...] = field(default_factory=tuple)

    @property
    def recovered_ratio(self) -> float:
        """Delivered fraction of the payload (1.0 when nothing was owed)."""
        if self.total_bytes <= 0:
            return 1.0
        return self.delivered_bytes / self.total_bytes

    def as_dict(self) -> dict[str, object]:
        """JSON-ready form."""
        return {
            "injected": self.injected.as_dict() if self.injected else None,
            "healing": self.healing.as_dict() if self.healing else None,
            "total_bytes": self.total_bytes,
            "delivered_bytes": self.delivered_bytes,
            "recovered_ratio": self.recovered_ratio,
            "partial": self.partial,
            "blackout_rounds": self.blackout_rounds,
            "deadline_hit": self.deadline_hit,
            "budget_exhausted": self.budget_exhausted,
            "notes": list(self.notes),
        }

    def summary(self) -> str:
        """A small human-readable block for the CLIs' ``--faults`` output."""
        lines = []
        if self.injected is not None:
            inj = self.injected
            lines.append(
                "faults: "
                f"dropped={inj.dropped_captures} dup={inj.duplicated_captures} "
                f"reordered={inj.reordered_captures} blackout={inj.blackout_captures} "
                f"flips={inj.polarity_flips} exposure={inj.exposure_steps} "
                f"ambient={inj.ambient_steps} corrupt={inj.corrupted_packets} "
                f"truncated={inj.truncated_packets}"
            )
        if self.healing is not None:
            lines.append("  " + self.healing.summary())
        if self.total_bytes > 0:
            if self.delivered_bytes >= self.total_bytes:
                state = "complete"
            elif self.delivered_bytes > 0:
                state = "PARTIAL"
            else:
                state = "FAILED"
            extra = []
            if self.blackout_rounds:
                extra.append(f"blackout_rounds={self.blackout_rounds}")
            if self.deadline_hit:
                extra.append("deadline hit")
            if self.budget_exhausted:
                extra.append("retry budget exhausted")
            suffix = f" ({', '.join(extra)})" if extra else ""
            lines.append(
                f"  delivery {state}: {self.delivered_bytes}/{self.total_bytes} B "
                f"({self.recovered_ratio * 100:.1f}%){suffix}"
            )
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines) if lines else "faults: none injected"

    @staticmethod
    def merge_link_reports(
        reports: "list[DegradationReport | None]",
        **transport_fields: object,
    ) -> "DegradationReport":
        """Fold per-round link reports into one transport-level report."""
        present = [r for r in reports if r is not None]
        injected = InjectionLog.merge([r.injected for r in present])
        healing = HealingReport.merge(
            [r.healing for r in present if r.healing is not None]
        )
        return DegradationReport(
            injected=injected,
            healing=healing,
            **transport_fields,  # type: ignore[arg-type]
        )
