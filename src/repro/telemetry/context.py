"""Trace contexts, events, and completed traces.

A :class:`TraceContext` rides on one packet (and survives clones via
:meth:`fork`). Devices append *point events* — "this packet passed
``where`` at time ``t``, and the time since the previous event belongs to
category ``kind``". A finished context becomes an immutable
:class:`Trace`, whose :meth:`Trace.spans` are the consecutive differences
between events; their sum is exactly ``end_ns - begin_ns``, which is the
same subtraction the exchange edge performs to produce a round-trip
sample. Spans therefore sum to the measured round trip with no residual.

Kinds in use across the stack:

========== ====================================================
kind       what the span covers
========== ====================================================
exchange   matching output → feed frame emission (coalescing)
wire       serialization + queue wait + propagation to a device
switch     commodity-switch hop latency
l1s        layer-1 switch fan-out latency
merge      merge-unit arbitration latency
fpga       FPGA-enhanced L1S hop latency
cloud      equalized cloud-fabric delivery
nic        NIC rx/tx hardware latency
normalizer decode + book update + normalization compute
strategy   ITF decode + decision compute
gateway    risk check + BOE translation compute
========== ====================================================
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

_trace_ids = itertools.count(1)


@dataclass(frozen=True, slots=True)
class TraceEvent:
    """One point event: the packet passed ``where`` at time ``t``."""

    where: str
    kind: str
    t: int


@dataclass(frozen=True, slots=True)
class Span:
    """A derived interval: ``duration_ns`` attributed to one hop."""

    where: str
    kind: str
    duration_ns: int


class TraceContext:
    """Mutable per-packet trace state; becomes a :class:`Trace` on finish.

    ``begin_ns`` starts at creation time (the feed-frame emission) and is
    *rebased* by the strategy to the triggering event's exchange
    timestamp — the same value echoed to the exchange as the client
    timestamp — so the final trace covers exactly the interval the
    round-trip sample measures.

    ``events`` holds plain ``(where, kind, t)`` tuples: most contexts
    ride a multicast copy that never finishes, so :class:`TraceEvent`
    objects are built only by :meth:`finish`.
    """

    __slots__ = ("trace_id", "parent_id", "begin_ns", "events", "done")

    def __init__(
        self,
        begin_ns: int,
        events: list[tuple[str, str, int]] | None = None,
        parent_id: int | None = None,
    ):
        self.trace_id = next(_trace_ids)
        self.parent_id = parent_id
        self.begin_ns = begin_ns
        self.events: list[tuple[str, str, int]] = (
            events if events is not None else []
        )
        self.done = False

    # lint: hot-ok(no-alloc-on-hot-path) — pooling is a ROADMAP item
    def record(self, where: str, kind: str, t: int) -> None:
        """Append a point event (device hook; call with ``sim.now``)."""
        self.events.append((where, kind, t))

    # lint: hot-ok(no-alloc-on-hot-path) — pooling is a ROADMAP item
    def fork(self) -> "TraceContext":
        """Independent child for a packet copy (multicast, per-order)."""
        return TraceContext(
            self.begin_ns, events=list(self.events), parent_id=self.trace_id
        )

    def rebase(self, begin_ns: int) -> None:
        """Move the trace origin to the triggering event's timestamp."""
        self.begin_ns = begin_ns

    # lint: hot-ok(no-alloc-on-hot-path) — pooling is a ROADMAP item
    def finish(self, end_ns: int) -> "Trace":
        """Freeze into a :class:`Trace` ending at ``end_ns``."""
        self.done = True
        return Trace(
            trace_id=self.trace_id,
            begin_ns=self.begin_ns,
            end_ns=end_ns,
            events=tuple(TraceEvent(*event) for event in self.events),
        )


@dataclass(frozen=True, slots=True)
class Trace:
    """One completed end-to-end trace (exchange → ... → exchange)."""

    trace_id: int
    begin_ns: int
    end_ns: int
    events: tuple[TraceEvent, ...]

    @property
    def rtt_ns(self) -> int:
        """Total traced time; equals the exchange-edge round-trip sample."""
        return self.end_ns - self.begin_ns

    def spans(self) -> list[Span]:
        """Per-hop spans; sums to :attr:`rtt_ns` exactly.

        Span *i* runs from event *i-1* (or ``begin_ns``) to event *i* and
        is attributed to event *i*'s location and kind. Any remainder
        after the last event (zero in normal wiring, where the final NIC
        delivery *is* the measurement point) is attributed to delivery.
        """
        out: list[Span] = []
        prev = self.begin_ns
        for event in self.events:
            out.append(Span(event.where, event.kind, event.t - prev))
            prev = event.t
        if prev != self.end_ns:
            out.append(Span("delivery", "wire", self.end_ns - prev))
        return out

    def signature(self) -> tuple[tuple[str, str], ...]:
        """The hop sequence, for grouping same-path traces."""
        return tuple((e.where, e.kind) for e in self.events)

    def to_dict(self) -> dict:
        return {
            "trace_id": self.trace_id,
            "begin_ns": self.begin_ns,
            "end_ns": self.end_ns,
            "events": [[e.where, e.kind, e.t] for e in self.events],
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "Trace":
        return cls(
            trace_id=int(raw["trace_id"]),
            begin_ns=int(raw["begin_ns"]),
            end_ns=int(raw["end_ns"]),
            events=tuple(
                TraceEvent(where, kind, int(t)) for where, kind, t in raw["events"]
            ),
        )
