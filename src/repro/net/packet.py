"""The simulated packet.

A :class:`Packet` carries an application-level ``message`` (any object —
usually a decoded PITCH/BOE message or a raw frame payload) plus the
metadata the datapath models need: wire size, source/destination address,
and a timestamp trail. The wire size is what drives serialization delay
and queue occupancy; the timestamp trail records each hop's (location,
time) stamp.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any

from repro.net.addressing import Address, EndpointAddress

_packet_ids = itertools.count(1)

# Minimum and maximum Ethernet frame sizes (including the 14 B Ethernet
# header and 4 B FCS, excluding preamble/IFG which live in the link model).
MIN_FRAME_BYTES = 64
MAX_FRAME_BYTES = 1518


@dataclass(slots=True)
class Packet:
    """One frame on the wire.

    ``wire_bytes`` is the full on-the-wire frame length, inclusive of
    Ethernet/IP/UDP (or TCP) headers, matching how the paper's Table 1
    reports frame lengths. ``payload_bytes`` is the application payload
    carried, so ``wire_bytes - payload_bytes`` is header overhead.
    """

    src: EndpointAddress
    dst: Address
    wire_bytes: int
    payload_bytes: int
    message: Any = None
    seqno: int | None = None
    created_at: int = 0
    packet_id: int = field(default_factory=lambda: next(_packet_ids))
    # Timestamp trail: list of (where, when_ns) pairs appended by NICs,
    # switches, and capture taps as the packet traverses them.
    trail: list[tuple[str, int]] = field(default_factory=list)
    # Telemetry trace context (repro.telemetry.TraceContext) or None.
    # None whenever telemetry is disabled, so the per-device hooks cost
    # one attribute check on the hot path.
    trace: Any = None

    def __post_init__(self) -> None:
        if self.wire_bytes < MIN_FRAME_BYTES:
            # Ethernet pads runt frames up to the 64-byte minimum.
            self.wire_bytes = MIN_FRAME_BYTES
        if self.wire_bytes > MAX_FRAME_BYTES:
            raise ValueError(
                f"frame of {self.wire_bytes} B exceeds Ethernet maximum "
                f"({MAX_FRAME_BYTES} B); fragment at a higher layer"
            )
        if self.payload_bytes < 0 or self.payload_bytes > self.wire_bytes:
            raise ValueError("payload_bytes must be within [0, wire_bytes]")

    @property
    def header_bytes(self) -> int:
        """Bytes of protocol overhead (everything that is not payload)."""
        return self.wire_bytes - self.payload_bytes

    @property
    def header_fraction(self) -> float:
        """Header overhead as a fraction of the frame. Paper: 25–40%."""
        return self.header_bytes / self.wire_bytes

    def stamp(self, where: str, when: int) -> None:
        """Append a trail entry."""
        self.trail.append((where, when))

    def first_stamp(self, prefix: str) -> int | None:
        """Earliest trail time whose location starts with ``prefix``."""
        for where, when in self.trail:
            if where.startswith(prefix):
                return when
        return None

    def last_stamp(self, prefix: str) -> int | None:
        """Latest trail time whose location starts with ``prefix``."""
        found = None
        for where, when in self.trail:
            if where.startswith(prefix):
                found = when
        return found

    # lint: hot-ok(no-alloc-on-hot-path) — pooling is a ROADMAP item
    def clone(self) -> "Packet":
        """Copy for multicast fan-out: fresh id, copied trail, forked trace.

        Built with direct slot stores: the fields were validated when
        the original was made, so the copy skips ``__init__`` and
        ``__post_init__``. The id still comes from the shared counter.
        """
        copy = object.__new__(Packet)
        copy.src = self.src
        copy.dst = self.dst
        copy.wire_bytes = self.wire_bytes
        copy.payload_bytes = self.payload_bytes
        copy.message = self.message
        copy.seqno = self.seqno
        copy.created_at = self.created_at
        copy.packet_id = next(_packet_ids)
        copy.trail = self.trail.copy()
        trace = self.trace
        copy.trace = trace.fork() if trace is not None else None
        return copy

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Packet #{self.packet_id} {self.src}->{self.dst} "
            f"{self.wire_bytes}B seq={self.seqno}>"
        )
