"""Full-duplex links with serialization, propagation, queueing, and loss.

A link is where latency physically accrues:

* **serialization** — wire bits divided by line rate (plus the 20 B
  Ethernet preamble + inter-frame gap per frame);
* **propagation** — distance over signal speed; in-colo cross-connects are
  tens of ns, metro fiber is tens–hundreds of µs, microwave beats fiber on
  the same path because air propagation (~c) outruns glass (~2c/3);
* **queueing** — a drop-tail FIFO per direction, sized in bytes, standing
  in for the egress buffer of whatever device feeds the link;
* **loss** — i.i.d. frame loss, used for microwave links where rain fade
  makes loss a first-class design consideration (§2 of the paper).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Protocol

from repro.net.packet import Packet
from repro.sim.kernel import Simulator

# Ethernet preamble (8 B) + inter-frame gap (12 B) occupy line time per
# frame but are not part of the frame length that Table 1 reports.
ETHERNET_OVERHEAD_BYTES = 20

# Propagation speeds, metres per second.
SPEED_OF_LIGHT_VACUUM = 299_792_458.0
SPEED_IN_FIBER = SPEED_OF_LIGHT_VACUUM * 2.0 / 3.0  # refractive index ~1.5
SPEED_MICROWAVE = SPEED_OF_LIGHT_VACUUM * 0.99  # near-c through air


def propagation_ns(distance_m: float, speed_m_per_s: float = SPEED_IN_FIBER) -> int:
    """Propagation delay in ns for ``distance_m`` at ``speed_m_per_s``."""
    if distance_m < 0:
        raise ValueError("distance must be >= 0")
    return int(round(distance_m / speed_m_per_s * 1e9))


class PacketSink(Protocol):
    """Anything that can terminate a link end: a NIC, switch, or tap."""

    name: str

    def handle_packet(self, packet: Packet, ingress: "Link") -> None:
        """Deliver ``packet`` arriving over ``ingress``."""
        ...


@dataclass
class LinkStats:
    """Per-direction counters, exposed for analysis and tests."""

    packets_sent: int = 0
    bytes_sent: int = 0
    packets_delivered: int = 0
    packets_dropped_queue: int = 0
    packets_lost: int = 0
    queue_delay_total_ns: int = 0
    queue_delay_max_ns: int = 0
    busy_ns: int = 0

    def utilization(self, elapsed_ns: int) -> float:
        """Fraction of ``elapsed_ns`` the transmitter was serializing."""
        if elapsed_ns <= 0:
            return 0.0
        return min(1.0, self.busy_ns / elapsed_ns)


class _Direction:
    """One transmit direction of a full-duplex link."""

    def __init__(self, link: "Link", label: str, sink: PacketSink):
        self.link = link
        self.sim = link.sim  # one hop instead of two on the datapath
        self.label = label
        self.sink = sink
        self.queue: deque[tuple[Packet, int]] = deque()  # (packet, enqueue time)
        self.queued_bytes = 0
        self.transmitting = False
        self.stats = LinkStats()
        # Instrument names are precomputed so the telemetry-on hot path
        # pays no per-packet string formatting. Drops and losses are
        # per-link (both directions share the counter); queue depth is
        # per-direction — the two transmit queues are distinct buffers.
        slug = "a2b" if label == "a->b" else "b2a"
        self._drops_series = f"link.{link.name}.queue_drops"
        self._losses_series = f"link.{link.name}.wire_losses"
        self._depth_series = f"link.{link.name}.{slug}.queue_bytes"
        # Loss stream resolved on first lossy frame and cached: the name
        # lookup (and its f-string) must not run per packet.
        self._loss_stream_name = f"link.loss.{link.name}"
        self._loss_rng = None
        # The link's line-time memo; cleared in place, never replaced.
        self._line_ns = link._line_ns

    def send(self, packet: Packet) -> bool:
        """Enqueue ``packet`` for transmission. Returns False if dropped.

        An idle transmitter puts the frame on the wire at once, without
        the deque round trip; telemetry still sees the depth rise and
        fall, as if the frame had passed through the queue.
        """
        sim = self.sim
        wire_bytes = packet.wire_bytes
        limit = self.link.queue_limit_bytes
        if limit is not None and self.queued_bytes + wire_bytes > limit:
            self.stats.packets_dropped_queue += 1
            telemetry = sim.telemetry
            if telemetry is not None:
                telemetry.count(self._drops_series, sim.now)
            return False
        telemetry = sim.telemetry
        if not self.transmitting:
            if telemetry is not None:
                now = sim.now
                telemetry.gauge_set(self._depth_series, now, wire_bytes)
                telemetry.gauge_set(self._depth_series, now, 0)
            self._transmit(packet, 0)
            return True
        self.queue.append((packet, sim.now))
        self.queued_bytes += wire_bytes
        if telemetry is not None:
            telemetry.gauge_set(self._depth_series, sim.now, self.queued_bytes)
        return True

    def _start_next(self) -> None:
        sim = self.sim
        packet, enqueued_at = self.queue.popleft()
        self.queued_bytes -= packet.wire_bytes
        telemetry = sim.telemetry
        if telemetry is not None:
            telemetry.gauge_set(self._depth_series, sim.now, self.queued_bytes)
        self._transmit(packet, sim.now - enqueued_at)

    def _transmit(self, packet: Packet, wait: int) -> None:
        """Serialize ``packet`` after ``wait`` ns spent in the queue."""
        stats = self.stats
        stats.queue_delay_total_ns += wait
        if wait > stats.queue_delay_max_ns:
            stats.queue_delay_max_ns = wait
        self.transmitting = True
        wire_bytes = packet.wire_bytes
        ser = self._line_ns.get(wire_bytes)
        if ser is None:
            ser = self.link.serialization_ns(wire_bytes)
        stats.busy_ns += ser
        stats.packets_sent += 1
        stats.bytes_sent += wire_bytes
        self.sim.schedule_after(ser, self._serialization_done, (packet,))

    def _serialization_done(self, packet: Packet) -> None:
        self.transmitting = False
        sim = self.sim
        lost = False
        if self.link.loss_prob > 0.0:
            rng = self._loss_rng
            if rng is None:
                rng = self._loss_rng = sim.rng.stream(self._loss_stream_name)
            lost = rng.random() < self.link.loss_prob
        if lost:
            self.stats.packets_lost += 1
            telemetry = sim.telemetry
            if telemetry is not None:
                telemetry.count(self._losses_series, sim.now)
        else:
            sim.schedule_after(
                self.link.propagation_delay_ns, self._deliver, (packet,)
            )
        if self.queue:
            self._start_next()

    def _deliver(self, packet: Packet) -> None:
        self.stats.packets_delivered += 1
        self.sink.handle_packet(packet, self.link)


#: A transmit direction as devices hold it: what :meth:`Link.port` returns.
Port = _Direction


class Link:
    """A full-duplex point-to-point link between two packet sinks.

    Devices transmit with :meth:`send`, naming themselves so the link can
    pick the direction, or resolve that direction once with :meth:`port`
    at wiring time and send on it directly. The conventional in-colo
    cross-connect is 10 Gb/s (§2: "usually via 10 Gbps Ethernet").
    Construction records the link on ``sim.registry``.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        end_a: PacketSink,
        end_b: PacketSink,
        bandwidth_bps: float = 10e9,
        propagation_delay_ns: int = 50,
        loss_prob: float = 0.0,
        queue_limit_bytes: int | None = 512 * 1024,
    ):
        if bandwidth_bps <= 0:
            raise ValueError("bandwidth must be positive")
        if not 0.0 <= loss_prob <= 1.0:
            raise ValueError("loss_prob must be within [0, 1]")
        if end_a is end_b:
            raise ValueError("link endpoints must be distinct devices")
        self.sim = sim
        self.name = name
        self.end_a = end_a
        self.end_b = end_b
        # frame bytes -> line time at the current bandwidth.
        self._line_ns: dict[int, int] = {}
        self.bandwidth_bps = bandwidth_bps
        self.propagation_delay_ns = int(propagation_delay_ns)
        self.loss_prob = float(loss_prob)
        self.queue_limit_bytes = queue_limit_bytes
        self._a_to_b = _Direction(self, "a->b", end_b)
        self._b_to_a = _Direction(self, "b->a", end_a)
        sim.registry.append(self)

    @property
    def bandwidth_bps(self) -> float:
        """Line rate in bits per second; chaos ``link_rate`` changes it."""
        return self._bandwidth_bps

    @bandwidth_bps.setter
    def bandwidth_bps(self, value: float) -> None:
        self._bandwidth_bps = float(value)
        self._line_ns.clear()

    def serialization_ns(self, frame_bytes: int) -> int:
        """Line time for one frame, including preamble + inter-frame gap."""
        ns = self._line_ns.get(frame_bytes)
        if ns is None:
            bits = (frame_bytes + ETHERNET_OVERHEAD_BYTES) * 8
            ns = max(1, int(round(bits / self._bandwidth_bps * 1e9)))
            self._line_ns[frame_bytes] = ns
        return ns

    def other_end(self, device: PacketSink) -> PacketSink:
        """The sink at the far end from ``device``."""
        return self.port(device).sink

    def port(self, sender: PacketSink) -> Port:
        """``sender``'s transmit direction, for devices to resolve once."""
        if sender is self.end_a:
            return self._a_to_b
        if sender is self.end_b:
            return self._b_to_a
        raise ValueError(f"{sender!r} is not attached to link {self.name}")

    def send(self, packet: Packet, sender: PacketSink) -> bool:
        """Transmit ``packet`` away from ``sender``. False if tail-dropped."""
        return self.port(sender).send(packet)

    def queued_bytes_from(self, sender: PacketSink) -> int:
        """Bytes currently waiting in ``sender``'s transmit queue."""
        return self.port(sender).queued_bytes

    def stats_from(self, sender: PacketSink) -> LinkStats:
        """Transmit-direction statistics for traffic sent by ``sender``."""
        return self.port(sender).stats

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Link {self.name} {self.end_a.name}<->{self.end_b.name}>"


def microwave_link(
    sim: Simulator,
    name: str,
    end_a: PacketSink,
    end_b: PacketSink,
    distance_m: float,
    bandwidth_bps: float = 1e9,
    loss_prob: float = 1e-4,
) -> Link:
    """A metro microwave circuit: near-c propagation, low rate, lossy."""
    return Link(
        sim,
        name,
        end_a,
        end_b,
        bandwidth_bps=bandwidth_bps,
        propagation_delay_ns=propagation_ns(distance_m, SPEED_MICROWAVE),
        loss_prob=loss_prob,
    )


def fiber_link(
    sim: Simulator,
    name: str,
    end_a: PacketSink,
    end_b: PacketSink,
    distance_m: float,
    bandwidth_bps: float = 10e9,
    path_stretch: float = 1.4,
) -> Link:
    """A metro fiber circuit; ``path_stretch`` models non-geodesic routing."""
    return Link(
        sim,
        name,
        end_a,
        end_b,
        bandwidth_bps=bandwidth_bps,
        propagation_delay_ns=propagation_ns(distance_m * path_stretch, SPEED_IN_FIBER),
    )
