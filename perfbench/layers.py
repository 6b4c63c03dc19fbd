"""Which functions are the boundaries of which layer.

Each layer is one package under ``src/repro``. A boundary is a function
through which control enters the layer: a callback the kernel
dispatches, a handler bound to a NIC, or a call from another layer.
Wrapping exactly these gives every layer its self time (see
``tracer.py``); work a layer does through its own internal calls stays
inside its boundary spans. Helpers other layers call for a few
nanoseconds (``Component.now``, ``Packet.stamp``, the ``timing``
recorders) are left unwrapped and count toward their caller.

Paths are ``module:Qualified.name``. The kernel callbacks of the three
benchmark designs must all appear here; ``tests/test_harness.py``
checks that every event the kernel dispatches lands in a wrapper.
"""

from __future__ import annotations

#: Boundaries crossed while the simulation runs.
RUN_BOUNDARIES: dict[str, tuple[str, ...]] = {
    "sim": (
        "repro.sim.kernel:Simulator.run",
    ),
    "net": (
        "repro.net.link:_Direction._serialization_done",
        "repro.net.link:_Direction._deliver",
        "repro.net.nic:Nic.send",
        "repro.net.nic:Nic._deliver",
        "repro.net.nic:Nic._transmit",
        "repro.net.switch:CommoditySwitch._emit",
        "repro.net.switch:CommoditySwitch._software_service",
        "repro.net.l1switch:Layer1Switch._emit_all",
        "repro.net.l1switch:MergeUnit._emit",
        "repro.net.l1switch:MergeUnit._emit_reverse",
    ),
    "protocols": (
        "repro.protocols.seqfeed:SequencedPublisher.publish",
        "repro.protocols.seqfeed:FeedArbiter.on_payload",
        "repro.protocols.itf:ItfCodec.encode_batch",
        "repro.protocols.itf:ItfCodec.decode_batch",
        "repro.protocols.boe:BoeSession.encode_new_order",
        "repro.protocols.boe:BoeSession.on_bytes",
        "repro.protocols.boe:encode_message",
        "repro.protocols.boe:decode_message",
    ),
    "exchange": (
        "repro.exchange.exchange:Exchange.inject_order",
        "repro.exchange.exchange:Exchange.inject_cancel",
        "repro.exchange.exchange:Exchange.inject_modify",
        "repro.exchange.order_entry:OrderEntryPort._on_packet",
        "repro.exchange.order_entry:OrderEntryPort._process",
        "repro.exchange.publisher:FeedPublisher._flush_timer",
        "repro.exchange.publisher:PartitionScheme.partition_of",
    ),
    "firm": (
        "repro.firm.feedhandler:FeedHandler._on_packet",
        "repro.firm.normalizer:Normalizer._on_message",
        "repro.firm.normalizer:Normalizer._service",
        "repro.firm.normalizer:Normalizer._publish",
        "repro.firm.strategy:Strategy._on_md_packet",
        "repro.firm.strategy:Strategy._on_order_packet",
        "repro.firm.strategy:Strategy._send_orders",
        "repro.firm.gateway:OrderGateway._on_strategy_packet",
        "repro.firm.gateway:OrderGateway._on_exchange_packet",
        "repro.firm.gateway:OrderGateway._translate",
    ),
    "workload": (
        "repro.workload.orderflow:OrderFlowGenerator.start",
        "repro.workload.orderflow:OrderFlowGenerator._batch",
        "repro.workload.orderflow:OrderFlowGenerator._event",
    ),
    "telemetry": (
        "repro.telemetry.session:TelemetrySession.count",
        "repro.telemetry.session:TelemetrySession.gauge_set",
        "repro.telemetry.session:TelemetrySession.gauge_add",
        "repro.telemetry.session:TelemetrySession.start_trace",
        "repro.telemetry.session:TelemetrySession.finish_trace",
        "repro.telemetry.session:TelemetrySession.tail_exemplars",
        "repro.telemetry.session:TelemetrySession.span_histograms",
        "repro.telemetry.context:TraceContext.record",
        "repro.telemetry.context:TraceContext.fork",
        "repro.telemetry.context:TraceContext.rebase",
        "repro.telemetry.metrics:MetricsRegistry.histogram",
        "repro.telemetry.metrics:Histogram.observe",
    ),
    "analysis": (
        "repro.analysis.report:build_tail_report",
    ),
    "core": (
        "repro.core.run:execute_spec",
        "repro.core.testbed:TradingSystem.run",
    ),
}

#: Boundaries crossed while ``build_system`` assembles a system.
SETUP_BOUNDARIES: dict[str, tuple[str, ...]] = {
    "net": (
        "repro.net.topology:build_leaf_spine",
        "repro.net.routing:compute_unicast_routes",
        "repro.net.multicast:MulticastFabric.join",
        "repro.net.multicast:MulticastFabric.announce_server_source",
        "repro.net.nic:Nic.__init__",
        "repro.net.nic:Nic.join_group",
        "repro.net.link:Link.__init__",
    ),
    "exchange": (
        "repro.exchange.exchange:Exchange.__init__",
        "repro.exchange.matching:MatchingEngine.symbols",
        "repro.exchange.matching:MatchingEngine.list_symbol",
    ),
    "firm": (
        "repro.firm.normalizer:Normalizer.__init__",
        "repro.firm.feedhandler:FeedHandler.subscribe",
        "repro.firm.strategy:Strategy.__init__",
        "repro.firm.strategy:Strategy.subscribe",
        "repro.firm.gateway:OrderGateway.__init__",
    ),
    "workload": (
        "repro.workload.symbols:make_universe",
        "repro.workload.orderflow:OrderFlowGenerator.__init__",
    ),
    "telemetry": (
        "repro.telemetry.session:TelemetrySession.__init__",
    ),
    "core": (
        "repro.core.api:build_system",
    ),
}

LAYERS = tuple(RUN_BOUNDARIES)


def all_boundaries() -> dict[str, tuple[str, ...]]:
    """Run and set-up boundaries merged per layer, in layer order."""
    return {
        layer: RUN_BOUNDARIES[layer] + SETUP_BOUNDARIES.get(layer, ())
        for layer in LAYERS
    }
