"""Wire protocols: header accounting, PITCH-style market data, BOE-style
order entry, sequenced feeds with A/B arbitration, and the firm's internal
normalized format.

The codecs here produce *real bytes* (fixed-layout little-endian structs),
so frame-length statistics — the paper's Table 1 — come out of actual
encoding rather than assumed sizes, and the §5 header-overhead arithmetic
(40 B of network headers = 25–40% of bytes sent) is measured, not assumed.
"""

from repro.net.headers import (
    ETHERNET_HEADER_BYTES,
    ETHERNET_FCS_BYTES,
    IPV4_HEADER_BYTES,
    MIN_FRAME_BYTES,
    TCP_HEADER_BYTES,
    UDP_HEADER_BYTES,
    UDP_STACK_OVERHEAD_BYTES,
    TCP_STACK_OVERHEAD_BYTES,
    frame_bytes_tcp,
    frame_bytes_udp,
    header_fraction,
    wire_time_ns,
)
from repro.protocols.pitch import (
    AddOrder,
    DeleteOrder,
    ModifyOrder,
    OrderExecuted,
    PitchFrameCodec,
    ReduceSize,
    Trade,
    TradingStatus,
    decode_messages,
    encode_messages,
)
from repro.protocols.boe import (
    BoeSession,
    CancelOrderRequest,
    ModifyOrderRequest,
    NewOrderRequest,
    OrderAck,
    OrderFill,
    OrderReject,
    CancelAck,
    CancelReject,
)
from repro.protocols.seqfeed import FeedArbiter, SequencedPublisher
from repro.protocols.itf import NormalizedUpdate, ItfCodec
from repro.protocols.ctp import (
    CtpHeader,
    decode_frame as decode_ctp_frame,
    encode_frame as encode_ctp_frame,
    frame_bytes_ctp,
)

__all__ = [
    "AddOrder",
    "CtpHeader",
    "decode_ctp_frame",
    "encode_ctp_frame",
    "frame_bytes_ctp",
    "BoeSession",
    "CancelAck",
    "CancelOrderRequest",
    "CancelReject",
    "DeleteOrder",
    "FeedArbiter",
    "ItfCodec",
    "ModifyOrder",
    "ModifyOrderRequest",
    "NewOrderRequest",
    "NormalizedUpdate",
    "OrderAck",
    "OrderExecuted",
    "OrderFill",
    "OrderReject",
    "PitchFrameCodec",
    "ReduceSize",
    "SequencedPublisher",
    "Trade",
    "TradingStatus",
    "decode_messages",
    "encode_messages",
    "frame_bytes_tcp",
    "frame_bytes_udp",
    "header_fraction",
    "wire_time_ns",
    "ETHERNET_HEADER_BYTES",
    "ETHERNET_FCS_BYTES",
    "IPV4_HEADER_BYTES",
    "MIN_FRAME_BYTES",
    "TCP_HEADER_BYTES",
    "UDP_HEADER_BYTES",
    "UDP_STACK_OVERHEAD_BYTES",
    "TCP_STACK_OVERHEAD_BYTES",
]


def __getattr__(name: str):
    if name == "headers":
        raise ImportError(
            "repro.protocols.headers was removed; the header arithmetic "
            "lives in repro.net.headers (frame overhead is a property of "
            "the wire, not of any protocol)"
        )
    raise AttributeError(f"module 'repro.protocols' has no attribute {name!r}")
