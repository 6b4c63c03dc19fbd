"""Wall-time spans around layer boundaries, and the self-time ledger they give.

A :class:`Tracer` wraps functions so that each call records one span:
wall-clock start and end, read with ``time.perf_counter_ns``. Spans nest
on one stack, so a span's *self time* is its duration minus the
durations of the spans it directly contains. Self time is summed per
layer. A root span opened around the measured window collects whatever
no wrapped function claimed, plus the wrappers' own measured
bookkeeping, as ``unattributed``.

The arithmetic is exact integer nanoseconds: when every span has
closed, the per-layer self times plus ``unattributed`` equal the
root's duration to the nanosecond. :meth:`Tracer.close_root` checks
that, together with the two ways the stack discipline can break — a
span left open at the end of the window, and a wrapped function
re-entered while it is already on the stack.

:meth:`Tracer.install` prepares wrappers for the class or module
attributes the program looks up; ``with tracer:`` puts them in place
(before the system under test is built) and restores the originals on
exit. Nothing in the program itself changes.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass

#: Spans kept for the Chrome Trace export. Aggregates cover every span;
#: only the first ``MAX_SPANS`` are stored one by one.
MAX_SPANS = 20_000

ROOT_LAYER = "unattributed"


@dataclass
class Ledger:
    """Self time and span counts per layer for one phase of one run."""

    self_ns: dict[str, int]
    spans: dict[str, int]

    def total_ns(self) -> int:
        return sum(self.self_ns.values())

    def add(self, other: "Ledger") -> "Ledger":
        return Ledger(
            {k: v + other.self_ns.get(k, 0) for k, v in self.self_ns.items()},
            {k: v + other.spans.get(k, 0) for k, v in self.spans.items()},
        )


@dataclass
class _Target:
    """One wrapped attribute: where it lives and what it held before."""

    owner: object  # class or module
    attr: str
    original: object
    wrapped: object


class Tracer:
    """Span recorder over a fixed list of layers.

    ``clock`` is injectable so tests can drive the arithmetic with fake
    time. Function ids (``fid``) index :attr:`names`; layer ids index
    :attr:`layers`, whose last entry is always the root layer.
    """

    def __init__(self, layers: tuple[str, ...], clock=time.perf_counter_ns):
        self.layers = tuple(layers) + (ROOT_LAYER,)
        self.clock = clock
        self.names: list[str] = []
        self.problems: list[str] = []
        #: (start, end, fid, depth) of the first ``MAX_SPANS`` spans.
        self.records: list[tuple[int, int, int, int]] = []
        self._root_layer = len(self.layers) - 1
        self._layer_of: list[int] = []
        self._self_ns = [0] * len(self.layers)
        self._spans = [0] * len(self.layers)
        self._active: list[int] = []
        # A sentinel frame under the root keeps ``stack[-1]`` valid in
        # the wrapper's exit path even for a call outside any window.
        self._stack: list[list[int]] = [[0, 0]]
        self._targets: list[_Target] = []
        self._root: list[int] | None = None
        self._reentered: set[int] = set()

    # -- span arithmetic -------------------------------------------------------

    def register(self, name: str, layer: str) -> int:
        """A function id for ``name`` in ``layer``."""
        self.names.append(name)
        self._layer_of.append(self.layers.index(layer))
        self._active.append(0)
        return len(self.names) - 1

    def wrap(self, fn, name: str, layer: str):
        """``fn`` with a span around every call, attributed to ``layer``.

        The wrapper's own bookkeeping, from entry to the span's start and
        from the span's end to the last clock read, is charged to the
        root layer rather than to the caller, so tracing cost does not
        inflate whichever layer happened to make the call.
        """
        fid = self.register(name, layer)
        layer_id = self._layer_of[fid]
        root_id = self._root_layer
        clock = self.clock
        stack = self._stack
        active = self._active
        reentered = self._reentered
        self_ns = self._self_ns
        spans = self._spans
        records = self.records

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            entered = clock()
            if active[fid]:
                reentered.add(fid)
            active[fid] += 1
            frame = [0, 0]
            stack.append(frame)
            start = frame[0] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                self_ns[layer_id] += end - start - frame[1]
                spans[layer_id] += 1
                active[fid] -= 1
                if len(records) < MAX_SPANS:
                    records.append((start, end, fid, len(stack)))
                left = clock()
                self_ns[root_id] += start - entered + left - end
                stack[-1][1] += left - entered

        traced.__perfbench_layer__ = layer
        return traced

    # -- the measured window ---------------------------------------------------

    def open_root(self) -> int:
        """Start the window; returns its start time on the tracer's clock."""
        if self._root is not None:
            raise RuntimeError("window already open")
        self._root = [self.clock(), 0]
        self._stack.append(self._root)
        return self._root[0]

    def close_root(self) -> int:
        """End the window; returns its end time. Records tiling problems."""
        end = self.clock()
        root = self._root
        self._root = None
        if root is None:
            raise RuntimeError("no window open")
        index = next(i for i, frame in enumerate(self._stack) if frame is root)
        open_spans = len(self._stack) - index - 1
        if open_spans:
            self.problems.append(f"{open_spans} span(s) still open at window end")
        del self._stack[index]
        start, child_ns = root
        self._self_ns[self._root_layer] += end - start - child_ns
        self._spans[self._root_layer] += 1
        self.records.append((start, end, -1, 0))
        for fid in sorted(self._reentered):
            self.problems.append(f"{self.names[fid]} re-entered itself")
        self._reentered.clear()
        return end

    def take(self) -> Ledger:
        """The self times and span counts so far; resets them to zero.

        Open frames are untouched, so taking a ledger inside a window
        splits it into phases whose ledgers still add up.
        """
        ledger = Ledger(
            dict(zip(self.layers, self._self_ns)),
            dict(zip(self.layers, self._spans)),
        )
        self._self_ns[:] = [0] * len(self.layers)
        self._spans[:] = [0] * len(self.layers)
        return ledger

    def check_tiling(self, ledgers: list[Ledger], window_ns: int) -> None:
        """Record a problem unless ``ledgers`` sum to ``window_ns`` exactly."""
        total = sum(ledger.total_ns() for ledger in ledgers)
        if total != window_ns:
            self.problems.append(
                f"self times sum to {total} ns, window is {window_ns} ns"
            )

    # -- installing wrappers ---------------------------------------------------

    def install(self, boundaries: dict[str, tuple[str, ...]]) -> None:
        """Wrap every ``module:Qual.name`` listed under each layer.

        Methods and properties are replaced on their defining class.
        Module-level functions are replaced in every loaded ``repro``
        module that holds them as a global, because callers bind them
        with ``from module import name``.
        """
        for layer, paths in boundaries.items():
            for path in paths:
                self._install_one(path, layer)

    def _install_one(self, path: str, layer: str) -> None:
        module_name, qualname = path.split(":")
        module = importlib.import_module(module_name)
        *outer, attr = qualname.split(".")
        owner = module
        for part in outer:
            owner = getattr(owner, part)
        original = owner.__dict__[attr] if outer else getattr(module, attr)
        if isinstance(original, property):
            wrapped = property(self.wrap(original.fget, path, layer))
        else:
            wrapped = self.wrap(original, path, layer)
        if outer:
            self._targets.append(_Target(owner, attr, original, wrapped))
            return
        for name, loaded in sorted(sys.modules.items()):
            if name.startswith("repro") and getattr(loaded, attr, None) is original:
                self._targets.append(_Target(loaded, attr, original, wrapped))

    def __enter__(self) -> "Tracer":
        for target in self._targets:
            setattr(target.owner, target.attr, target.wrapped)
        return self

    def __exit__(self, *exc) -> None:
        for target in reversed(self._targets):
            setattr(target.owner, target.attr, target.original)

    # -- export ----------------------------------------------------------------

    def chrome_trace(self, origin_ns: int) -> dict:
        """The stored spans as a Chrome Trace Event document.

        One track; spans nest by containment, ``ts``/``dur`` are in
        microseconds from ``origin_ns``, and each slice's category is
        its layer.
        """
        events: list[dict] = [
            {"name": "process_name", "ph": "M", "pid": 1, "tid": 0,
             "args": {"name": "perfbench wall time"}},
            {"name": "thread_name", "ph": "M", "pid": 1, "tid": 1,
             "args": {"name": "simulator thread"}},
        ]
        for start, end, fid, depth in sorted(
            self.records, key=lambda r: (r[0], r[3])
        ):
            layer = self.layers[self._layer_of[fid]] if fid >= 0 else ROOT_LAYER
            events.append({
                "name": self.names[fid] if fid >= 0 else "window",
                "cat": layer,
                "ph": "X",
                "pid": 1,
                "tid": 1,
                "ts": (start - origin_ns) / 1000,
                "dur": (end - start) / 1000,
            })
        return {
            "traceEvents": events,
            "displayTimeUnit": "ns",
            "otherData": {"spans_kept": len(self.records), "max_spans": MAX_SPANS},
        }
