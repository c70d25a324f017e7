"""Property-based tests of the transport layer (hypothesis)."""

from __future__ import annotations

from typing import List

from hypothesis import given, settings, strategies as st

from repro.simnet import LatencyConfig, NetAddr, Simulator

from .conftest import answer_with, make_addr


class _Sink:
    def __init__(self):
        self.received: List = []

    def on_inbound_connection(self, socket) -> bool:
        socket.handler = self
        return True

    def on_message(self, socket, message) -> None:
        self.received.append(message.tag)

    def on_disconnect(self, socket) -> None:
        pass


class _Msg:
    def __init__(self, tag, size):
        self.tag = tag
        self.wire_size = size


def _connected_socket(sim, listener):
    out = []
    sim.network.connect(make_addr(1), make_addr(2), _Sink(), out.append)
    sim.run_for(10.0)
    return out[0]


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    sizes=st.lists(st.integers(min_value=24, max_value=100_000), min_size=1, max_size=40),
    gaps=st.lists(st.floats(min_value=0.0, max_value=0.5), min_size=1, max_size=40),
)
def test_fifo_delivery_under_any_jitter(seed, sizes, gaps):
    """No send may overtake an earlier send on the same socket."""
    sim = Simulator(seed=seed, latency_config=LatencyConfig(jitter=0.5))
    listener = _Sink()
    sim.network.listen(make_addr(2), listener)
    sock = _connected_socket(sim, listener)
    for index, size in enumerate(sizes):
        gap = gaps[index % len(gaps)]
        sim.run_for(gap)
        sock.send(_Msg(index, size))
    sim.run_for(60.0)
    assert listener.received == sorted(listener.received)
    assert len(listener.received) == len(sizes)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    extra_delays=st.lists(
        st.floats(min_value=0.0, max_value=5.0), min_size=1, max_size=20
    ),
)
def test_fifo_holds_with_extra_delays(seed, extra_delays):
    """Sender-side serialization delays must not reorder either."""
    sim = Simulator(seed=seed)
    listener = _Sink()
    sim.network.listen(make_addr(2), listener)
    sock = _connected_socket(sim, listener)
    for index, delay in enumerate(extra_delays):
        sock.send(_Msg(index, 100), extra_delay=delay)
    sim.run_for(120.0)
    assert listener.received == sorted(listener.received)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_every_connect_resolves_exactly_once(seed):
    """on_result fires exactly once per attempt, whatever the target."""
    from repro.simnet import ProbeBehavior

    sim = Simulator(seed=seed)
    listener = _Sink()
    sim.network.listen(make_addr(2), listener)
    answer_with(sim, make_addr(3), ProbeBehavior.RST)
    answer_with(sim, make_addr(4), ProbeBehavior.FIN)
    results: List = []
    for target_index in (2, 3, 4, 5):  # listener, RST, FIN, silent
        sim.network.connect(
            make_addr(1),
            make_addr(target_index),
            _Sink(),
            results.append,
            timeout=5.0,
        )
    sim.run_for(30.0)
    assert len(results) == 4
    successes = [sock for sock in results if sock is not None]
    assert len(successes) == 1  # only the listener accepts

    counters = sim.network
    assert counters.connects_attempted == 4
    assert counters.connects_succeeded == 1
    assert counters.connects_refused + counters.connects_timed_out == 3


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    group_a=st.integers(min_value=1, max_value=5000),
    group_b=st.integers(min_value=1, max_value=5000),
)
def test_latency_symmetry_and_bounds(seed, group_a, group_b):
    sim = Simulator(seed=seed)
    a = NetAddr(ip=(group_a << 16) | 1)
    b = NetAddr(ip=(group_b << 16) | 1)
    model = sim.network.latency
    config = model.config
    forward = model.base_latency(a, b)
    backward = model.base_latency(b, a)
    assert forward == backward
    if group_a == group_b:
        assert forward == config.local_latency
    else:
        assert config.min_latency <= forward <= config.max_latency
