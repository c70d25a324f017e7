"""Tests for the simulated TCP transport: listeners, connects, probes."""

from __future__ import annotations

from typing import List, Optional

import pytest

from repro.errors import AddressInUseError, ConnectionClosedError
from repro.simnet import ProbeBehavior, ProbeResult, Simulator
from repro.simnet.transport import Socket

from .conftest import answer_with, make_addr


class Recorder:
    """A handler recording everything that happens to it."""

    def __init__(self, accept: bool = True):
        self.accept = accept
        self.messages: List = []
        self.disconnects: List[Socket] = []
        self.inbound: List[Socket] = []

    def on_inbound_connection(self, socket: Socket) -> bool:
        if not self.accept:
            return False
        self.inbound.append(socket)
        socket.handler = self
        return True

    def on_message(self, socket: Socket, message) -> None:
        self.messages.append((socket, message))

    def on_disconnect(self, socket: Socket) -> None:
        self.disconnects.append(socket)


def connect(sim, src, dst, handler) -> List[Optional[Socket]]:
    out: List[Optional[Socket]] = []
    sim.network.connect(src, dst, handler, out.append)
    sim.run_for(30.0)
    return out


class TestConnect:
    def test_successful_connect(self, sim):
        listener = Recorder()
        a, b = make_addr(1), make_addr(2)
        sim.network.listen(b, listener)
        client = Recorder()
        result = connect(sim, a, b, client)
        assert result[0] is not None
        assert result[0].is_inbound is False
        assert listener.inbound[0].is_inbound is True

    def test_connect_succeeds_fast(self, sim):
        listener = Recorder()
        a, b = make_addr(1), make_addr(2)
        sim.network.listen(b, listener)
        out = []
        sim.network.connect(a, b, Recorder(), out.append)
        sim.run_for(1.0)
        assert out and out[0] is not None  # ~1.5 RTT, far below 1 s

    def test_refused_when_listener_declines(self, sim):
        listener = Recorder(accept=False)
        a, b = make_addr(1), make_addr(2)
        sim.network.listen(b, listener)
        result = connect(sim, a, b, Recorder())
        assert result == [None]
        assert sim.network.connects_refused == 1

    def test_silent_target_times_out_slowly(self, sim):
        a, b = make_addr(1), make_addr(2)
        out = []
        sim.network.connect(a, b, Recorder(), out.append, timeout=5.0)
        sim.run_for(4.9)
        assert out == []  # still waiting
        sim.run_for(0.2)
        assert out == [None]
        assert sim.network.connects_timed_out == 1

    def test_rst_target_fails_fast(self, sim):
        a, b = make_addr(1), make_addr(2)
        answer_with(sim, b, ProbeBehavior.RST)
        out = []
        sim.network.connect(a, b, Recorder(), out.append, timeout=5.0)
        sim.run_for(1.0)
        assert out == [None]  # one RTT, not the timeout

    def test_fin_behaviour_also_fails_connect_fast(self, sim):
        a, b = make_addr(1), make_addr(2)
        answer_with(sim, b, ProbeBehavior.FIN)
        out = []
        sim.network.connect(a, b, Recorder(), out.append, timeout=5.0)
        sim.run_for(1.0)
        assert out == [None]

    def test_duplicate_listener_rejected(self, sim):
        addr = make_addr(3)
        sim.network.listen(addr, Recorder())
        with pytest.raises(AddressInUseError):
            sim.network.listen(addr, Recorder())

    def test_listener_vanishing_mid_handshake(self, sim):
        listener = Recorder()
        a, b = make_addr(1), make_addr(2)
        sim.network.listen(b, listener)
        out = []
        sim.network.connect(a, b, Recorder(), out.append)
        sim.network.stop_listening(b)  # before the handshake completes
        sim.run_for(30.0)
        assert out == [None]


class DummyMsg:
    def __init__(self, size=100, tag=""):
        self.wire_size = size
        self.tag = tag


class TestMessaging:
    def _pair(self, sim):
        listener = Recorder()
        client = Recorder()
        a, b = make_addr(1), make_addr(2)
        sim.network.listen(b, listener)
        sock = connect(sim, a, b, client)[0]
        return sock, listener, client

    def test_send_delivers(self, sim):
        sock, listener, _client = self._pair(sim)
        sock.send(DummyMsg(tag="hello"))
        sim.run_for(5.0)
        assert listener.messages[0][1].tag == "hello"

    def test_fifo_per_direction(self, sim):
        """Jitter must never reorder messages on one socket (TCP)."""
        sock, listener, _client = self._pair(sim)
        for index in range(50):
            sock.send(DummyMsg(tag=index))
        sim.run_for(10.0)
        tags = [msg.tag for _sock, msg in listener.messages]
        assert tags == sorted(tags)

    def test_reply_path(self, sim):
        sock, listener, client = self._pair(sim)
        sock.send(DummyMsg(tag="ping"))
        sim.run_for(5.0)
        in_sock = listener.inbound[0]
        in_sock.send(DummyMsg(tag="pong"))
        sim.run_for(5.0)
        assert client.messages[0][1].tag == "pong"

    def test_extra_delay_applies(self, sim):
        sock, listener, _client = self._pair(sim)
        start = sim.now
        sock.send(DummyMsg(tag="slow"), extra_delay=3.0)
        sim.run_for(10.0)
        assert listener.messages  # delivered
        # Can't observe delivery time directly; assert nothing arrived early.

    def test_send_on_closed_socket_raises(self, sim):
        sock, _listener, _client = self._pair(sim)
        sock.close()
        with pytest.raises(ConnectionClosedError):
            sock.send(DummyMsg())

    def test_close_notifies_peer(self, sim):
        sock, listener, _client = self._pair(sim)
        sock.close()
        sim.run_for(5.0)
        assert listener.disconnects == [listener.inbound[0]]

    def test_packets_to_closed_socket_dropped(self, sim):
        sock, listener, _client = self._pair(sim)
        in_sock = listener.inbound[0]
        sock.send(DummyMsg(tag="late"))
        in_sock.open = False
        sim.run_for(5.0)
        assert listener.messages == []

    def test_byte_accounting(self, sim):
        sock, _listener, _client = self._pair(sim)
        sock.send(DummyMsg(size=500))
        sock.send(DummyMsg(size=300))
        assert sock.bytes_sent == 800
        assert sock.messages_sent == 2


class TestDeadPairsUnlink:
    """A pair is cut when its second end closes, and only then: a dead
    pair left linked is a cycle that pins both handlers."""

    _pair = TestMessaging._pair

    def test_close_then_notify(self, sim):
        sock, listener, _client = self._pair(sim)
        in_sock = listener.inbound[0]
        sock.close()
        # Half-closed: the FIN is in flight and still needs the link.
        assert in_sock.open and sock._peer is in_sock and in_sock._peer is sock
        sim.run_for(5.0)
        assert listener.disconnects == [in_sock]
        assert sock._peer is None and in_sock._peer is None

    def test_simultaneous_close(self, sim):
        sock, listener, _client = self._pair(sim)
        in_sock = listener.inbound[0]
        sock.close()
        in_sock.close()
        assert sock._peer is None and in_sock._peer is None
        sim.run_for(5.0)  # the FIN already in flight finds a closed socket
        assert listener.disconnects == []

    def test_refused_connect(self, sim):
        seen = []

        class Refuser(Recorder):
            def on_inbound_connection(self, socket):
                seen.append((socket, socket._peer))
                return False

        b = make_addr(2)
        sim.network.listen(b, Refuser())
        assert connect(sim, make_addr(1), b, Recorder()) == [None]
        (in_sock, out_sock), = seen
        assert not in_sock.open and not out_sock.open
        assert in_sock._peer is None and out_sock._peer is None

    def test_round_trip_with_dead_and_half_closed_pairs(self):
        sim = Simulator(seed=1234)
        listener = Recorder()
        b = make_addr(2)
        sim.network.listen(b, listener)
        sim.register("listener", listener)
        dead, half = (
            connect(sim, make_addr(i + 10), b, Recorder())[0] for i in range(2)
        )
        dead.close()
        sim.run_for(5.0)
        half.close()

        restored = Simulator.restore(sim.snapshot())
        r_dead, r_half = restored.components["listener"].inbound
        assert not r_dead.open and r_dead._peer is None
        assert r_half.open and not r_half._peer.open
        assert r_half._peer._peer is r_half

        for world in (sim, restored):
            world.run_for(5.0)
            told = world.components["listener"]
            assert told.disconnects == told.inbound
            assert all(sock._peer is None for sock in told.inbound)
        assert restored.now == sim.now
        assert restored.scheduler.fired == sim.scheduler.fired


class TestDisconnectHost:
    def test_disconnect_host_closes_everything(self, sim):
        listener = Recorder()
        b = make_addr(2)
        sim.network.listen(b, listener)
        socks = [connect(sim, make_addr(i + 10), b, Recorder())[0] for i in range(3)]
        closed = sim.network.disconnect_host(b)
        assert closed == 3
        assert not sim.network.is_listening(b)
        sim.run_for(5.0)
        assert all(not sock.open for sock in socks)


class TestProbe:
    def test_probe_silent_default(self, sim):
        out = []
        sim.network.probe(make_addr(1), make_addr(2), out.append, timeout=5.0)
        sim.run_for(6.0)
        assert out == [ProbeResult.SILENT]

    def test_probe_fin(self, sim):
        target = make_addr(2)
        answer_with(sim, target, ProbeBehavior.FIN)
        out = []
        sim.network.probe(make_addr(1), target, out.append)
        sim.run_for(2.0)
        assert out == [ProbeResult.FIN]

    def test_probe_rst(self, sim):
        target = make_addr(2)
        answer_with(sim, target, ProbeBehavior.RST)
        out = []
        sim.network.probe(make_addr(1), target, out.append)
        sim.run_for(2.0)
        assert out == [ProbeResult.RST]

    def test_probe_listener_is_bitcoin(self, sim):
        target = make_addr(2)
        sim.network.listen(target, Recorder())
        out = []
        sim.network.probe(make_addr(1), target, out.append)
        sim.run_for(2.0)
        assert out == [ProbeResult.BITCOIN]

    def test_probe_behavior_reset_to_silent(self, sim):
        target = make_addr(2)
        endpoint = answer_with(sim, target, ProbeBehavior.FIN)
        endpoint.stop()
        assert sim.network.probe_behavior(target) is ProbeBehavior.SILENT
