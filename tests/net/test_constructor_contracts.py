"""What the data plane's record constructors accept, coerce and reject.

``Datagram``, ``NCHeader`` and ``CodedPacket`` are built once per
packet-hop, so their constructors are kept lean; these cases pin the
contract they keep while doing so — every path that builds a datagram
charges the same wire size, every input rejected is rejected with the
same exception, and every input coerced lands as a 1-D ``uint8`` array.
"""

import numpy as np
import pytest

from repro.net import Topology
from repro.net.impairments import _copy_with_payload
from repro.net.packet import Datagram
from repro.rlnc.header import NCHeader
from repro.rlnc.packet import CodedPacket


def _sent_through_node(payload_bytes):
    topo = Topology()
    topo.add_node("a")
    topo.add_node("b")
    topo.add_duplex("a", "b", capacity_mbps=10.0, delay_ms=1.0)
    delivered = []
    topo.get("b").listen(7, delivered.append)
    topo.get("a").send("b", "x", payload_bytes, dst_port=7)
    topo.run()
    [dgram] = delivered
    return dgram


def _direct(payload_bytes):
    return Datagram("a", "b", None, payload_bytes)


def _impairment_copy(payload_bytes):
    return _copy_with_payload(Datagram("a", "b", None, payload_bytes, dst_port=3, src_port=4), "copy")


class TestDatagram:
    @pytest.mark.parametrize("build", [_sent_through_node, _direct, _impairment_copy])
    @pytest.mark.parametrize("payload_bytes", [0, 1, 1472])
    def test_wire_size_is_payload_plus_udp_ip_on_every_path(self, build, payload_bytes):
        dgram = build(payload_bytes)
        assert dgram.payload_bytes == payload_bytes
        assert dgram.wire_bytes == payload_bytes + 28
        assert dgram.wire_bits == 8 * (payload_bytes + 28)

    def test_copy_keeps_the_flow(self):
        original = Datagram("a", "b", "p", 100, dst_port=3, src_port=4, created_at=1.5)
        copy = _copy_with_payload(original, "q")
        assert copy is not original and copy.payload == "q"
        assert (copy.src, copy.dst, copy.dst_port, copy.src_port, copy.created_at) == ("a", "b", 3, 4, 1.5)

    def test_rejects_negative_payload_directly(self):
        with pytest.raises(ValueError):
            Datagram("a", "b", None, -1)
        with pytest.raises(ValueError):
            Datagram(src="a", dst="b", payload=None, payload_bytes=-1)

    def test_rejects_negative_payload_through_node_send(self):
        topo = Topology()
        topo.add_node("a")
        topo.add_node("b")
        topo.add_duplex("a", "b", capacity_mbps=10.0, delay_ms=1.0)
        with pytest.raises(ValueError):
            topo.get("a").send("b", "x", -1)
        # A bad size is refused before the route is looked up.
        with pytest.raises(ValueError):
            topo.get("a").send("nowhere", "x", -1)
        with pytest.raises(KeyError):
            topo.get("a").send("nowhere", "x", 1)


COEFFS = np.array([1, 2, 3, 4], dtype=np.uint8)


class TestNCHeader:
    @pytest.mark.parametrize("session_id", [-1, 1 << 16, 1 << 20])
    def test_rejects_session_id_outside_16_bits(self, session_id):
        with pytest.raises(ValueError):
            NCHeader(session_id, 0, COEFFS)

    @pytest.mark.parametrize("generation_id", [-1, 1 << 32])
    def test_rejects_generation_id_outside_32_bits(self, generation_id):
        with pytest.raises(ValueError):
            NCHeader(0, generation_id, COEFFS)

    @pytest.mark.parametrize("k", [0, 256])
    def test_rejects_block_count_outside_1_to_255(self, k):
        with pytest.raises(ValueError):
            NCHeader(0, 0, np.zeros(k, dtype=np.uint8))

    @pytest.mark.parametrize(
        "coefficients", [np.zeros((2, 2), dtype=np.uint8), [[1, 2], [3, 4]], np.uint8(5), 7]
    )
    def test_rejects_coefficients_that_are_not_one_dimensional(self, coefficients):
        with pytest.raises(ValueError):
            NCHeader(0, 0, coefficients)

    def test_accepts_the_range_edges(self):
        header = NCHeader((1 << 16) - 1, (1 << 32) - 1, np.ones(255, dtype=np.uint8))
        assert header.block_count == 255 and header.size_bytes == 12 + 255
        assert NCHeader(0, 0, [9]).block_count == 1

    @pytest.mark.parametrize(
        "coefficients", [[1, 2, 3, 4], (1, 2, 3, 4), np.array([1, 2, 3, 4], dtype=np.int64), np.array([1.0, 2, 3, 4])]
    )
    def test_coerces_to_uint8(self, coefficients):
        header = NCHeader(1, 2, coefficients, systematic=True)
        assert type(header.coefficients) is np.ndarray and header.coefficients.dtype == np.uint8
        assert header.coefficients.tolist() == [1, 2, 3, 4]
        assert header == NCHeader(1, 2, COEFFS, True)

    def test_keeps_a_uint8_vector_as_given(self):
        assert NCHeader(1, 2, COEFFS).coefficients is COEFFS

    def test_keyword_construction(self):
        header = NCHeader(session_id=1, generation_id=2, coefficients=COEFFS, systematic=False)
        assert (header.session_id, header.generation_id, header.systematic) == (1, 2, False)


class TestCodedPacket:
    @pytest.mark.parametrize("payload", [np.zeros((2, 3), dtype=np.uint8), [[1, 2], [3, 4]], np.uint8(1)])
    def test_rejects_payload_that_is_not_one_dimensional(self, payload):
        with pytest.raises(ValueError):
            CodedPacket(NCHeader(1, 2, COEFFS), payload)

    @pytest.mark.parametrize(
        "payload", [[5, 6, 7], np.array([5, 6, 7], dtype=np.int64), np.array([5, 6, 7], dtype=np.uint16)]
    )
    def test_coerces_to_uint8(self, payload):
        packet = CodedPacket(NCHeader(1, 2, COEFFS), payload)
        assert type(packet.payload) is np.ndarray and packet.payload.dtype == np.uint8
        assert packet.payload.tolist() == [5, 6, 7]
        assert packet.checksum is None and packet.size_bytes == 16 + 3

    def test_keeps_a_uint8_payload_as_given(self):
        payload = np.array([5, 6, 7], dtype=np.uint8)
        assert CodedPacket(NCHeader(1, 2, COEFFS), payload).payload is payload

    def test_keyword_construction_and_seal(self):
        packet = CodedPacket(header=NCHeader(1, 2, COEFFS), payload=np.arange(3, dtype=np.uint8), checksum=None)
        assert packet.verify() and packet.seal().verify()
        assert CodedPacket.decode(packet.encode()) == packet
