"""Session model and control-signal protocol tests."""

import pytest

from repro.core import (
    CodingConfig,
    MulticastSession,
    NcForwardTab,
    NcSettings,
    NcStart,
    NcVnfEnd,
    NcVnfStart,
    SignalBus,
    signals,
)
from repro.rlnc.redundancy import RedundancyPolicy


class TestCodingConfig:
    def test_paper_defaults(self):
        config = CodingConfig()
        assert config.block_bytes == 1460
        assert config.blocks_per_generation == 4
        assert config.buffer_generations == 1024
        assert config.generation_bytes == 5840

    def test_redundancy_flows_through(self):
        config = CodingConfig(redundancy=RedundancyPolicy(2))
        assert config.packets_per_generation() == 6

    def test_validation(self):
        with pytest.raises(ValueError):
            CodingConfig(block_bytes=0)
        with pytest.raises(ValueError):
            CodingConfig(blocks_per_generation=300)
        with pytest.raises(ValueError):
            CodingConfig(buffer_generations=0)

    def test_field_selection(self):
        from repro.gf import GF16, GF256

        assert CodingConfig().galois_field == GF256
        assert CodingConfig(field_order=16).galois_field == GF16


class TestSession:
    def test_unique_ids(self):
        s1 = MulticastSession(source="a", receivers=["b"])
        s2 = MulticastSession(source="a", receivers=["b"])
        assert s1.session_id != s2.session_id

    def test_unicast_special_case(self):
        assert MulticastSession(source="a", receivers=["b"]).is_unicast
        assert not MulticastSession(source="a", receivers=["b", "c"]).is_unicast

    def test_validation(self):
        with pytest.raises(ValueError):
            MulticastSession(source="a", receivers=[])
        with pytest.raises(ValueError):
            MulticastSession(source="a", receivers=["a"])
        with pytest.raises(ValueError):
            MulticastSession(source="a", receivers=["b", "b"])
        with pytest.raises(ValueError):
            MulticastSession(source="a", receivers=["b"], max_delay_ms=0)

    def test_receiver_churn(self):
        s = MulticastSession(source="a", receivers=["b"])
        s.add_receiver("c")
        assert s.receivers == ["b", "c"]
        s.remove_receiver("b")
        assert s.receivers == ["c"]
        with pytest.raises(ValueError):
            s.remove_receiver("c")  # would empty the session
        with pytest.raises(ValueError):
            s.add_receiver("c")  # duplicate
        with pytest.raises(ValueError):
            s.add_receiver("a")  # source


class TestSignalBus:
    def test_delivery_with_latency(self, scheduler):
        bus = SignalBus(scheduler, latency_s=0.05)
        got = []
        bus.register("daemon1", got.append)
        bus.send(NcStart(target="daemon1", session_id=3))
        scheduler.run(until=0.01)
        assert got == []  # not yet delivered
        scheduler.run(until=0.1)
        assert len(got) == 1
        assert got[0].session_id == 3

    def test_unknown_target_is_recorded_undeliverable(self, scheduler):
        # A signal to a node with no daemon used to "succeed" silently;
        # it must now be retried and then land on the undeliverable log.
        bus = SignalBus(scheduler)
        record = bus.send(NcStart(target="ghost"))
        scheduler.run()
        assert record.delivered_at is None
        assert record.status == "undeliverable"
        assert record.attempts == bus.max_retries + 1
        assert list(bus.undeliverable) == [record] and bus.undeliverable_count == 1

    def test_retry_reaches_late_registration(self, scheduler):
        # A daemon that comes back mid-retry still gets the signal.
        bus = SignalBus(scheduler, latency_s=0.05, retry_interval_s=0.2)
        record = bus.send(NcStart(target="late", session_id=9))
        got = []
        scheduler.run(until=0.1)  # first attempt already failed
        bus.register("late", got.append)
        scheduler.run()
        assert [s.session_id for s in got] == [9]
        assert record.status == "delivered"
        assert not bus.undeliverable and bus.undeliverable_count == 0

    def test_recorders_keep_the_newest_and_the_counters_keep_count(self, scheduler, monkeypatch):
        monkeypatch.setattr(signals, "KEPT_RECORDS", 4)
        bus = SignalBus(scheduler, max_retries=0)
        records = [bus.send(NcStart(target="ghost", session_id=i)) for i in range(10)]
        scheduler.run()
        assert list(bus.log) == list(bus.undeliverable) == records[-4:]
        assert (bus.sent_count, bus.undeliverable_count, bus.dropped_count) == (10, 10, 0)
        assert bus.sent_of_kind("NcStart") == records[-4:]  # a filter over what is kept

    def test_log_and_kind_filter(self, scheduler):
        bus = SignalBus(scheduler)
        bus.send(NcVnfStart(target="controller", datacenter="oregon", count=2))
        bus.send(NcVnfEnd(target="d", vnf_name="vm-1"))
        bus.send(NcVnfStart(target="controller", datacenter="texas", count=1))
        assert len(bus.sent_of_kind("NcVnfStart")) == 2
        assert len(bus.sent_of_kind("NcVnfEnd")) == 1

    def test_duplicate_registration_rejected(self, scheduler):
        bus = SignalBus(scheduler)
        bus.register("d", lambda s: None)
        with pytest.raises(ValueError):
            bus.register("d", lambda s: None)

    def test_unregister(self, scheduler):
        bus = SignalBus(scheduler)
        got = []
        bus.register("d", got.append)
        bus.unregister("d")
        bus.send(NcStart(target="d"))
        scheduler.run()
        assert got == []

    def test_signal_kinds(self):
        assert NcForwardTab(target="d", table_text="").kind == "NcForwardTab"
        assert NcSettings(target="d").kind == "NcSettings"
