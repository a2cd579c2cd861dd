"""OS3E topology: structure, latency weights, and simulator export."""

from __future__ import annotations

import math

import networkx as nx
import pytest

from repro.net.topology import (
    OS3E_SITES,
    OS3E_SPANS,
    great_circle_km,
    os3e_graph,
    os3e_latency_ms,
    os3e_span_delay_ms,
)


class TestOs3eStructure:
    def test_node_count(self):
        assert len(OS3E_SITES) == 34

    def test_span_count(self):
        assert len(OS3E_SPANS) == 42

    def test_spans_reference_known_sites(self):
        for a, b in OS3E_SPANS:
            assert a in OS3E_SITES
            assert b in OS3E_SITES
            assert a != b

    def test_no_duplicate_spans(self):
        keys = {frozenset(span) for span in OS3E_SPANS}
        assert len(keys) == len(OS3E_SPANS)

    def test_graph_is_duplex(self):
        g = os3e_graph()
        assert g.number_of_nodes() == 34
        assert g.number_of_edges() == 84
        for a, b in OS3E_SPANS:
            assert g.has_edge(a, b)
            assert g.has_edge(b, a)

    def test_graph_connected(self):
        g = os3e_graph()
        assert nx.is_strongly_connected(g)

    def test_every_site_has_a_span(self):
        touched = {c for span in OS3E_SPANS for c in span}
        assert touched == set(OS3E_SITES)


class TestOs3eLatencies:
    def test_great_circle_known_distance(self):
        # NYC <-> LA is ~3940 km great-circle.
        km = great_circle_km(OS3E_SITES["New York"], OS3E_SITES["Los Angeles"])
        assert 3800 < km < 4100

    def test_span_delays_symmetric_and_positive(self):
        g = os3e_graph()
        for a, b in OS3E_SPANS:
            d_ab = g.edges[a, b]["delay_ms"]
            d_ba = g.edges[b, a]["delay_ms"]
            assert d_ab == d_ba
            assert d_ab > 0

    def test_span_delays_plausible(self):
        # No single OS3E span is longer than ~2500 km (=12.5 ms at
        # fiber speed); the shortest (Philly-NYC class) is > 0.2 ms.
        for a, b in OS3E_SPANS:
            delay = os3e_span_delay_ms(a, b)
            assert 0.2 < delay < 13.0, (a, b, delay)

    def test_coast_to_coast_latency(self):
        lat = os3e_latency_ms()
        # Seattle -> Miami rides many hops; one-way propagation should
        # land in the tens of milliseconds, well under a geo satellite.
        d = lat["Seattle"]["Miami"]
        assert 20.0 < d < 60.0

    def test_latency_matrix_symmetric_zero_diagonal(self):
        lat = os3e_latency_ms()
        cities = list(OS3E_SITES)
        for c in cities:
            assert lat[c][c] == 0
        for a, b in [("Boston", "Denver"), ("Miami", "Vancouver"), ("Chicago", "Houston")]:
            assert math.isclose(lat[a][b], lat[b][a], rel_tol=1e-12)

    def test_triangle_inequality_on_shortest_paths(self):
        lat = os3e_latency_ms()
        a, b, c = "Chicago", "Denver", "Houston"
        assert lat[a][c] <= lat[a][b] + lat[b][c] + 1e-9


class TestOs3eSimulatorExport:
    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            os3e_graph(capacity_mbps=0.0)
