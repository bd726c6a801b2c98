"""Metrics registry: instrument semantics and both export formats."""

from __future__ import annotations

import json

import pytest

from repro.obs import Counter, Gauge, Histogram, MetricsRegistry


class TestInstruments:
    def test_counter_monotone(self):
        counter = Counter()
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5
        with pytest.raises(ValueError, match="only go up"):
            counter.inc(-1)

    def test_gauge_both_ways(self):
        gauge = Gauge()
        gauge.set(10)
        gauge.inc(5)
        gauge.dec(2)
        assert gauge.value == 13.0

    def test_histogram_buckets_are_per_bucket_not_cumulative(self):
        hist = Histogram(buckets=(1.0, 2.0, 4.0))
        for value in (0.5, 1.5, 1.6, 3.0, 100.0):
            hist.observe(value)
        # Internal storage is one bucket per observation; the +Inf-only
        # observation (100.0) lands in no finite bucket.
        assert hist.bucket_counts == [1, 2, 1]
        assert hist.count == 5
        assert hist.sum == pytest.approx(106.6)

    def test_histogram_rejects_bad_buckets(self):
        with pytest.raises(ValueError):
            Histogram(buckets=())
        with pytest.raises(ValueError):
            Histogram(buckets=(2.0, 1.0))
        with pytest.raises(ValueError):
            Histogram(buckets=(1.0, float("inf")))


class TestRegistry:
    def test_get_or_create_identity(self):
        registry = MetricsRegistry()
        a = registry.counter("requests_total")
        b = registry.counter("requests_total")
        assert a is b

    def test_labels_are_distinct_series(self):
        registry = MetricsRegistry()
        ok = registry.counter("responses", labels={"status": "ok"})
        rejected = registry.counter("responses", labels={"status": "rejected"})
        assert ok is not rejected
        ok.inc(3)
        rejected.inc()
        series = registry.to_dict()["responses"]["series"]
        assert {tuple(s["labels"].items()): s["value"] for s in series} == {
            (("status", "ok"),): 3.0,
            (("status", "rejected"),): 1.0,
        }

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("depth")
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("depth")

    def test_invalid_name_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError, match="invalid metric name"):
            registry.counter("bad-name")

    def test_prometheus_histogram_is_cumulative(self):
        registry = MetricsRegistry()
        hist = registry.histogram(
            "phase_seconds", help="per-phase", buckets=(1.0, 2.0, 4.0)
        )
        for value in (0.5, 1.5, 1.6, 3.0, 100.0):
            hist.observe(value)
        text = registry.to_prometheus()
        assert 'phase_seconds_bucket{le="1"} 1' in text
        assert 'phase_seconds_bucket{le="2"} 3' in text
        assert 'phase_seconds_bucket{le="4"} 4' in text
        assert 'phase_seconds_bucket{le="+Inf"} 5' in text
        assert "phase_seconds_count 5" in text
        assert "# HELP phase_seconds per-phase" in text
        assert "# TYPE phase_seconds histogram" in text

    def test_prometheus_labelled_counter(self):
        registry = MetricsRegistry()
        registry.counter("reqs", labels={"kind": "quote"}).inc(7)
        assert 'reqs{kind="quote"} 7' in registry.to_prometheus()

    def test_json_round_trips(self):
        registry = MetricsRegistry()
        registry.gauge("queue_depth", help="queued").set(4)
        data = json.loads(registry.to_json())
        assert data["queue_depth"]["kind"] == "gauge"
        assert data["queue_depth"]["series"][0]["value"] == 4.0

    def test_save_prom_vs_json(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("total").inc()
        prom = registry.save(tmp_path / "metrics.prom")
        js = registry.save(tmp_path / "metrics.json")
        assert prom.read_text().startswith("# TYPE total counter")
        assert json.loads(js.read_text())["total"]["kind"] == "counter"

    def test_clear(self):
        registry = MetricsRegistry()
        registry.counter("x").inc()
        registry.clear()
        assert registry.to_dict() == {}


class TestPrometheusEscaping:
    """Label values are client-controlled (tenant names reach the
    exposition verbatim), so the writer must escape per the text-format
    spec: backslash, double quote, and newline in label values;
    backslash and newline in HELP text."""

    def test_hostile_tenant_label_round_trips(self):
        registry = MetricsRegistry()
        hostile = 'acme"corp\\prod\nstaging'
        registry.counter(
            "serve_tenant_admitted_total", labels={"tenant": hostile}
        ).inc(3)
        text = registry.to_prometheus()
        expected = (
            'serve_tenant_admitted_total'
            '{tenant="acme\\"corp\\\\prod\\nstaging"} 3'
        )
        assert expected in text
        # One line per sample survives: the raw newline never splits it.
        sample_lines = [
            line for line in text.splitlines()
            if line.startswith("serve_tenant_admitted_total{")
        ]
        assert len(sample_lines) == 1

    def test_backslash_escaped_before_quote(self):
        # Escaping the quote first would double-escape: \" -> \\".
        registry = MetricsRegistry()
        registry.gauge("g", labels={"t": '\\"'}).set(1)
        assert 'g{t="\\\\\\""} 1' in registry.to_prometheus()

    def test_help_text_escapes_newline_and_backslash(self):
        registry = MetricsRegistry()
        registry.counter("c", help="line one\nline \\ two").inc()
        text = registry.to_prometheus()
        assert "# HELP c line one\\nline \\\\ two" in text
        assert text.count("# HELP c ") == 1

    def test_plain_labels_unchanged(self):
        registry = MetricsRegistry()
        registry.counter("reqs", labels={"kind": "quote"}).inc(2)
        assert 'reqs{kind="quote"} 2' in registry.to_prometheus()

    def test_multiple_labels_sorted_and_escaped_independently(self):
        registry = MetricsRegistry()
        registry.counter(
            "c", labels={"b": 'x"y', "a": "plain"}
        ).inc()
        text = registry.to_prometheus()
        assert 'c{a="plain",b="x\\"y"} 1' in text
