"""Metrics registry unit tests: instruments, exports, snapshot consistency."""

import threading

import pytest

from repro.obs.metrics import MetricsRegistry


def test_instrument_handles_are_idempotent_by_name():
    registry = MetricsRegistry()
    counter = registry.counter("a.count", "help text")
    assert registry.counter("a.count") is counter
    gauge = registry.gauge("a.gauge")
    assert registry.gauge("a.gauge") is gauge
    histogram = registry.histogram("a.hist")
    assert registry.histogram("a.hist") is histogram


def test_kind_mismatch_raises_typeerror():
    registry = MetricsRegistry()
    registry.counter("x")
    with pytest.raises(TypeError):
        registry.gauge("x")
    with pytest.raises(TypeError):
        registry.histogram("x")


def test_counter_gauge_histogram_values():
    registry = MetricsRegistry()
    counter = registry.counter("c")
    counter.inc()
    counter.inc(2.5)
    assert counter.value == 3.5

    gauge = registry.gauge("g")
    gauge.set(10.0)
    gauge.inc(2.0)
    gauge.dec(5.0)
    assert gauge.value == 7.0

    histogram = registry.histogram("h", buckets=(1.0, 10.0))
    for value in (0.5, 2.0, 20.0):
        histogram.observe(value)
    assert histogram.count == 3
    assert histogram.sum == 22.5
    assert histogram.mean() == 7.5
    snap = histogram._snapshot()
    assert snap["min"] == 0.5 and snap["max"] == 20.0
    assert snap["buckets"] == {"1": 1, "10": 2, "+Inf": 3}


def test_prometheus_exposition_format():
    registry = MetricsRegistry()
    registry.counter("query.total", "Requests served").inc(3)
    registry.gauge("pool.size").set(4)
    registry.histogram("lat.seconds", buckets=(0.01, 1.0)).observe(0.5)
    text = registry.to_prometheus()
    assert "# HELP query_total Requests served" in text
    assert "# TYPE query_total counter" in text
    assert "query_total 3" in text
    assert "pool_size 4" in text
    assert 'lat_seconds_bucket{le="0.01"} 0' in text
    assert 'lat_seconds_bucket{le="1"} 1' in text
    assert 'lat_seconds_bucket{le="+Inf"} 1' in text
    assert "lat_seconds_sum 0.5" in text
    assert "lat_seconds_count 1" in text


def test_snapshot_never_observes_a_torn_histogram():
    """Concurrent observes vs snapshots: count, sum and buckets agree.

    Every observe adds exactly ``value=3.0`` and one bucket entry, so any
    snapshot in which ``sum != 3 * count`` or the +Inf cumulative bucket
    differs from ``count`` caught the histogram mid-update — which the
    shared registry mutex must make impossible.
    """
    registry = MetricsRegistry()
    histogram = registry.histogram("torn.check", buckets=(1.0, 10.0))
    stop = threading.Event()
    torn: list[dict] = []

    def writer():
        while not stop.is_set():
            histogram.observe(3.0)

    def reader():
        while not stop.is_set():
            snap = registry.snapshot()["instruments"]["torn.check"]
            if (
                snap["sum"] != 3.0 * snap["count"]
                or snap["buckets"]["+Inf"] != snap["count"]
            ):
                torn.append(snap)

    threads = [threading.Thread(target=writer) for _ in range(2)] + [
        threading.Thread(target=reader) for _ in range(2)
    ]
    for thread in threads:
        thread.start()
    timer = threading.Timer(0.5, stop.set)
    timer.start()
    for thread in threads:
        thread.join()
    timer.cancel()
    assert not torn, f"snapshot saw torn histogram state: {torn[:3]}"
    assert histogram.count > 0


# ---------------------------------------------------------------------------
# Quantiles (linear interpolation inside cumulative buckets)
# ---------------------------------------------------------------------------


def test_quantile_uniform_distribution_is_exact_at_bucket_edges():
    """1..100 uniform into decade-wide buckets: edge-aligned ranks are exact
    and interior ranks interpolate linearly inside their bucket."""
    registry = MetricsRegistry()
    histogram = registry.histogram(
        "q.uniform", buckets=tuple(float(b) for b in range(10, 101, 10))
    )
    for value in range(1, 101):
        histogram.observe(float(value))
    assert histogram.quantile(0.5) == pytest.approx(50.0)
    assert histogram.quantile(0.9) == pytest.approx(90.0)
    # rank 95 falls halfway through the (90, 100] bucket
    assert histogram.quantile(0.95) == pytest.approx(95.0)
    # extremes clamp to the observed range
    assert histogram.quantile(0.0) == pytest.approx(1.0)
    assert histogram.quantile(1.0) == pytest.approx(100.0)


def test_quantile_skewed_distribution_lands_in_the_right_bucket():
    """90 fast observations and 10 slow ones: p50 stays in the fast bucket,
    p99 lands inside the slow bucket."""
    registry = MetricsRegistry()
    histogram = registry.histogram("q.skewed", buckets=(0.01, 0.1, 1.0, 10.0))
    for _ in range(90):
        histogram.observe(0.005)
    for _ in range(10):
        histogram.observe(5.0)
    p50 = histogram.quantile(0.5)
    assert p50 is not None and p50 <= 0.01
    p99 = histogram.quantile(0.99)
    assert p99 is not None and 1.0 < p99 <= 5.0  # clamped by the observed max


def test_quantile_unobserved_and_invalid_inputs():
    registry = MetricsRegistry()
    histogram = registry.histogram("q.empty")
    assert histogram.quantile(0.5) is None
    with pytest.raises(ValueError):
        histogram.quantile(1.5)
    with pytest.raises(ValueError):
        histogram.quantile(-0.1)


def test_snapshot_carries_a_quantiles_block():
    registry = MetricsRegistry()
    histogram = registry.histogram("q.snap", buckets=(1.0, 10.0))
    snap = registry.snapshot()["instruments"]["q.snap"]
    assert snap["quantiles"] == {"p50": None, "p90": None, "p95": None, "p99": None}
    for value in (0.5, 2.0, 3.0, 8.0):
        histogram.observe(value)
    snap = registry.snapshot()["instruments"]["q.snap"]
    quantiles = snap["quantiles"]
    assert set(quantiles) == {"p50", "p90", "p95", "p99"}
    assert 0.5 <= quantiles["p50"] <= quantiles["p95"] <= quantiles["p99"] <= 8.0
    # the JSON export inherits the block
    import json

    exported = json.loads(registry.to_json())
    assert "quantiles" in exported["instruments"]["q.snap"]
