"""The per-client token bucket: refill math and the 429 ``rate_limited`` path.

The limiter unit tests drive an injectable clock, so refill behaviour under
burst is asserted exactly (no sleeps).  The service-level test floods one
client through a live service with a tiny bucket and checks that rejections
use the *dedicated* stable code -- ``rate_limited`` must stay
distinguishable from the fairness gate's ``overloaded``.
"""

import pytest

from repro.config import ConfigError, ServiceConfig
from repro.service.client import ServiceClient, ServiceError
from repro.service.ratelimit import TokenBucketLimiter
from repro.service.server import serve_in_thread


class FakeClock:
    """A manually advanced monotonic clock."""

    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class TestTokenBucket:
    def test_full_bucket_admits_exactly_burst_then_rejects(self):
        clock = FakeClock()
        limiter = TokenBucketLimiter(rate=1.0, burst=3, clock=clock)
        assert [limiter.try_acquire("c") for _ in range(4)] == [
            True,
            True,
            True,
            False,
        ]
        assert limiter.rejections("c") == 1

    def test_refill_is_proportional_to_elapsed_time(self):
        clock = FakeClock()
        limiter = TokenBucketLimiter(rate=2.0, burst=4, clock=clock)
        for _ in range(4):
            assert limiter.try_acquire("c")
        assert not limiter.try_acquire("c")
        # 0.5 s at 2 tokens/s refills exactly one token: one admit, no more.
        clock.advance(0.5)
        assert limiter.try_acquire("c")
        assert not limiter.try_acquire("c")

    def test_refill_caps_at_burst(self):
        clock = FakeClock()
        limiter = TokenBucketLimiter(rate=10.0, burst=2, clock=clock)
        assert limiter.try_acquire("c")
        # An hour idle must not bank 36000 tokens: the bucket holds `burst`.
        clock.advance(3600.0)
        assert limiter.try_acquire("c")
        assert limiter.try_acquire("c")
        assert not limiter.try_acquire("c")

    def test_fractional_tokens_accumulate(self):
        clock = FakeClock()
        limiter = TokenBucketLimiter(rate=1.0, burst=1, clock=clock)
        assert limiter.try_acquire("c")
        clock.advance(0.4)
        assert not limiter.try_acquire("c")
        clock.advance(0.4)
        assert not limiter.try_acquire("c")
        clock.advance(0.3)  # 1.1 s total elapsed: one full token again
        assert limiter.try_acquire("c")

    def test_clients_have_independent_buckets(self):
        clock = FakeClock()
        limiter = TokenBucketLimiter(rate=1.0, burst=1, clock=clock)
        assert limiter.try_acquire("alpha")
        assert not limiter.try_acquire("alpha")
        assert limiter.try_acquire("beta")

    def test_snapshot_shape(self):
        clock = FakeClock()
        limiter = TokenBucketLimiter(rate=5.0, burst=2, clock=clock)
        limiter.try_acquire("c")
        snap = limiter.snapshot()
        assert snap["rate"] == 5.0
        assert snap["burst"] == 2
        assert snap["clients"]["c"]["tokens"] == pytest.approx(1.0)
        assert snap["clients"]["c"]["rejections"] == 0

    @pytest.mark.parametrize(
        "kwargs",
        [{"rate": 0, "burst": 1}, {"rate": -1, "burst": 1}, {"rate": 1, "burst": 0}],
    )
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(ValueError):
            TokenBucketLimiter(**kwargs)


class TestConfigPlumbing:
    def test_burst_defaults_to_about_one_second_of_rate(self):
        config = ServiceConfig(requests_per_second=2.5)
        assert config.resolved_burst() == 3

    def test_explicit_burst_wins(self):
        config = ServiceConfig(requests_per_second=2.5, burst=10)
        assert config.resolved_burst() == 10

    def test_no_rate_means_no_bucket(self):
        assert ServiceConfig().resolved_burst() is None

    def test_rate_must_be_positive(self):
        with pytest.raises(ConfigError):
            ServiceConfig(requests_per_second=0)

    def test_burst_must_be_positive(self):
        with pytest.raises(ConfigError):
            ServiceConfig(requests_per_second=1, burst=0)


class TestServiceRateLimiting:
    def test_flood_past_the_bucket_gets_429_rate_limited(self):
        config = ServiceConfig(
            port=0,
            universe="ABC",
            requests_per_second=0.001,  # effectively no refill mid-test
            burst=3,
        )
        with serve_in_thread(config=config) as handle:
            host, port = handle.address
            statuses = []
            with ServiceClient(host, port, client_id="flooder") as client:
                for _ in range(6):
                    try:
                        client.solve(["A -> B"], "A -> C")
                        statuses.append(200)
                    except ServiceError as exc:
                        statuses.append(exc.status)
                        assert exc.code == "rate_limited"
            assert statuses.count(200) == 3
            assert statuses.count(429) == 3
            # A different client has its own untouched bucket.
            with ServiceClient(host, port, client_id="bystander") as other:
                assert other.solve(["A -> B"], "A -> B")["verdict"] == "implied"
            with ServiceClient(host, port, client_id="probe") as probe:
                payload = probe.metrics()
            bucket = payload["ratelimit"]["clients"]["flooder"]
            assert bucket["rejections"] == 3
