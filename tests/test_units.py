"""Rate, duration and address parsing: suffixes, plain numbers, and what is refused."""

import math

import pytest

from linerate.units import format_rate, parse_address, parse_rate, parse_time_ms


class TestParseRate:
    @pytest.mark.parametrize("text, bps", [
        ("200mbps", 200e6),
        ("1.5gbps", 1.5e9),
        (" 2 Tbps ", 2e12),
        ("64kbps", 64e3),
        ("9600bps", 9600.0),
        ("1e6", 1e6),
        (5e6, 5e6),
        (7, 7.0),
    ])
    def test_suffixes_and_plain_numbers(self, text, bps):
        assert parse_rate(text) == bps

    @pytest.mark.parametrize("text", ["0mbps", "-5mbps", 0, -1.0, "mbps", "fast"])
    def test_non_positive_or_garbage_refused(self, text):
        with pytest.raises(ValueError):
            parse_rate(text)

    @pytest.mark.parametrize("text", [
        "nanmbps", "nan", "infgbps", "inf", "1e308gbps",
        pytest.param(math.nan, id="float-nan"), pytest.param(math.inf, id="float-inf"),
    ])
    def test_non_finite_refused(self, text):
        with pytest.raises(ValueError, match="rate must be positive"):
            parse_rate(text)


class TestParseTimeMs:
    @pytest.mark.parametrize("text, ms", [
        ("20ms", 20.0),
        ("1.5s", 1500.0),
        ("2m", 120_000.0),
        ("35", 35.0),
        (12.5, 12.5),
    ])
    def test_suffixes_and_plain_numbers(self, text, ms):
        assert parse_time_ms(text) == ms

    @pytest.mark.parametrize("text", ["0ms", "-1s", 0, "soon"])
    def test_non_positive_or_garbage_refused(self, text):
        with pytest.raises(ValueError):
            parse_time_ms(text)

    @pytest.mark.parametrize("text", [
        "inf", "infms", "nans", "1e400ms",
        pytest.param(math.nan, id="float-nan"), pytest.param(math.inf, id="float-inf"),
    ])
    def test_non_finite_refused(self, text):
        with pytest.raises(ValueError, match="duration must be positive"):
            parse_time_ms(text)


class TestParseAddress:
    @pytest.mark.parametrize("text, address", [
        ("simulated:0", ("simulated", 0)),
        ("h:65535", ("h", 65535)),
        ("::1:7777", ("::1", 7777)),
        ("127.0.0.1:7777", ("127.0.0.1", 7777)),
        ("[::1]:7777", ("::1", 7777)),
        ("[fe80::1%eth0]:80", ("fe80::1%eth0", 80)),
    ])
    def test_host_and_port_in_range(self, text, address):
        assert parse_address(text) == address

    @pytest.mark.parametrize("text", [
        "127.0.0.1:99999", "127.0.0.1:65536", "127.0.0.1:-1", "127.0.0.1:abc",
        "127.0.0.1:", ":7777", "127.0.0.1", "127.0.0.1:+7", "127.0.0.1: 7",
        "127.0.0.1:7_777", "[::1:7777", "::1]:7777", "[::1]]:7777", "[[::1]:7777",
        "[]:7777", "[::1]x:7777", "[::1]",
    ])
    def test_bad_host_or_port_refused(self, text):
        with pytest.raises(ValueError, match="host:port"):
            parse_address(text)


def test_format_rate():
    assert format_rate(200e6) == "200.00 Mbps"
    assert format_rate(1.5e9) == "1.50 Gbps"
    assert format_rate(12) == "12 bps"
