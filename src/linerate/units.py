"""Human-friendly parsing and formatting for rates, durations and addresses."""

import math

_RATE_SUFFIXES = {
    "tbps": 1e12,
    "gbps": 1e9,
    "mbps": 1e6,
    "kbps": 1e3,
    "bps": 1.0,
}

_TIME_SUFFIXES = {
    "ms": 1.0,
    "s": 1000.0,
    "m": 60_000.0,
}


def _parse_scaled(text, suffixes: dict, what: str) -> float:
    """A positive finite number, scaled by the first suffix of ``suffixes`` it ends with."""
    if isinstance(text, (int, float)):
        value = float(text)
    else:
        lowered = str(text).strip().lower().replace(" ", "")
        scale = 1.0
        for suffix, factor in suffixes.items():
            if lowered.endswith(suffix):
                lowered, scale = lowered[: -len(suffix)], factor
                break
        value = float(lowered) * scale
    if not 0 < value < math.inf:  # also false for NaN
        raise ValueError(f"{what} must be positive, got {text!r}")
    return value


def parse_rate(text) -> float:
    """Parse a bit rate like '200mbps', '1.5gbps', or a plain bits/second number."""
    return _parse_scaled(text, _RATE_SUFFIXES, "rate")


def parse_time_ms(text) -> float:
    """Parse a duration like '20ms', '1.5s', '2m', or a plain millisecond number."""
    return _parse_scaled(text, _TIME_SUFFIXES, "duration")


def parse_address(text: str) -> tuple[str, int]:
    """Split 'host:port' at its last colon; the port is a decimal from 0 to 65535.

    A bracketed host, as in '[::1]:7777', loses its brackets; any other
    bracket in the host is refused.
    """
    host, _, port_text = text.rpartition(":")
    if host.startswith("[") and host.endswith("]"):
        host = host[1:-1]
    if (host and "[" not in host and "]" not in host and port_text.isascii()
            and port_text.isdigit() and int(port_text) <= 65535):
        return host, int(port_text)
    raise ValueError(f"address must be host:port with a port from 0 to 65535, got {text!r}")


def format_rate(bps: float) -> str:
    for suffix, scale in _RATE_SUFFIXES.items():
        if abs(bps) >= scale:
            return f"{bps / scale:.2f} {suffix[:-3].upper()}bps" if suffix != "bps" else f"{bps:.0f} bps"
    return f"{bps:.0f} bps"
