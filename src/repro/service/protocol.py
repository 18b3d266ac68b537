"""Wire protocol for the campaign service: newline-delimited JSON.

One request object per line from the client; zero or more ``progress``
event lines followed by exactly one ``done`` event line back from the
server. The framing is deliberately primitive — ``repro submit`` is a
line-oriented client any test harness (or ``nc``) can reimplement — and
every payload is a plain JSON object so requests can cross a process
boundary, be logged, and be replayed verbatim.

Client-side errors are re-typed: a ``done`` event carrying
``ok: false`` is raised as the same exception class the server raised
(:class:`~repro.errors.AdmissionError` with its ``reason`` tag
preserved, or :class:`~repro.errors.ServiceError` otherwise), so CLI
and tests branch on admission decisions identically whether the service
runs in-process or behind a socket.
"""

from __future__ import annotations

import json
import socket
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import AdmissionError, ConfigurationError, ServiceError

__all__ = [
    "CampaignRequest",
    "decode_line",
    "encode_line",
    "error_payload",
    "raise_from_done",
    "submit_over_socket",
    "send_op",
]

#: Fields a submit request may carry; anything else is rejected so typos
#: fail loudly instead of silently running a default campaign.
_REQUEST_FIELDS = frozenset(
    {
        "name",
        "target",
        "num_segments",
        "seed",
        "tenant",
        "priority",
        "deadline_s",
        "max_retries",
        "warm_start",
        "kwargs",
        "config",
    }
)


@dataclass(frozen=True)
class CampaignRequest:
    """One tenant's campaign submission (attack x defense x geometry).

    ``target`` is a ``"module:qualname"`` reference to a segment
    callable ``(index, seed, **kwargs) -> dict`` — the same contract as
    :class:`~repro.faults.campaign.CampaignRunner`, so a service
    report is byte-comparable to an engine reference run of the same
    (name, target, num_segments, seed, kwargs, config) tuple.
    ``tenant``/``priority``/``deadline_s`` exist only for admission and
    scheduling; none of them leak into the report.
    """

    name: str
    target: str
    num_segments: int
    seed: int
    tenant: str = "default"
    priority: int = 0
    deadline_s: Optional[float] = None
    max_retries: int = 3
    warm_start: bool = False
    kwargs: Dict[str, Any] = field(default_factory=dict)
    config: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("campaign request needs a non-empty name")
        if ":" not in self.target:
            raise ConfigurationError(
                f"target {self.target!r} must be a 'module:qualname' reference"
            )
        if self.num_segments < 1:
            raise ConfigurationError(
                f"num_segments {self.num_segments} must be >= 1"
            )
        if self.max_retries < 0:
            raise ConfigurationError(
                f"max_retries {self.max_retries} must be >= 0"
            )
        if self.deadline_s is not None and self.deadline_s <= 0:
            # A non-positive relative deadline can never be met; reject
            # at parse time with the same typed error admission uses.
            raise AdmissionError(
                f"deadline_s {self.deadline_s} already expired at submission",
                reason="deadline",
            )

    def to_wire(self) -> Dict[str, Any]:
        """JSON-ready dict (inverse of :meth:`from_wire`)."""
        return {
            "name": self.name,
            "target": self.target,
            "num_segments": self.num_segments,
            "seed": self.seed,
            "tenant": self.tenant,
            "priority": self.priority,
            "deadline_s": self.deadline_s,
            "max_retries": self.max_retries,
            "warm_start": self.warm_start,
            "kwargs": dict(self.kwargs),
            "config": dict(self.config),
        }

    @classmethod
    def from_wire(cls, data: Dict[str, Any]) -> "CampaignRequest":
        """Validate and build a request from a decoded JSON object."""
        if not isinstance(data, dict):
            raise ServiceError(f"request must be a JSON object, got {type(data).__name__}")
        unknown = set(data) - _REQUEST_FIELDS
        if unknown:
            raise ServiceError(
                f"unknown request field(s): {', '.join(sorted(unknown))}"
            )
        missing = {"name", "target", "num_segments", "seed"} - set(data)
        if missing:
            raise ServiceError(
                f"request missing required field(s): {', '.join(sorted(missing))}"
            )
        kwargs = data.get("kwargs", {})
        config = data.get("config", {})
        if not isinstance(kwargs, dict) or not isinstance(config, dict):
            raise ServiceError("request kwargs/config must be JSON objects")
        return cls(
            name=str(data["name"]),
            target=str(data["target"]),
            num_segments=int(data["num_segments"]),
            seed=int(data["seed"]),
            tenant=str(data.get("tenant", "default")),
            priority=int(data.get("priority", 0)),
            deadline_s=(
                None if data.get("deadline_s") is None else float(data["deadline_s"])
            ),
            max_retries=int(data.get("max_retries", 3)),
            warm_start=bool(data.get("warm_start", False)),
            kwargs=dict(kwargs),
            config=dict(config),
        )


def encode_line(payload: Dict[str, Any]) -> bytes:
    """One protocol line: compact JSON + newline."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode() + b"\n"


def decode_line(line: bytes) -> Dict[str, Any]:
    """Decode one protocol line; malformed input is a typed error."""
    try:
        data = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ServiceError(f"malformed protocol line: {exc}") from None
    if not isinstance(data, dict):
        raise ServiceError("protocol line must decode to a JSON object")
    return data


def error_payload(exc: BaseException) -> Dict[str, Any]:
    """The ``done`` event for a failed request (typed, never a traceback)."""
    payload: Dict[str, Any] = {
        "event": "done",
        "ok": False,
        "error": type(exc).__name__,
        "message": str(exc),
    }
    reason = getattr(exc, "reason", "")
    if reason:
        payload["reason"] = reason
    return payload


def raise_from_done(done: Dict[str, Any]) -> Dict[str, Any]:
    """Return the report from a ``done`` event, or re-raise its error."""
    if done.get("ok"):
        report = done.get("report")
        if not isinstance(report, dict):
            raise ServiceError("done event carried no report")
        return report
    error = str(done.get("error", "ServiceError"))
    message = str(done.get("message", "request failed"))
    if error == "AdmissionError":
        raise AdmissionError(message, reason=str(done.get("reason", "")))
    raise ServiceError(f"{error}: {message}")


def _exchange(
    host: str,
    port: int,
    payload: Dict[str, Any],
    on_event: Optional[Callable[[Dict[str, Any]], None]] = None,
    timeout_s: float = 60.0,
) -> Dict[str, Any]:
    """Send one request line, stream events until ``done``; return it."""
    with socket.create_connection((host, port), timeout=timeout_s) as sock:
        sock.sendall(encode_line(payload))
        buffer = b""
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                raise ServiceError(
                    "connection closed before a done event arrived"
                )
            buffer += chunk
            while b"\n" in buffer:
                line, buffer = buffer.split(b"\n", 1)
                if not line.strip():
                    continue
                event = decode_line(line)
                if event.get("event") == "done":
                    return event
                if on_event is not None:
                    on_event(event)


def submit_over_socket(
    host: str,
    port: int,
    request: CampaignRequest,
    on_progress: Optional[Callable[[Dict[str, Any]], None]] = None,
    timeout_s: float = 60.0,
) -> Tuple[Dict[str, Any], List[Dict[str, Any]]]:
    """Synchronous client: submit and block until the report (or error).

    Returns ``(report_dict, progress_events)``; admission rejections and
    service failures re-raise as their original typed exceptions.
    """
    progress: List[Dict[str, Any]] = []

    def collect(event: Dict[str, Any]) -> None:
        progress.append(event)
        if on_progress is not None:
            on_progress(event)

    done = _exchange(
        host,
        port,
        {"op": "submit", "request": request.to_wire()},
        on_event=collect,
        timeout_s=timeout_s,
    )
    return raise_from_done(done), progress


def send_op(
    host: str, port: int, op: str, timeout_s: float = 60.0, **fields: Any
) -> Dict[str, Any]:
    """Fire a non-submit op (``ping``, ``stats``, ``drain``); return done."""
    return _exchange(host, port, {"op": op, **fields}, timeout_s=timeout_s)
