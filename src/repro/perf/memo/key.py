"""Content-addressed segment identity: canonical JSON and ``SegmentKey``.

A segment's result is a pure function of (what code ran, against which
configuration, from which snapshot, with which payload programs, under
which derived seed, with which injected-fault schedule). This module
reduces that tuple to a single hex digest so identical segments — across
campaigns, tenants, and process restarts — share one cache entry.

Key-material discipline (statically enforced by lint rule ``RL013``):
every :class:`SegmentKey` field must come from :func:`digest_of` or
:func:`~repro.rng.derive_seed` (or be threaded through a local name that
does) — never from ambient entropy, wall clock, or pids. Anything the
result depends on that cannot be captured this way (an unserialisable
kwarg, a fault plane without a recorded seed) makes the key builders
return ``None``, which callers treat as "bypass the cache", never as
"guess a key".
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import Any, Dict, Mapping, Optional, Sequence, Tuple

import repro
from repro.rng import derive_seed

__all__ = [
    "source_digest",
    "SegmentKey",
    "canonical_json",
    "digest_of",
    "payload_key",
    "campaign_key",
]


@lru_cache(maxsize=None)
def source_digest() -> str:
    """Version salt mixed into every key: sha256 over the package sources.

    Any edit to a ``.py`` file of the :mod:`repro` package changes it, so
    entries cached by other code miss instead of replaying a stale
    result. Computed on the first key build, once per process (a few
    milliseconds), never at import.
    """
    root = Path(repro.__file__).resolve().parent
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode("utf-8") + b"\0")
        digest.update(path.read_bytes() + b"\0")
    return "repro-src-" + digest.hexdigest()


#: Segment kwargs whose *values* vary run-to-run without changing the
#: result (shared-memory snapshot names are fresh every capture). Their
#: presence is keyed; their values are not.
VOLATILE_KWARGS = ("snapshot", "snapshot_names")

#: Segment kwargs that carry payload programs; digested separately so the
#: key mirrors the issue contract (payload digest is its own component).
PAYLOAD_KWARGS = ("payload", "payloads", "program", "programs")


def canonical_json(obj: Any) -> str:
    """The one canonical rendering: sorted keys, no whitespace."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def digest_of(obj: Any) -> str:
    """sha256 hex digest of :func:`canonical_json` of ``obj``."""
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class SegmentKey:
    """The content address of one segment result.

    Every field is a digest or a :func:`~repro.rng.derive_seed` product;
    :meth:`digest` collapses them into the store key. ``attempt`` is
    always 0 today — the cache unit is the whole retry loop (retries
    derive their own seeds *inside* the segment computation and their
    count is part of the cached record), but the field is kept so a
    future per-attempt cache is a key change, not a contract change.
    """

    config_digest: str
    snapshot_digest: str
    payload_digest: str
    seed: int
    attempt: int
    fault_digest: str
    code_version: str = field(default_factory=source_digest)

    def digest(self) -> str:
        """Hex store key: digest of the canonical JSON of all fields."""
        return digest_of(
            {
                "config": self.config_digest,
                "snapshot": self.snapshot_digest,
                "payload": self.payload_digest,
                "seed": self.seed,
                "attempt": self.attempt,
                "faults": self.fault_digest,
                "version": self.code_version,
            }
        )


def _payload_token(value: Any) -> Any:
    """JSON-able identity of one payload-program kwarg value."""
    digest = getattr(value, "digest", None)
    if callable(digest):
        return digest()
    if isinstance(value, (list, tuple)):
        return [_payload_token(item) for item in value]
    return value


def _jsonable(obj: Any) -> bool:
    try:
        canonical_json(obj)
    except (TypeError, ValueError):
        return False
    return True


def _snapshot_digest(kwargs: Mapping[str, Any]) -> str:
    """Key the *presence and shape* of snapshot kwargs, not their names.

    Warm and cold segment runs are byte-identical by the snapshot
    contract, but they are keyed apart anyway: sharing entries across
    the warm/cold boundary would make a cache hit depend on that
    contract holding forever, instead of only on this run's own inputs.
    """
    present = {key: kwargs[key] for key in VOLATILE_KWARGS if key in kwargs}
    if not present:
        return ""
    token: Dict[str, Any] = {}
    for key, value in present.items():
        if isinstance(value, Mapping):
            token[key] = sorted(str(k) for k in value)
        elif isinstance(value, (list, tuple)):
            token[key] = len(value)
        else:
            token[key] = True
    return digest_of(token)


def _split_kwargs(
    kwargs: Mapping[str, Any],
) -> Optional[Tuple[Dict[str, Any], str]]:
    """(stable config kwargs, payload digest); None if unserialisable."""
    stable: Dict[str, Any] = {}
    payload_material: Dict[str, Any] = {}
    for key in sorted(kwargs):
        if key in VOLATILE_KWARGS:
            continue
        value = kwargs[key]
        if key in PAYLOAD_KWARGS:
            payload_material[key] = _payload_token(value)
        else:
            stable[key] = value
    if not _jsonable(stable) or not _jsonable(payload_material):
        return None
    return stable, digest_of(payload_material) if payload_material else ""


def payload_key(
    payload: Mapping[str, Any], fault_digest: str
) -> Optional[SegmentKey]:
    """Key for one :func:`repro.perf.parallel.run_segment_task` payload.

    ``fault_digest`` comes from
    :func:`repro.perf.memo.runtime.ambient_fault_digest` (or a recorded
    override when the key is built in a worker). Returns ``None`` when
    the payload carries kwargs that cannot be canonically serialized —
    such segments compute uncached rather than risk a colliding key.
    """
    kwargs = payload.get("kwargs", {})
    split = _split_kwargs(kwargs)
    if split is None:
        return None
    stable_kwargs, payload_digest = split
    config_digest = digest_of(
        {
            "kind": "segment-task",
            "target": payload["target"],
            "name": payload["name"],
            "retryable": list(payload["retryable"]),
            "max_retries": payload["max_retries"],
            "kwargs": stable_kwargs,
        }
    )
    snapshot_digest = _snapshot_digest(kwargs)
    seed = derive_seed(payload["seed"], payload["index"], 0)
    attempt = 0
    return SegmentKey(
        config_digest=config_digest,
        snapshot_digest=snapshot_digest,
        payload_digest=payload_digest,
        seed=seed,
        attempt=attempt,
        fault_digest=fault_digest,
    )


def campaign_key(
    *,
    name: str,
    config: Mapping[str, Any],
    seed: int,
    index: int,
    max_retries: int,
    retryable: Sequence[str],
    fault_digest: str,
) -> Optional[SegmentKey]:
    """Key for one segment of a :class:`~repro.faults.campaign.CampaignRunner`
    whose target is an in-process callable.

    Such a target is an arbitrary closure, so the key content-addresses
    the campaign *identity* instead: name, config dict, retry taxonomy
    (``"module:qualname"`` references). Callers owe the contract that
    ``config`` captures everything the closure's behaviour depends on.
    """
    if not _jsonable(config):
        return None
    config_digest = digest_of(
        {
            "kind": "campaign-runner",
            "name": name,
            "config": dict(config),
            "max_retries": max_retries,
            "retryable": list(retryable),
        }
    )
    snapshot_digest = ""
    payload_digest = ""
    derived = derive_seed(seed, index, 0)
    attempt = 0
    return SegmentKey(
        config_digest=config_digest,
        snapshot_digest=snapshot_digest,
        payload_digest=payload_digest,
        seed=derived,
        attempt=attempt,
        fault_digest=fault_digest,
    )
