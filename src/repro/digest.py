"""Canonical JSON digests shared by datasets and the artifact store.

The stage DAG content-addresses every artifact by a fingerprint over
(config slice, dataset digests, upstream fingerprints).  For that to be
stable across processes, every participant — dataset snapshots, config
slices, stage payloads — must hash to the same bytes for the same
logical content.  This module is the single canonicalisation point:
CPython's C JSON encoder writes sorted-key compact JSON, :func:`_coerce`
turns dataclasses, sets and bytes into JSON, and SHA-256 hashes it.
Dict keys must be strings: the encoder sorts keys before it stringifies.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import uuid
import weakref
from typing import Any


def _coerce(value: Any) -> Any:
    """JSON stand-in for a value the encoder cannot write by itself."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: getattr(value, f.name) for f in dataclasses.fields(value)}
    if isinstance(value, (frozenset, set)):
        return sorted(value)
    if isinstance(value, bytes):
        return "bytes:" + value.hex()
    raise TypeError(f"{type(value).__name__} is not canonically encodable")


def canonical_json(value: Any) -> str:
    """The canonical compact JSON encoding used for hashing and storage."""
    return json.dumps(
        value, sort_keys=True, separators=(",", ":"), default=_coerce
    )


def stable_digest(value: Any) -> str:
    """SHA-256 hex digest of *value*'s canonical JSON form."""
    return hashlib.sha256(canonical_json(value).encode("utf-8")).hexdigest()


_tokens: "weakref.WeakKeyDictionary[Any, str]" = weakref.WeakKeyDictionary()


def dataset_digest(obj: Any) -> str:
    """Best-effort content digest of a dataset object.

    Objects exposing ``content_digest()`` (WHOIS datasets, PeeringDB
    snapshots, the simulated web) get a true content address; anything
    else falls back to a per-object token, which keeps caching correct
    (never a false hit) at the cost of cross-process reuse.
    """
    method = getattr(obj, "content_digest", None)
    if callable(method):
        return str(method())
    # Random rather than id(): CPython reuses an id once its object is
    # collected, and a disk-backed store outlives the process.
    token = "volatile:" + uuid.uuid4().hex
    try:
        return _tokens.setdefault(obj, token)
    except TypeError:  # not weakly referenceable: a fresh token per call
        return token
