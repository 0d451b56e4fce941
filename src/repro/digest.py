"""Canonical JSON digests shared by datasets and the artifact store.

The stage DAG content-addresses every artifact by a fingerprint over
(config slice, dataset digests, upstream fingerprints).  For that to be
stable across processes, every participant — dataset snapshots, config
slices, stage payloads — must hash to the same bytes for the same
logical content.  This module is the single canonicalisation point:
CPython's C JSON encoder writes sorted-key compact JSON, :func:`_coerce`
turns dataclasses, sets and bytes into JSON, and SHA-256 hashes it.
Dict keys must be strings: the encoder sorts keys before it stringifies.
:func:`records_json` writes the same bytes for a list of same-shaped
records one field column at a time, without a dict per record; the
dataset digests use it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import uuid
import weakref
from itertools import compress, repeat
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from typing import Any, Callable, Iterable, List, Mapping, Optional, Tuple

#: One record field: its JSON key and the getter that reads its value,
#: or the value itself when every record has the same one.
Field = Tuple[str, Any]


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


def json_digest(text: str) -> str:
    """SHA-256 hex digest of JSON text already in canonical form."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def stable_digest(value: Any) -> str:
    """SHA-256 hex digest of *value*'s canonical JSON form."""
    return json_digest(canonical_json(value))


_JSON_BOOL = {True: "true", False: "false"}

#: Marks where a column's value goes in a row template.  Canonical JSON
#: text never holds it: the encoder escapes every control character.
_HOLE = "\x00"


def _column(values: List[Any]) -> Tuple[str, Iterable[str]]:
    """A slot holding one :data:`_HOLE` and the texts to fill it with,
    so that each filled slot is the canonical JSON of one of *values*.

    The encoder is chosen in one pass from the exact types in the
    column, so a subclass (``bool`` in an int column, an ``IntEnum``, a
    ``str`` subclass) or any other type takes :func:`canonical_json`.
    A str column with nothing to escape is written as it is, quoted.
    """
    kinds = set(map(type, values))
    if kinds == {str}:
        text = "".join(values)
        # Escaping lengthens a string, so equal lengths mean none escaped.
        if len(encode_basestring_ascii(text)) == len(text) + 2:
            return '"' + _HOLE + '"', values
        return _HOLE, map(encode_basestring_ascii, values)
    if kinds == {int}:
        return _HOLE, map(int.__repr__, values)
    if kinds == {bool}:
        return _HOLE, map(_JSON_BOOL.__getitem__, values)
    if kinds == {bytes}:
        return '"bytes:' + _HOLE + '"', map(bytes.hex, values)
    return _HOLE, map(canonical_json, values)


#: Records encoded together.  Each column pass revisits every record,
#: so a chunk that stays in cache across the passes is much cheaper
#: than the whole list when the records are scattered in memory.
_CHUNK = 1024


def _rows(records: List[Any], fields: List[Field]) -> List[str]:
    """The canonical JSON of each of *records*, per *fields* (sorted)."""
    slots: List[str] = []
    columns: List[Iterable[str]] = []
    for key, get in fields:
        if callable(get):
            slot, column = _column(list(map(get, records)))
            columns.append(column)
        else:  # a constant is written into the row template itself
            slot = canonical_json(get)
        slots.append(encode_basestring_ascii(key) + ":" + slot)
    # The template's literal pieces interleaved with the columns: each
    # row is one join, with no format string parsed per row.
    pieces = ("{" + ",".join(slots) + "}").split(_HOLE)
    parts = [repeat(pieces[0], len(records))]
    for column, piece in zip(columns, pieces[1:]):
        parts += (column, repeat(piece))
    return list(map("".join, zip(*parts)))


def records_json(
    records: Mapping[Any, Any],
    fields: Iterable[Field],
    fallback_if: Optional[Callable[[Any], Any]] = None,
) -> str:
    """``canonical_json([{key: get(r) for key, get in fields} for r in rows])``
    with *rows* the values of *records* in ascending key order, written
    one field column at a time with no dict per record.

    *fields* may come in any order; they are written sorted by key, as
    the encoder sorts a dict's keys.  A field given as a value rather
    than a getter has that value in every record.  The records are read
    in the mapping's own order and the finished rows sorted by key: that
    is cheaper than reading them in key order, because records lie in
    memory in the order they were built.

    A record for which *fallback_if* is truthy is written from its own
    ``to_json()`` by :func:`canonical_json` instead: the way out for
    records carrying more than *fields* describe.
    """
    fields = sorted(fields, key=itemgetter(0))
    values = list(records.values())
    rows: List[str] = []
    for start in range(0, len(values), _CHUNK):
        rows += _rows(values[start : start + _CHUNK], fields)
    if fallback_if is not None:
        for i in compress(range(len(values)), map(fallback_if, values)):
            rows[i] = canonical_json(values[i].to_json())
    order = sorted(range(len(rows)), key=list(records).__getitem__)
    return "[" + ",".join(map(rows.__getitem__, order)) + "]"


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
