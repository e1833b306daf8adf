"""Versioned wire codec for protocol payloads.

The simulator never serializes payloads (only their modelled sizes
matter), but the live runtime puts real bytes on real TCP sockets, so
every payload type needs an explicit, versioned encoding. Rather than
pickling — fragile across versions and an arbitrary-code-execution hole
on untrusted input — payloads are encoded as tagged JSON:

* scalars (``None``, ``bool``, ``int``, ``float``, ``str``) pass through;
* containers become ``{"$t": "tuple"|"list"|"dict"|"frozenset", ...}``;
* ``bytes`` become ``{"$t": "bytes", "hex": ...}``;
* registered dataclasses become ``{"$t": "<tag>", "f": {field: value}}``.

Payload dataclasses opt in with the :func:`wire_payload` decorator; the
codec refuses anything unregistered, loudly, in both directions. The
overall wire format (including the :class:`~repro.net.message.NetMessage`
envelope built on top of this codec) is versioned by
:data:`WIRE_FORMAT_VERSION`; decoders reject frames from a different
version instead of guessing.
"""

from __future__ import annotations

import json
from dataclasses import fields, is_dataclass
from typing import Any, TypeVar

from repro.errors import NetworkError

#: Version of the whole wire format (payload codec + message envelope).
#: Bump on any incompatible change; decoders reject other versions.
WIRE_FORMAT_VERSION = 1

_T = TypeVar("_T")

#: Reserved container tags (not usable by payload classes).
_CONTAINER_TAGS = frozenset({"tuple", "list", "dict", "frozenset", "bytes"})

_BY_TAG: dict[str, type] = {}
#: ``type -> (wire tag, field names)``, computed once at registration.
_BY_TYPE: dict[type, tuple[str, tuple[str, ...]]] = {}
_payloads_loaded = False


def wire_payload(cls: type[_T]) -> type[_T]:
    """Class decorator registering a payload class with the codec.

    Payloads are dataclasses or NamedTuples (both expose their fields by
    name and reconstruct from keyword arguments). The class name is its
    wire tag, so renaming a registered class is a wire-format change
    (bump :data:`WIRE_FORMAT_VERSION`).
    """
    tag = cls.__name__
    if is_dataclass(cls):
        names = tuple(f.name for f in fields(cls))
    elif issubclass(cls, tuple) and hasattr(cls, "_fields"):
        names = tuple(cls._fields)
    else:
        raise TypeError(f"wire payloads must be dataclasses or NamedTuples: {cls!r}")
    if tag in _CONTAINER_TAGS:
        raise TypeError(f"payload tag {tag!r} collides with a container tag")
    registered = _BY_TAG.get(tag)
    if registered is not None and registered is not cls:
        raise TypeError(f"duplicate wire payload tag {tag!r}")
    _BY_TAG[tag] = cls
    _BY_TYPE[cls] = (tag, names)
    return cls


def is_registered(value: Any) -> bool:
    """Whether *value* is a registered (immutable) payload object."""
    return value.__class__ in _BY_TYPE


def _ensure_payloads() -> None:
    """Import every module that declares wire payloads (idempotent).

    Decoding may run before any payload class has been touched (e.g. the
    first frame a live worker receives), so the codec pulls the known
    payload modules in lazily; their :func:`wire_payload` decorators do
    the actual registration. Core value types register here directly
    because :mod:`repro.types` is a leaf module that must not depend on
    the network layer.
    """
    global _payloads_loaded
    if _payloads_loaded:
        return
    _payloads_loaded = True
    from repro import types

    for core in (types.MessageId, types.AppMessage, types.Batch):
        wire_payload(core)
    import repro.abcast.indirect  # noqa: F401  (registers IdBatch)
    import repro.abcast.messages  # noqa: F401
    import repro.abcast.ringpaxos  # noqa: F401  (registers RingToken)
    import repro.abcast.sequencer  # noqa: F401  (registers Sequenced)
    import repro.broadcast.reliable  # noqa: F401  (registers RbMessage)
    import repro.consensus.messages  # noqa: F401


def encode_value(value: Any) -> Any:
    """Encode *value* into a JSON-serializable structure."""
    _ensure_payloads()
    return _encode(value)


def _encode(value: Any) -> Any:
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    # Registered payloads take precedence over the container branches:
    # NamedTuple payloads (e.g. MessageId) are tuples too, and must
    # round-trip as their registered type, not as a bare tuple.
    entry = _BY_TYPE.get(value.__class__)
    if entry is not None:
        tag, names = entry
        return {"$t": tag, "f": {name: _encode(getattr(value, name)) for name in names}}
    if isinstance(value, bytes):
        return {"$t": "bytes", "hex": value.hex()}
    if isinstance(value, tuple):
        return {"$t": "tuple", "items": [_encode(v) for v in value]}
    if isinstance(value, list):
        return {"$t": "list", "items": [_encode(v) for v in value]}
    if isinstance(value, frozenset):
        items = sorted((_encode(v) for v in value), key=repr)
        return {"$t": "frozenset", "items": items}
    if isinstance(value, dict):
        return {
            "$t": "dict",
            "items": [[_encode(k), _encode(v)] for k, v in value.items()],
        }
    raise NetworkError(
        f"cannot serialize unregistered payload type {type(value).__name__!r}; "
        "register it with @repro.net.wire.wire_payload"
    )


def decode_value(encoded: Any) -> Any:
    """Decode a structure produced by :func:`encode_value`."""
    _ensure_payloads()
    if encoded is None or isinstance(encoded, (bool, int, float, str)):
        return encoded
    if isinstance(encoded, list):  # only produced inside container tags
        return [decode_value(v) for v in encoded]
    if isinstance(encoded, dict):
        return _decode_object({k: decode_value(v) for k, v in encoded.items()})
    raise NetworkError(f"malformed wire value: {encoded!r}")


def _decode_object(document: dict) -> Any:
    """Rebuild one tagged object whose members are already decoded
    (the JSON parser's object hook); untagged objects — the envelope,
    field maps — come back unchanged."""
    tag = document.get("$t")
    if tag is None:
        return document
    cls = _BY_TAG.get(tag)
    if cls is not None:
        try:
            return cls(**document["f"])
        except (KeyError, TypeError) as exc:
            raise NetworkError(f"malformed {tag!r} payload: {exc}") from exc
    if tag == "tuple":
        return tuple(document["items"])
    if tag == "list":
        return list(document["items"])
    if tag == "dict":
        return dict(document["items"])
    if tag == "frozenset":
        return frozenset(document["items"])
    if tag == "bytes":
        return bytes.fromhex(document["hex"])
    raise NetworkError(f"unknown wire payload tag {tag!r}")


_DECODER = json.JSONDecoder(object_hook=_decode_object)


def parse_json(data: bytes) -> Any:
    """Parse wire JSON, decoding tagged values as the parser runs (one
    prebuilt decoder: ``json.loads`` would build one per call)."""
    _ensure_payloads()
    return _DECODER.decode(data.decode("utf-8"))


def check_version(version: Any) -> None:
    """Reject frames from an incompatible wire-format version."""
    if version != WIRE_FORMAT_VERSION:
        raise NetworkError(
            f"unsupported wire format version {version!r} "
            f"(this build speaks version {WIRE_FORMAT_VERSION})"
        )
