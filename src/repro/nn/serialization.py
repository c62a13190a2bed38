"""Model-state serialization helpers.

Two representations are used throughout the reproduction:

* the **state dict** (``name -> ndarray``) — the per-layer view the MixNN
  proxy mixes on;
* the **flat vector** — the concatenated float view that ∇Sim measures cosine
  similarity on and that the wire format transports.

:class:`StateSchema` is the *flat-plane contract* between the two: every
parameter name maps to a fixed ``(offset, shape, dtype=float32)`` slot in one
contiguous vector, so :func:`flatten` (or ``schema.pack``) turns a state dict
into that vector, ``schema.views`` turns the vector back into a dict of
zero-copy views, and a round's updates can live in one ``(N, D)`` matrix (see
:mod:`repro.federated.flat`).

The byte encoding (:func:`state_to_bytes`) is a raw framed format: a JSON
schema header followed by the parameters' contiguous float32 buffers, written
and read without any intermediate archive encode.  Because the buffers are
laid out back to back in schema order, the payload of a raw-framed blob *is*
the flat vector — :func:`flat_from_bytes` reads it as one zero-copy float32
view and :func:`flat_to_bytes` writes it from one, which lets transport,
crypto, and aggregation share a single allocation.  A blob in any other
encoding raises :class:`FrameError`.
"""

from __future__ import annotations

import json
from collections import OrderedDict

import numpy as np

from .module import Module

__all__ = [
    "FrameError",
    "StateSchema",
    "schema_of",
    "flatten",
    "state_to_bytes",
    "state_from_bytes",
    "flat_to_bytes",
    "flat_from_bytes",
    "save_state",
    "load_state",
]


class FrameError(ValueError):
    """A state blob violates the ``RW01`` framing contract.

    Raised on unknown magic, a header length pointing outside the blob, a
    header that is not the expected JSON shape, or a payload whose size does
    not match the declared schema — every adversarial truncation or bit-flip
    lands here (or in the crypto layer's MAC check) rather than mis-parsing
    silently.  Subclasses ``ValueError`` so pre-existing callers keep
    working.
    """

#: Magic prefix of the raw framed state encoding ("Raw Weights v1").
_RAW_MAGIC = b"RW01"


class StateSchema:
    """The flat parameter plane's contract for one model architecture.

    Maps every parameter name to a fixed ``(offset, shape, dtype=float32)``
    slot inside one contiguous float32 vector of ``total_size`` scalars.  All
    flat-plane consumers (aggregation, mixing, defenses, attacks, transport)
    speak this schema instead of re-marshalling their own dict-of-arrays
    representation.

    Instances are interned per ``(names, shapes)`` via :func:`schema_of`, so
    schema identity checks are cheap pointer comparisons in the hot paths.
    Each builds its ``RW01`` frame prefix once, at construction:
    :func:`flat_to_bytes` writes it and :func:`flat_from_bytes` recognizes
    it without parsing JSON.
    """

    __slots__ = ("names", "shapes", "sizes", "offsets", "total_size", "prefix", "_index")

    #: the one dtype of the flat plane (the wire format's dtype as well)
    dtype = np.float32

    def __init__(self, names: tuple[str, ...], shapes: tuple[tuple[int, ...], ...]) -> None:
        if len(names) != len(shapes):
            raise ValueError(f"{len(names)} names for {len(shapes)} shapes")
        self.names = tuple(names)
        self.shapes = tuple(tuple(int(d) for d in shape) for shape in shapes)
        self.sizes = tuple(int(np.prod(shape)) for shape in self.shapes)
        offsets = []
        offset = 0
        for size in self.sizes:
            offsets.append(offset)
            offset += size
        self.offsets = tuple(offsets)
        self.total_size = offset
        header = json.dumps(
            {"names": list(self.names), "shapes": [list(s) for s in self.shapes]},
            separators=(",", ":"),
        ).encode()
        #: the RW01 frame up to the payload: magic, header length, JSON header
        self.prefix = _RAW_MAGIC + len(header).to_bytes(4, "big") + header
        #: name -> (offset, size, shape)
        self._index = {
            name: (off, size, shape)
            for name, off, size, shape in zip(self.names, self.offsets, self.sizes, self.shapes)
        }

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------
    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, StateSchema):
            return NotImplemented
        return self.names == other.names and self.shapes == other.shapes

    def __hash__(self) -> int:
        return hash((self.names, self.shapes))

    def __repr__(self) -> str:
        return f"StateSchema(params={len(self.names)}, total_size={self.total_size})"

    def matches(self, state: dict) -> bool:
        """Whether ``state`` has exactly this schema (names, order, shapes)."""
        if tuple(state.keys()) != self.names:
            return False
        return all(
            tuple(np.asarray(state[n]).shape) == s for n, s in zip(self.names, self.shapes)
        )

    def span(self, name: str) -> tuple[int, int]:
        """``(offset, end)`` of one parameter inside the flat vector."""
        offset, size, _ = self._index[name]
        return offset, offset + size

    # ------------------------------------------------------------------
    # Flat <-> dict
    # ------------------------------------------------------------------
    def views(self, vector: np.ndarray) -> "OrderedDict[str, np.ndarray]":
        """Zero-copy dict-of-arrays view onto a flat vector.

        The returned arrays share memory with ``vector``: in-place writes are
        visible on both sides, and the views are read-only iff ``vector`` is.
        """
        if vector.size != self.total_size:
            raise ValueError(f"vector has {vector.size} scalars, schema expects {self.total_size}")
        out: "OrderedDict[str, np.ndarray]" = OrderedDict()
        for name, offset, size, shape in zip(self.names, self.offsets, self.sizes, self.shapes):
            out[name] = vector[offset : offset + size].reshape(shape)
        return out

    def write_into(self, row: np.ndarray, state: dict) -> None:
        """Copy a dict state into a flat row (by name, casting to float32)."""
        for name, offset, size, _ in zip(self.names, self.offsets, self.sizes, self.shapes):
            row[offset : offset + size] = np.asarray(state[name], dtype=np.float32).ravel()

    def pack(self, state: dict) -> np.ndarray:
        """Materialize a dict state as a fresh contiguous flat vector."""
        vector = np.empty(self.total_size, dtype=np.float32)
        self.write_into(vector, state)
        return vector


#: interning table: (names, shapes) -> StateSchema
_SCHEMA_CACHE: dict[tuple, StateSchema] = {}
#: the interned schemas by their RW01 frame prefix
_PREFIX_CACHE: dict[bytes, StateSchema] = {}


def _intern_schema(names: tuple[str, ...], shapes: tuple[tuple[int, ...], ...]) -> StateSchema:
    """One shared StateSchema instance per (names, shapes)."""
    key = (names, shapes)
    schema = _SCHEMA_CACHE.get(key)
    if schema is None:
        schema = _SCHEMA_CACHE[key] = StateSchema(names, shapes)
        _PREFIX_CACHE[schema.prefix] = schema
    return schema


def schema_of(source: Module | dict) -> StateSchema:
    """The interned :class:`StateSchema` of a model or state dict."""
    state = source.state_dict() if isinstance(source, Module) else source
    return _intern_schema(
        tuple(state.keys()),
        tuple(tuple(np.asarray(v).shape) for v in state.values()),
    )


def flatten(state: dict) -> np.ndarray:
    """Concatenate all parameter arrays into one float32 vector."""
    if not state:
        return np.zeros(0, dtype=np.float32)
    return np.concatenate([np.asarray(v, dtype=np.float32).ravel() for v in state.values()])


def state_to_bytes(state: dict) -> bytes:
    """Serialize a state dict to a compact raw-framed byte string.

    This is the plaintext wire format participants encrypt to the enclave
    key.  Layout: ``RW01 || u32 header_len || header || buffers`` where the
    header is JSON ``{"names": [...], "shapes": [[...], ...]}`` and the
    buffers are each parameter's contiguous float32 bytes in header order —
    arrays already in contiguous float32 layout are appended without a copy.
    """
    # ascontiguousarray would promote 0-d scalars to 1-d and copy unnecessarily
    # for the (overwhelmingly common) already-contiguous case.
    arrays = [
        a if a.flags.c_contiguous else np.ascontiguousarray(a)
        for a in (np.asarray(value, dtype=np.float32) for value in state.values())
    ]
    header = json.dumps(
        {"names": list(state.keys()), "shapes": [list(a.shape) for a in arrays]},
        separators=(",", ":"),
    ).encode()
    parts = [_RAW_MAGIC, len(header).to_bytes(4, "big"), header]
    # reshape(-1) is a view on the (already contiguous) buffer; it also turns
    # 0-d scalars into 1-element vectors, which memoryview cannot cast.
    parts.extend(memoryview(a.reshape(-1)).cast("B") for a in arrays)
    return b"".join(parts)


def _parse_raw_header(blob: bytes) -> tuple[tuple[str, ...], tuple[tuple[int, ...], ...], int]:
    """Validate and parse an ``RW01`` header; returns (names, shapes, offset).

    Every structural violation — truncated length field, header length past
    the end of the blob, non-JSON header bytes, missing/malformed
    names/shapes — raises :class:`FrameError` before any payload is read.
    """
    if len(blob) < 8:
        raise FrameError(
            f"truncated frame: {len(blob)} bytes is too short for the RW01 "
            "magic and header length"
        )
    header_len = int.from_bytes(blob[4:8], "big")
    if header_len > len(blob) - 8:
        raise FrameError(
            f"corrupt frame: header length {header_len} exceeds the "
            f"{len(blob) - 8} bytes that follow it"
        )
    try:
        header = json.loads(blob[8 : 8 + header_len].decode())
        names = tuple(str(n) for n in header["names"])
        shapes = tuple(tuple(int(d) for d in shape) for shape in header["shapes"])
    except (ValueError, KeyError, TypeError, UnicodeDecodeError) as exc:
        # json.JSONDecodeError subclasses ValueError; a flipped bit in the
        # header lands here rather than mis-parsing.
        raise FrameError("corrupt frame header (not the expected JSON schema)") from exc
    if len(names) != len(shapes):
        raise FrameError(f"corrupt frame header: {len(names)} names for {len(shapes)} shapes")
    if any(d < 0 for shape in shapes for d in shape):
        raise FrameError("corrupt frame header: negative dimension in a shape")
    return names, shapes, 8 + header_len


def state_from_bytes(blob: bytes) -> "OrderedDict[str, np.ndarray]":
    """Inverse of :func:`state_to_bytes`, preserving key order.

    Arrays re-materialize as zero-copy float32 views onto ``blob``
    (read-only; every consumer that mutates copies first).  Malformed frames
    and any encoding other than ``RW01`` raise :class:`FrameError`.
    """
    if blob[:4] != _RAW_MAGIC:
        raise FrameError("unrecognized state encoding (not RW01-framed)")
    names, shapes, offset = _parse_raw_header(blob)
    sizes = [int(np.prod(shape)) if shape else 1 for shape in shapes]
    expected = offset + 4 * sum(sizes)
    if expected != len(blob):
        excess = len(blob) - expected
        detail = f"{excess} trailing bytes" if excess > 0 else "truncated"
        raise FrameError(
            f"corrupt frame: payload is {len(blob) - offset} bytes but the "
            f"header declares {expected - offset} ({detail})"
        )
    out: "OrderedDict[str, np.ndarray]" = OrderedDict()
    for name, shape, size in zip(names, shapes, sizes):
        array = np.frombuffer(blob, dtype=np.float32, count=size, offset=offset)
        out[name] = array.reshape(shape)
        offset += 4 * size
    return out


def flat_to_bytes(schema: StateSchema, vector: np.ndarray) -> bytes:
    """Serialize a flat vector under ``schema`` to the raw-framed encoding.

    Produces byte-for-byte the same blob as ``state_to_bytes(schema.views(
    vector))`` — the RW01 payload *is* the flat buffer — but appends it as a
    single memoryview instead of one per parameter.
    """
    vector = np.asarray(vector, dtype=np.float32)
    if vector.size != schema.total_size:
        raise ValueError(f"vector has {vector.size} scalars, schema expects {schema.total_size}")
    if not vector.flags.c_contiguous:
        vector = np.ascontiguousarray(vector)
    return b"".join([schema.prefix, memoryview(vector.reshape(-1)).cast("B")])


def flat_from_bytes(blob: bytes) -> tuple[StateSchema, np.ndarray]:
    """Read a state blob as ``(schema, flat_vector)`` in one allocation-free step.

    Raw-framed blobs yield a single zero-copy read-only float32 view covering
    the whole payload (the per-parameter dict view is ``schema.views(vector)``
    when needed).  A header an interned schema already wrote is looked up by
    its bytes; only an unknown one is parsed and validated as JSON.  Any
    encoding other than ``RW01`` raises :class:`FrameError`.
    """
    if blob[:4] != _RAW_MAGIC:
        raise FrameError("unrecognized state encoding (not RW01-framed)")
    offset = 8 + int.from_bytes(blob[4:8], "big")
    schema = _PREFIX_CACHE.get(bytes(blob[:offset]))
    if schema is None:
        names, shapes, offset = _parse_raw_header(blob)
        schema = _intern_schema(names, shapes)
    expected = offset + 4 * schema.total_size
    if expected != len(blob):
        excess = len(blob) - expected
        detail = f"{excess} trailing bytes" if excess > 0 else "truncated"
        raise FrameError(
            f"corrupt frame: payload is {len(blob) - offset} bytes but the "
            f"schema declares {expected - offset} ({detail})"
        )
    vector = np.frombuffer(blob, dtype=np.float32, count=schema.total_size, offset=offset)
    return schema, vector


def save_state(state: dict, path) -> None:
    """Persist a state dict (or any name→array mapping) to a file.

    Writes the raw framed ``RW01`` encoding (see :func:`state_to_bytes`), which
    only :func:`load_state`/:func:`state_from_bytes` read — not ``np.load``.
    """
    with open(path, "wb") as handle:
        handle.write(state_to_bytes(state))


def load_state(path) -> "OrderedDict[str, np.ndarray]":
    """Load a state dict previously written by :func:`save_state`."""
    with open(path, "rb") as handle:
        return state_from_bytes(handle.read())
