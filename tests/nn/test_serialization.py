"""State-dict ↔ flat-vector ↔ bytes serialization round-trips."""

from collections import OrderedDict

import numpy as np
import pytest

from repro.nn import Linear, Sequential, ReLU, serialization
from repro.nn.serialization import (
    FrameError,
    flat_from_bytes,
    flat_to_bytes,
    flatten,
    schema_of,
    state_from_bytes,
    state_to_bytes,
)
from repro.utils.rng import rng_from_seed


@pytest.fixture()
def model():
    return Sequential(Linear(4, 3, rng=rng_from_seed(0)), ReLU(), Linear(3, 2, rng=rng_from_seed(1)))


class TestSchema:
    def test_schema_of_model(self, model):
        schema = schema_of(model)
        assert schema.names == ("layer0.weight", "layer0.bias", "layer2.weight", "layer2.bias")
        assert schema.shapes == ((3, 4), (3,), (2, 3), (2,))
        assert schema.total_size == 12 + 3 + 6 + 2

    def test_schema_of_state_dict(self, model):
        assert schema_of(model.state_dict()) is schema_of(model)

    def test_matches(self, model):
        schema = schema_of(model)
        assert schema.matches(model.state_dict())
        wrong_order = OrderedDict(reversed(list(model.state_dict().items())))
        assert not schema.matches(wrong_order)
        wrong_shape = model.state_dict()
        wrong_shape["layer0.bias"] = np.zeros((4,))
        assert not schema.matches(wrong_shape)

    def test_sizes(self, model):
        assert schema_of(model).sizes == (12, 3, 6, 2)


class TestFlatten:
    def test_round_trip(self, model):
        state = model.state_dict()
        vector = flatten(state)
        assert vector.dtype == np.float32
        restored = schema_of(state).views(vector)
        for name in state:
            np.testing.assert_array_equal(state[name], restored[name])

    def test_flatten_order_is_concatenation(self, model):
        state = model.state_dict()
        vector = flatten(state)
        np.testing.assert_array_equal(vector[:12], state["layer0.weight"].ravel())

    def test_empty_state(self):
        assert flatten({}).shape == (0,)

    def test_views_size_mismatch(self, model):
        schema = schema_of(model)
        with pytest.raises(ValueError, match="scalars"):
            schema.views(np.zeros(schema.total_size + 1, dtype=np.float32))


class TestBytes:
    def test_round_trip_preserves_order_and_values(self, model):
        state = model.state_dict()
        blob = state_to_bytes(state)
        restored = state_from_bytes(blob)
        assert list(restored.keys()) == list(state.keys())
        for name in state:
            np.testing.assert_array_equal(state[name], restored[name])

    def test_bytes_deterministic_for_same_state(self, model):
        state = model.state_dict()
        assert state_to_bytes(state) == state_to_bytes(state)

    def test_blob_is_compact(self, model):
        state = model.state_dict()
        blob = state_to_bytes(state)
        raw = sum(v.nbytes for v in state.values())
        assert len(blob) < raw + 4096  # framing overhead only


class TestRawWireFormat:
    def test_raw_magic_prefix(self, model):
        assert state_to_bytes(model.state_dict())[:4] == b"RW01"

    def test_legacy_npz_blob_is_rejected(self, model):
        import io

        buffer = io.BytesIO()
        np.savez(buffer, **model.state_dict())
        blob = buffer.getvalue()
        assert blob[:4] == b"PK\x03\x04"
        with pytest.raises(FrameError, match="RW01"):
            state_from_bytes(blob)
        with pytest.raises(FrameError, match="RW01"):
            flat_from_bytes(blob)

    def test_unpacked_arrays_are_zero_copy_views(self, model):
        state = model.state_dict()
        restored = state_from_bytes(state_to_bytes(state))
        for value in restored.values():
            assert value.dtype == np.float32
            assert not value.flags.writeable  # view onto the immutable blob

    def test_scalar_and_empty_shapes_round_trip(self):
        state = OrderedDict(
            [("scalar", np.float32(3.5)), ("empty", np.zeros((0, 4), dtype=np.float32))]
        )
        restored = state_from_bytes(state_to_bytes(state))
        assert restored["scalar"].shape == ()
        assert float(restored["scalar"]) == 3.5
        assert restored["empty"].shape == (0, 4)

    def test_garbage_blob_rejected(self):
        with pytest.raises(ValueError, match="encoding"):
            state_from_bytes(b"\x00\x01\x02\x03 garbage")

    def test_trailing_bytes_rejected(self, model):
        blob = state_to_bytes(model.state_dict()) + b"\x00\x00"
        with pytest.raises(ValueError, match="trailing"):
            state_from_bytes(blob)


class TestSchemaPrefix:
    """Each schema builds its RW01 prefix once; a known header skips the JSON parse."""

    def test_prefix_is_what_state_to_bytes_writes(self, model):
        state = model.state_dict()
        schema = schema_of(state)
        blob = state_to_bytes(state)
        assert blob[: len(schema.prefix)] == schema.prefix
        assert len(blob) == len(schema.prefix) + 4 * schema.total_size
        assert flat_to_bytes(schema, schema.pack(state)) == blob

    def test_known_header_returns_the_interned_schema(self, model, monkeypatch):
        state = model.state_dict()
        blob = state_to_bytes(state)

        def must_not_parse(blob):
            raise AssertionError("a known header was parsed as JSON")

        monkeypatch.setattr(serialization, "_parse_raw_header", must_not_parse)
        schema, vector = flat_from_bytes(blob)
        assert schema is schema_of(state)
        np.testing.assert_array_equal(vector, flatten(state))

    def test_header_changed_in_one_byte_takes_the_json_path(self, model):
        state = model.state_dict()
        schema = schema_of(state)
        blob = state_to_bytes(state)
        renamed = blob.replace(b'"layer0.bias"', b'"layer0.biax"', 1)
        assert len(renamed) == len(blob) and renamed != blob
        parsed, vector = flat_from_bytes(renamed)
        assert parsed is not schema
        assert parsed.names == ("layer0.weight", "layer0.biax", "layer2.weight", "layer2.bias")
        assert parsed.shapes == schema.shapes
        assert parsed.prefix == renamed[: len(parsed.prefix)]
        np.testing.assert_array_equal(vector, flatten(state))
        broken = bytearray(blob)
        broken[8] ^= 0xFF  # the header's opening brace
        with pytest.raises(FrameError, match="not the expected JSON"):
            flat_from_bytes(bytes(broken))

    def test_other_json_spelling_parses_to_the_interned_schema(self, model):
        state = model.state_dict()
        schema = schema_of(state)
        header = schema.prefix[8:].replace(b'","', b'", "')
        blob = b"RW01" + len(header).to_bytes(4, "big") + header + state_to_bytes(state)[len(schema.prefix) :]
        parsed, vector = flat_from_bytes(blob)
        assert parsed is schema
        np.testing.assert_array_equal(vector, flatten(state))

    def test_truncated_payload_still_raises(self, model):
        blob = state_to_bytes(model.state_dict())
        with pytest.raises(FrameError, match="truncated"):
            flat_from_bytes(blob[:-1])
        with pytest.raises(FrameError, match="trailing"):
            flat_from_bytes(blob + b"\x00")
