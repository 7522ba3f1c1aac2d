"""The wire protocol: framing, typed errors, exact result round-trips."""

from __future__ import annotations

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.types import SelectionResult, Site
from repro.service.protocol import (
    OPERATIONS,
    PROTOCOL_VERSION,
    BadRequestError,
    DeadlineExceededError,
    QueueFullError,
    ServiceError,
    ShuttingDownError,
    UnknownMethodError,
    UnknownWorkspaceError,
    decode,
    encode,
    error_from_wire,
    error_response,
    ok_response,
    selection_from_wire,
    selection_to_wire,
)


class TestFraming:
    def test_encode_is_one_json_line(self):
        line = encode({"id": 1, "op": "health"})
        assert line.endswith(b"\n")
        assert line.count(b"\n") == 1
        assert json.loads(line) == {"id": 1, "op": "health"}

    def test_decode_accepts_bytes_and_str(self):
        assert decode(b'{"id": 2}') == {"id": 2}
        assert decode('{"id": 2}') == {"id": 2}

    def test_decode_round_trip(self):
        message = {"id": 7, "op": "select", "method": "MND", "no_cache": True}
        assert decode(encode(message)) == message

    def test_decode_rejects_invalid_json(self):
        with pytest.raises(BadRequestError, match="not valid JSON"):
            decode(b"{nope")

    def test_decode_rejects_non_objects(self):
        with pytest.raises(BadRequestError, match="JSON object"):
            decode(b"[1, 2, 3]")

    @pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
    def test_decode_rejects_non_finite_constants(self, constant):
        line = f'{{"id": 9, "op": "update", "weight": {constant}}}'
        with pytest.raises(BadRequestError, match=constant) as info:
            decode(line)
        assert info.value.request_id == 9  # echoed on the error response

    def test_decode_rejects_non_finite_constants_in_broken_lines(self):
        with pytest.raises(BadRequestError, match="NaN") as info:
            decode(b'{"id": 9, "weight": NaN, }')
        assert info.value.request_id is None

    def test_known_surface(self):
        assert PROTOCOL_VERSION == 1
        assert "select" in OPERATIONS and "health" in OPERATIONS


class TestResponses:
    def test_ok_response_carries_extras(self):
        response = ok_response(3, {"x": 1}, cached=True, data_version=4)
        assert response == {
            "id": 3,
            "ok": True,
            "result": {"x": 1},
            "cached": True,
            "data_version": 4,
        }

    def test_error_response_shape(self):
        response = error_response(9, QueueFullError("full up"))
        assert response["ok"] is False
        assert response["error"] == {"code": "queue_full", "message": "full up"}

    @pytest.mark.parametrize(
        "error_type",
        [
            BadRequestError,
            UnknownWorkspaceError,
            UnknownMethodError,
            QueueFullError,
            DeadlineExceededError,
            ShuttingDownError,
        ],
    )
    def test_typed_errors_survive_the_wire(self, error_type):
        """A server-side error decodes back to the same exception type."""
        response = error_response(1, error_type("boom"))
        rebuilt = error_from_wire(response["error"])
        assert type(rebuilt) is error_type
        assert rebuilt.code == error_type.code
        assert str(rebuilt) == "boom"

    def test_unknown_codes_fall_back_to_base_error(self):
        rebuilt = error_from_wire({"code": "mystery", "message": "?"})
        assert type(rebuilt) is ServiceError
        assert rebuilt.code == "mystery"


class TestSelectionRoundTrip:
    def _result(self, x: float, y: float, dr: float) -> SelectionResult:
        return SelectionResult(
            method="MND",
            location=Site(3, x, y),
            dr=dr,
            elapsed_s=0.125,
            cpu_s=0.0625,
            io_total=42,
            io_reads={"R_c": 17, "data": 25},
            index_pages=9,
        )

    def test_exact_round_trip_through_json(self):
        """Floats cross the wire byte-identically (repr round-trip)."""
        original = self._result(0.1 + 0.2, 1e-17, 123.456789012345678)
        wire = json.loads(json.dumps(selection_to_wire(original)))
        rebuilt = selection_from_wire(wire)
        assert rebuilt == original
        assert rebuilt.location.x == original.location.x  # bit-for-bit
        assert rebuilt.dr == original.dr

    @given(
        st.floats(allow_nan=False, allow_infinity=False),
        st.floats(allow_nan=False, allow_infinity=False),
        st.floats(allow_nan=False, allow_infinity=False, min_value=0.0),
    )
    def test_any_finite_double_survives(self, x, y, dr):
        original = self._result(x, y, dr)
        wire = json.loads(json.dumps(selection_to_wire(original)))
        assert selection_from_wire(wire) == original
