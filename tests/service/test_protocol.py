"""Wire-protocol unit tests: framing, versioning, error codes."""

import json

import pytest

from repro.service.protocol import (
    MAX_LINE_BYTES,
    OPS,
    PROTOCOL_VERSION,
    SUPPORTED_PROTOCOLS,
    ProtocolError,
    decode_line,
    encode_message,
    error_body,
    validate_request,
)


class TestFraming:
    def test_encode_is_one_newline_terminated_compact_line(self):
        frame = encode_message({"protocol": 1, "op": "hello", "id": 1})
        assert frame.endswith(b"\n")
        assert frame.count(b"\n") == 1
        assert b" " not in frame  # compact separators

    def test_frame_bytes(self):
        # UTF-8, not ASCII-escaped; any faster encoder keeps these bytes.
        message = {"protocol": 1, "op": "place", "id": 3, "vertex": 42,
                   "note": "Γ δ ✓ \u00e9 \U0001f600", "score": -0.1,
                   "big": 1e300, "flags": [True, False, None],
                   "nested": {"a": [1, {"b": [2.5, "ü"]}], "c": {}},
                   "escapes": "quote \" slash \\ tab \t nl \n"}
        expected = ('{"protocol":1,"op":"place","id":3,"vertex":42,'
                    '"note":"Γ δ ✓ é 😀","score":-0.1,"big":1e+300,'
                    '"flags":[true,false,null],'
                    '"nested":{"a":[1,{"b":[2.5,"ü"]}],"c":{}},'
                    '"escapes":"quote \\" slash \\\\ tab \\t nl \\n"}\n')
        assert encode_message(message) == expected.encode("utf-8")

    def test_round_trip(self):
        msg = {"protocol": 1, "op": "place", "id": 9, "vertex": 42,
               "neighbors": [1, 2, 3]}
        assert decode_line(encode_message(msg)) == msg

    def test_unicode_round_trip(self):
        msg = {"protocol": 1, "op": "hello", "id": 1, "note": "Γ δ"}
        assert decode_line(encode_message(msg)) == msg

    def test_decode_rejects_non_json(self):
        with pytest.raises(ProtocolError) as exc:
            decode_line(b"not json\n")
        assert exc.value.code == "bad-request"

    def test_decode_rejects_non_object(self):
        with pytest.raises(ProtocolError, match="JSON object"):
            decode_line(b"[1, 2, 3]\n")

    def test_decode_rejects_oversized_frame(self):
        line = b'"' + b"x" * MAX_LINE_BYTES + b'"\n'
        with pytest.raises(ProtocolError, match="line limit"):
            decode_line(line)

    def test_decode_rejects_invalid_utf8(self):
        with pytest.raises(ProtocolError):
            decode_line(b'{"op": "\xff\xfe"}\n')


class TestValidateRequest:
    def _req(self, **over):
        req = {"protocol": PROTOCOL_VERSION, "op": "place", "id": 1}
        req.update(over)
        return req

    @pytest.mark.parametrize("op", OPS)
    def test_every_v1_op_validates(self, op):
        assert validate_request(self._req(op=op)) == op

    def test_missing_protocol_is_unsupported(self):
        req = self._req()
        del req["protocol"]
        with pytest.raises(ProtocolError) as exc:
            validate_request(req)
        assert exc.value.code == "unsupported-protocol"

    def test_future_protocol_is_unsupported(self):
        with pytest.raises(ProtocolError) as exc:
            validate_request(self._req(protocol=99))
        assert exc.value.code == "unsupported-protocol"
        assert str(list(SUPPORTED_PROTOCOLS)) in str(exc.value)

    def test_missing_op(self):
        req = self._req()
        del req["op"]
        with pytest.raises(ProtocolError, match="missing the 'op'"):
            validate_request(req)

    def test_unknown_op_lists_the_vocabulary(self):
        with pytest.raises(ProtocolError, match="hello"):
            validate_request(self._req(op="explode"))

    def test_additive_rule_ignores_unknown_fields(self):
        # The versioning contract: extra fields are never an error.
        req = self._req(shiny_new_field=True, another={"nested": 1})
        assert validate_request(req) == "place"


class TestErrorBody:
    def test_shape_and_extras(self):
        body = error_body("backpressure", "queue full", retry_after_ms=20)
        assert body == {"code": "backpressure", "message": "queue full",
                        "retry_after_ms": 20}

    def test_error_body_is_json_serializable(self):
        assert json.loads(json.dumps(error_body("internal", "boom")))
