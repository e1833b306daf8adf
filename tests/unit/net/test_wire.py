"""Versioned wire codec: round-trips and rejection of bad input."""

import json

import pytest

from repro.abcast.messages import AckWithDiffusion, CombinedProposal
from repro.broadcast.reliable import RbMessage
from repro.consensus.messages import Ack, DecisionTag, DecisionValue, Estimate, Proposal
from repro.errors import NetworkError
from repro.net import message as message_module
from repro.net.message import NetMessage, decode_message, encode_message
from repro.net.wire import (
    WIRE_FORMAT_VERSION,
    check_version,
    decode_value,
    encode_value,
    wire_payload,
)
from repro.types import AppMessage, Batch, MessageId


def roundtrip(value):
    encoded = encode_value(value)
    json.dumps(encoded)  # must be JSON-representable
    return decode_value(encoded)


def batch(instance=0, *messages):
    return Batch(instance=instance, messages=tuple(messages))


class TestValueRoundtrip:
    def test_scalars(self):
        for value in (None, True, 0, -7, 3.25, "text", ""):
            assert roundtrip(value) == value

    def test_bytes(self):
        assert roundtrip(b"\x00\xffpayload") == b"\x00\xffpayload"

    def test_containers(self):
        value = {"a": (1, 2), "b": [frozenset({3, 4}), {"nested": "dict"}]}
        result = roundtrip(value)
        assert result == value
        assert isinstance(result["a"], tuple)
        assert isinstance(result["b"][0], frozenset)

    def test_non_string_dict_keys(self):
        value = {MessageId(1, 2): 3.5, 7: "seven"}
        assert roundtrip(value) == value

    def test_app_message_batch(self):
        value = batch(
            4,
            AppMessage(MessageId(0, 1), size=100, abcast_time=0.25),
            AppMessage(MessageId(2, 0), size=0, abcast_time=1.5),
        )
        assert roundtrip(value) == value

    def test_nested_protocol_payloads(self):
        proposal = CombinedProposal(
            proposal=Proposal(
                instance=3,
                round=1,
                value=batch(3, AppMessage(MessageId(1, 4), 10, 0.0)),
            ),
            decided=DecisionTag(instance=2, round=1),
        )
        assert roundtrip(proposal) == proposal

    def test_ack_with_diffusion(self):
        value = AckWithDiffusion(
            ack=Ack(instance=5, round=2),
            messages=(AppMessage(MessageId(0, 0), 8, 0.125),),
        )
        assert roundtrip(value) == value

    def test_rb_wrapped_decision(self):
        message = RbMessage(
            origin=1, seq=9, inner=DecisionTag(instance=5, round=2), inner_size=12
        )
        assert roundtrip(message) == message

    def test_unregistered_dataclass_rejected(self):
        import dataclasses

        @dataclasses.dataclass(frozen=True)
        class NotRegistered:
            x: int

        with pytest.raises(NetworkError):
            encode_value(NotRegistered(1))

    def test_unknown_tag_rejected(self):
        with pytest.raises(NetworkError):
            decode_value({"$t": "NoSuchTag", "f": {}})

    def test_wire_payload_rejects_non_dataclass(self):
        with pytest.raises(TypeError):
            wire_payload(type("Plain", (), {}))


class TestVersion:
    def test_current_version_accepted(self):
        check_version(WIRE_FORMAT_VERSION)

    def test_other_versions_rejected(self):
        for bad in (0, WIRE_FORMAT_VERSION + 1, None, "1"):
            with pytest.raises(NetworkError):
                check_version(bad)


class TestMessageRoundtrip:
    def message(self, payload=None):
        if payload is None:
            payload = Estimate(instance=1, round=2, value=batch(1), ts=0)
        return NetMessage(
            kind="estimate",
            module="consensus",
            src=0,
            dst=2,
            payload=payload,
            payload_size=64,
            header_size=12,
        )

    def test_roundtrip(self):
        message = self.message()
        decoded = decode_message(encode_message(message))
        assert decoded.kind == message.kind
        assert decoded.module == message.module
        assert decoded.src == message.src
        assert decoded.dst == message.dst
        assert decoded.payload == message.payload
        assert decoded.payload_size == message.payload_size
        assert decoded.header_size == message.header_size

    def test_roundtrip_decision_value(self):
        message = self.message(DecisionValue(instance=7, value=batch(7)))
        assert decode_message(encode_message(message)).payload == message.payload

    def test_malformed_json_rejected(self):
        with pytest.raises(NetworkError):
            decode_message(b"{not json")

    def test_non_object_rejected(self):
        with pytest.raises(NetworkError):
            decode_message(b"[1, 2, 3]")

    def test_wrong_version_rejected(self):
        doc = json.loads(encode_message(self.message()).decode("utf-8"))
        doc["v"] = WIRE_FORMAT_VERSION + 1
        with pytest.raises(NetworkError):
            decode_message(json.dumps(doc).encode("utf-8"))

    def test_missing_field_rejected(self):
        doc = json.loads(encode_message(self.message()).decode("utf-8"))
        del doc["module"]
        with pytest.raises(NetworkError):
            decode_message(json.dumps(doc).encode("utf-8"))

    def test_no_pickle_on_the_wire(self):
        encoded = encode_message(self.message())
        json.loads(encoded.decode("utf-8"))  # plain JSON text, not pickle


def app(sender, seq, size, at, payload=None):
    return AppMessage(MessageId(sender, seq), size, at, payload)


#: ``name -> (kind, module, payload, exact encode_message bytes)``; the
#: bytes were produced by the codec before its fast path existed and pin
#: the wire format (WIRE_FORMAT_VERSION 1) byte for byte.
GOLDEN = {
    "proposal": (
        "PROPOSAL",
        "consensus",
        Proposal(
            instance=3,
            round=1,
            value=Batch(3, (app(0, 1, 1024, 0.125), app(2, 7, 16, 1.5, "put k=v \u00e9"))),
        ),
        b'{"v":1,"kind":"PROPOSAL","module":"consensus","src":0,"dst":2,"payload":'
        b'{"$t":"Proposal","f":{"instance":3,"round":1,"value":{"$t":"Batch","f":'
        b'{"instance":3,"messages":{"$t":"tuple","items":[{"$t":"AppMessage","f":'
        b'{"msg_id":{"$t":"MessageId","f":{"sender":0,"seq":1}},"size":1024,'
        b'"abcast_time":0.125,"payload":null}},{"$t":"AppMessage","f":{"msg_id":'
        b'{"$t":"MessageId","f":{"sender":2,"seq":7}},"size":16,"abcast_time":1.5,'
        b'"payload":"put k=v \\u00e9"}}]}}}}},"payload_size":100,"header_size":12,'
        b'"uid":41}',
    ),
    "ack": (
        "ACK",
        "consensus",
        Ack(instance=5, round=2),
        b'{"v":1,"kind":"ACK","module":"consensus","src":0,"dst":2,"payload":'
        b'{"$t":"Ack","f":{"instance":5,"round":2}},"payload_size":100,'
        b'"header_size":12,"uid":41}',
    ),
    "rb-decision": (
        "RB",
        "broadcast",
        RbMessage(origin=1, seq=9, inner=DecisionTag(instance=5, round=2), inner_size=12),
        b'{"v":1,"kind":"RB","module":"broadcast","src":0,"dst":2,"payload":'
        b'{"$t":"RbMessage","f":{"origin":1,"seq":9,"inner":{"$t":"DecisionTag",'
        b'"f":{"instance":5,"round":2}},"inner_size":12}},"payload_size":100,'
        b'"header_size":12,"uid":41}',
    ),
    "ack-with-diffusion": (
        "ACK",
        "abcast",
        AckWithDiffusion(ack=Ack(instance=5, round=2), messages=(app(1, 4, 64, 0.25),)),
        b'{"v":1,"kind":"ACK","module":"abcast","src":0,"dst":2,"payload":'
        b'{"$t":"AckWithDiffusion","f":{"ack":{"$t":"Ack","f":{"instance":5,'
        b'"round":2}},"messages":{"$t":"tuple","items":[{"$t":"AppMessage","f":'
        b'{"msg_id":{"$t":"MessageId","f":{"sender":1,"seq":4}},"size":64,'
        b'"abcast_time":0.25,"payload":null}}]}}},"payload_size":100,'
        b'"header_size":12,"uid":41}',
    ),
    "combined-proposal": (
        "PROPOSAL",
        "abcast",
        CombinedProposal(
            proposal=Proposal(instance=4, round=1, value=Batch(4, (app(1, 5, 8, 2.0),))),
            decided=DecisionTag(instance=3, round=1),
        ),
        b'{"v":1,"kind":"PROPOSAL","module":"abcast","src":0,"dst":2,"payload":'
        b'{"$t":"CombinedProposal","f":{"proposal":{"$t":"Proposal","f":'
        b'{"instance":4,"round":1,"value":{"$t":"Batch","f":{"instance":4,'
        b'"messages":{"$t":"tuple","items":[{"$t":"AppMessage","f":{"msg_id":'
        b'{"$t":"MessageId","f":{"sender":1,"seq":5}},"size":8,"abcast_time":2.0,'
        b'"payload":null}}]}}}}},"decided":{"$t":"DecisionTag","f":{"instance":3,'
        b'"round":1}}}},"payload_size":100,"header_size":12,"uid":41}',
    ),
    "sync-resp-dict": (
        "SYNC_RESP",
        "recovery",
        {"from": 2, "entries": [[0, 1], [2, 5]], "next_instance": 7},
        b'{"v":1,"kind":"SYNC_RESP","module":"recovery","src":0,"dst":2,"payload":'
        b'{"$t":"dict","items":[["from",2],["entries",{"$t":"list","items":'
        b'[{"$t":"list","items":[0,1]},{"$t":"list","items":[2,5]}]}],'
        b'["next_instance",7]]},"payload_size":100,"header_size":12,"uid":41}',
    ),
    "bytes": (
        "RAW",
        "abcast",
        b"\x00\xffpayload",
        b'{"v":1,"kind":"RAW","module":"abcast","src":0,"dst":2,"payload":'
        b'{"$t":"bytes","hex":"00ff7061796c6f6164"},"payload_size":100,'
        b'"header_size":12,"uid":41}',
    ),
    "frozenset": (
        "SET",
        "abcast",
        frozenset({MessageId(1, 2), MessageId(0, 5), 3}),
        b'{"v":1,"kind":"SET","module":"abcast","src":0,"dst":2,"payload":'
        b'{"$t":"frozenset","items":[3,{"$t":"MessageId","f":{"sender":0,"seq":5}},'
        b'{"$t":"MessageId","f":{"sender":1,"seq":2}}]},"payload_size":100,'
        b'"header_size":12,"uid":41}',
    ),
}


def golden_message(kind, module, payload):
    return NetMessage(
        kind=kind, module=module, src=0, dst=2, payload=payload,
        payload_size=100, header_size=12, uid=41,
    )


class TestWireFormatPin:
    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_encoding_is_byte_identical(self, name):
        kind, module, payload, expected = GOLDEN[name]
        assert encode_message(golden_message(kind, module, payload)) == expected

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_golden_bytes_decode_to_the_payload(self, name):
        kind, module, payload, expected = GOLDEN[name]
        decoded = decode_message(expected)
        assert (decoded.kind, decoded.module, decoded.uid) == (kind, module, 41)
        assert decoded.payload == payload
        assert type(decoded.payload) is type(payload)

    def test_format_version_is_still_one(self):
        assert WIRE_FORMAT_VERSION == 1

    def test_repeated_registered_payload_is_encoded_once(self, monkeypatch):
        calls = []
        real = message_module.encode_value
        monkeypatch.setattr(
            message_module, "encode_value", lambda v: calls.append(v) or real(v)
        )
        payload = GOLDEN["ack"][2]
        frames = [encode_message(golden_message("ACK", "consensus", payload)) for __ in range(3)]
        assert len(calls) == 1
        assert frames == [GOLDEN["ack"][3]] * 3

    def test_mutated_dict_payload_is_reencoded(self):
        payload = {"from": 0, "entries": []}
        first = decode_message(encode_message(golden_message("SYNC_RESP", "recovery", payload)))
        payload["entries"].append([1, 2])
        payload["from"] = 5
        second = decode_message(encode_message(golden_message("SYNC_RESP", "recovery", payload)))
        assert first.payload == {"from": 0, "entries": []}
        assert second.payload == {"from": 5, "entries": [[1, 2]]}

    def test_malformed_payload_structure_raises_network_error(self):
        for body in (
            b'{"v":1,"kind":"k","module":"m","src":0,"dst":1,"payload":'
            b'{"$t":"tuple","items":5},"payload_size":0,"header_size":0,"uid":1}',
            b'{"v":1,"kind":"k","module":"m","src":0,"dst":1,"payload":'
            b'{"$t":"bytes","hex":"zz"},"payload_size":0,"header_size":0,"uid":1}',
            b'{"v":1,"kind":"k","module":"m","src":0,"dst":1,"payload":'
            b'{"$t":"Ack","f":{"nope":1}},"payload_size":0,"header_size":0,"uid":1}',
            b"\xff\xfe",
        ):
            with pytest.raises(NetworkError):
                decode_message(body)
