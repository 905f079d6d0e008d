"""Service protocol tests: schemas, normalisation, keys, envelopes."""

import json

import pytest

from repro.diagnostics import FormatError, check_format_version
from repro.service.protocol import (ERROR_CATALOG, MACHINE_FIELDS,
                                    SCHEMA_VERSION, ProtocolError,
                                    build_compile_request, cache_key,
                                    decode_message, encode_message,
                                    error_response, http_status,
                                    normalize_request, ok_response,
                                    protocol_error_response)


def _request(**overrides):
    base = {"v": 1, "source": {"workload": "sha"}}
    base.update(overrides)
    return base


class TestNormalize:
    def test_defaults_filled(self):
        req = normalize_request(_request())
        assert req["setup"] == "remapping"
        assert req["options"] == {
            "base_k": 8, "reg_n": 12, "diff_n": 8,
            "access_order": "src_first", "restarts": 50, "seed": 0,
            "profile": False,
        }
        assert req["simulate"] is True
        assert req["args"] is None
        assert req["machine"] == {}
        assert req["debug_sleep"] == 0.0

    def test_explicit_defaults_normalize_identically(self):
        spelled = normalize_request(_request(
            op="compile", setup="remapping", simulate=True,
            options={"reg_n": 12}, machine={}, args=None))
        assert spelled == normalize_request(_request())

    def test_version_check_shared_with_persist_helper(self):
        # the protocol rides the shared diagnostics envelope helper
        with pytest.raises(FormatError):
            check_format_version({"v": 2}, supported=(SCHEMA_VERSION,),
                                 version_field="v")
        with pytest.raises(ProtocolError) as excinfo:
            normalize_request(_request(v=2))
        assert excinfo.value.code == "SVC02"

    @pytest.mark.parametrize("mutate, code", [
        (lambda r: r.pop("source"), "SVC03"),
        (lambda r: r.update(source={"workload": "a", "text": "b"}), "SVC03"),
        (lambda r: r.update(source={"workload": ""}), "SVC03"),
        (lambda r: r.update(setup="quantum"), "SVC04"),
        (lambda r: r.update(options={"bogus": 1}), "SVC03"),
        (lambda r: r.update(options={"reg_n": -1}), "SVC03"),
        (lambda r: r.update(options={"reg_n": 4, "diff_n": 9}), "SVC03"),
        (lambda r: r.update(options={"access_order": "zigzag"}), "SVC03"),
        (lambda r: r.update(machine={"warp_drive": 1}), "SVC03"),
        (lambda r: r.update(machine={"icache_size": "big"}), "SVC03"),
        (lambda r: r.update(args=[1, "two"]), "SVC03"),
        (lambda r: r.update(simulate="yes"), "SVC03"),
        (lambda r: r.update(debug_sleep=-1), "SVC03"),
        (lambda r: r.update(surprise=True), "SVC03"),
        (lambda r: r.update(op="decompile"), "SVC03"),
    ])
    def test_rejections(self, mutate, code):
        raw = _request()
        mutate(raw)
        with pytest.raises(ProtocolError) as excinfo:
            normalize_request(raw)
        assert excinfo.value.code == code

    def test_machine_overrides_validated_and_kept(self):
        req = normalize_request(_request(
            machine={"icache_size": 4096, "energy_cache_miss": 12}))
        assert req["machine"] == {"icache_size": 4096,
                                  "energy_cache_miss": 12.0}

    def test_machine_whitelist_covers_the_numeric_scalars(self):
        assert "icache_size" in MACHINE_FIELDS
        assert "cache_miss_penalty" in MACHINE_FIELDS
        assert "extra_latency" not in MACHINE_FIELDS
        assert "name" not in MACHINE_FIELDS


class TestCacheKey:
    def test_debug_sleep_never_changes_the_key(self):
        a = normalize_request(_request())
        b = normalize_request(_request(debug_sleep=9.5))
        assert cache_key(a, "f" * 64) == cache_key(b, "f" * 64)

    def test_every_other_knob_changes_the_key(self):
        base = cache_key(normalize_request(_request()), "f" * 64)
        variants = [
            _request(setup="coalesce"),
            _request(options={"restarts": 3}),
            _request(options={"seed": 7}),
            _request(machine={"icache_size": 1024}),
            _request(args=[9]),
            _request(simulate=False),
        ]
        keys = {cache_key(normalize_request(v), "f" * 64)
                for v in variants}
        assert base not in keys and len(keys) == len(variants)

    def test_function_digest_changes_the_key(self):
        req = normalize_request(_request())
        assert cache_key(req, "a" * 64) != cache_key(req, "b" * 64)


class TestWire:
    def test_canonical_encoding_is_stable(self):
        doc = {"b": 1, "a": {"z": 2.5, "y": [1, 2]}}
        assert encode_message(doc) == encode_message(
            json.loads(encode_message(doc)))

    def test_decode_rejects_garbage(self):
        for raw in (b"{not json", b"[1,2]", b"\xff\xfe"):
            with pytest.raises(ProtocolError) as excinfo:
                decode_message(raw)
            assert excinfo.value.code == "SVC01"

    def test_envelopes_and_status_mapping(self):
        assert http_status(ok_response({"x": 1})) == 200
        for code, (slug, status) in ERROR_CATALOG.items():
            envelope = error_response(code, "boom")
            assert envelope["error"]["name"] == slug
            assert http_status(envelope) == status
        assert http_status({"ok": False, "error": {"code": "???"}}) == 500

    def test_protocol_error_round_trip(self):
        exc = ProtocolError("SVC10", "queue is full", retry_after=3)
        envelope = protocol_error_response(exc)
        assert envelope["error"]["retry_after"] == 3
        assert http_status(envelope) == 429

    def test_parse_diagnostics_travel_in_the_envelope(self):
        from repro.service.client import compile_local

        envelope, _body = compile_local(
            _request(source={"text": "func broken(\n"}))
        assert not envelope["ok"]
        assert envelope["error"]["code"] == "SVC06"
        assert envelope["error"]["diagnostics"], \
            "parse errors must carry their diagnostic"


class TestBuildCompileRequest:
    def test_requires_exactly_one_source(self):
        with pytest.raises(ValueError):
            build_compile_request()
        with pytest.raises(ValueError):
            build_compile_request(workload="sha", text="x")

    def test_options_land_in_the_options_object(self):
        raw = build_compile_request(workload="sha", reg_n=16, restarts=5)
        req = normalize_request(raw)
        assert req["options"]["reg_n"] == 16
        assert req["options"]["restarts"] == 5
