"""Versioned JSON schemas for the compile service.

One request kind travels over the wire — ``compile``: take a function
(workload name or assembly text) through one Section 10.1 setup under a
chosen :class:`~repro.machine.spec.LowEndConfig`, and return the
allocation, the :class:`~repro.machine.lowend.CycleReport` and the
encoding statistics.  Health and stats are plain GET endpoints and need
no schema.

Three properties the rest of the service leans on:

* **Canonical bytes.**  :func:`encode_message` is deterministic
  (``sort_keys``, fixed separators), so "byte-identical" is a meaningful
  contract between direct in-process runs, cold server compiles and warm
  store hits — and the artifact store can cache response bytes directly.
* **Normalisation before keying.**  :func:`normalize_request` fills every
  default, so two requests that differ only in spelled-out defaults hash
  to the same cache key.
* **Shared failure machinery.**  Envelope validation reuses
  :func:`repro.diagnostics.check_format_version`, and error envelopes carry
  :class:`repro.diagnostics.Diagnostic` objects so parser and lint
  findings render identically on both sides of the wire.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Dict, List, Optional, Tuple

from repro.diagnostics import (Diagnostic, DiagnosticReport, FormatError,
                               Location, Severity, check_format_version)
from repro.machine.spec import LOWEND, LowEndConfig
from repro.regalloc.pipeline import SETUPS

__all__ = [
    "SCHEMA_VERSION",
    "ERROR_CATALOG",
    "ProtocolError",
    "normalize_request",
    "build_compile_request",
    "cache_key",
    "encode_message",
    "decode_message",
    "ok_response",
    "error_response",
    "protocol_error_response",
    "diagnostic_for_exception",
    "http_status",
]

#: Bumped whenever a request or response field changes meaning.  Part of
#: every message and of the artifact-store cache key, so a schema change
#: can never serve stale artifacts.
SCHEMA_VERSION = 1

#: code -> (slug, HTTP status).  Codes are stable ids in the same spirit
#: as the lint rules (L001-) and the CLI diagnostics (CLI01).
ERROR_CATALOG: Dict[str, Tuple[str, int]] = {
    "SVC01": ("bad-json", 400),
    "SVC02": ("bad-version", 400),
    "SVC03": ("bad-request", 400),
    "SVC04": ("unknown-setup", 400),
    "SVC05": ("unknown-workload", 404),
    "SVC06": ("parse-error", 400),
    "SVC07": ("pipeline-error", 422),
    "SVC08": ("exec-error", 422),
    "SVC09": ("timeout", 504),
    "SVC10": ("queue-full", 429),
    "SVC11": ("draining", 503),
    "SVC12": ("internal-error", 500),
    "SVC13": ("worker-crash", 500),
}

#: LowEndConfig fields a request may override: every scalar numeric knob
#: (``extra_latency`` and ``name`` stay server-side).  Maps field name to
#: the expected python type.
MACHINE_FIELDS: Dict[str, type] = {
    f.name: type(getattr(LOWEND, f.name))
    for f in dataclasses.fields(LowEndConfig)
    if isinstance(getattr(LOWEND, f.name), (int, float))
}

_OPTION_DEFAULTS: Dict[str, object] = {
    "base_k": 8,
    "reg_n": 12,
    "diff_n": 8,
    "access_order": "src_first",
    "restarts": 50,
    "seed": 0,
    "profile": False,
}

_ACCESS_ORDERS = ("src_first", "dst_first", "two_address")


class ProtocolError(FormatError):
    """A request the service must reject, with its wire representation.

    Carries the stable error ``code`` (see :data:`ERROR_CATALOG`), the
    HTTP status the server should answer with, and optionally structured
    diagnostics (a parse error's location, for example).
    """

    def __init__(self, code: str, message: str,
                 diagnostics: Optional[List[Diagnostic]] = None,
                 retry_after: Optional[int] = None) -> None:
        self.code = code
        self.slug, self.http_status = ERROR_CATALOG[code]
        self.retry_after = retry_after
        super().__init__(f"{code}/{self.slug}: {message}",
                         DiagnosticReport(list(diagnostics or ())))
        self.message = message


def _bad(message: str, code: str = "SVC03") -> ProtocolError:
    return ProtocolError(code, message)


def _require_int(value: object, what: str, minimum: int = 0) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise _bad(f"{what} must be an integer, got {value!r}")
    if value < minimum:
        raise _bad(f"{what} must be >= {minimum}, got {value}")
    return value


def normalize_request(data: object) -> Dict[str, object]:
    """Validate a raw decoded request and fill every default.

    Returns the canonical request dict — the form :func:`cache_key`
    hashes and :func:`repro.service.server.execute_request` consumes —
    or raises :class:`ProtocolError`.
    """
    try:
        check_format_version(data, supported=(SCHEMA_VERSION,),
                             version_field="v")
    except ProtocolError:
        raise
    except FormatError as exc:
        raise ProtocolError("SVC02", str(exc.args[0]).splitlines()[0],
                            exc.diagnostics) from None
    assert isinstance(data, dict)

    known = {"v", "op", "source", "setup", "options", "machine", "args",
             "simulate", "debug_sleep"}
    unknown = sorted(set(data) - known)
    if unknown:
        raise _bad(f"unknown request field(s): {', '.join(unknown)}")

    if data.get("op", "compile") != "compile":
        raise _bad(f"unknown op {data.get('op')!r}; this schema version "
                   "only defines 'compile'")

    source = data.get("source")
    if not isinstance(source, dict) or \
            sorted(source) not in (["text"], ["workload"]):
        raise _bad("source must be {\"workload\": name} or {\"text\": asm}")
    src_kind, src_value = next(iter(source.items()))
    if not isinstance(src_value, str) or not src_value:
        raise _bad(f"source.{src_kind} must be a non-empty string")

    setup = data.get("setup", "remapping")
    if setup not in SETUPS:
        raise ProtocolError(
            "SVC04", f"unknown setup {setup!r}; expected one of "
            f"{', '.join(SETUPS)}")

    raw_options = data.get("options", {})
    if not isinstance(raw_options, dict):
        raise _bad("options must be an object")
    unknown = sorted(set(raw_options) - set(_OPTION_DEFAULTS))
    if unknown:
        raise _bad(f"unknown option(s): {', '.join(unknown)}")
    options = dict(_OPTION_DEFAULTS)
    options.update(raw_options)
    for field in ("base_k", "reg_n", "diff_n"):
        options[field] = _require_int(options[field], f"options.{field}", 1)
    options["restarts"] = _require_int(options["restarts"],
                                       "options.restarts", 0)
    options["seed"] = _require_int(options["seed"], "options.seed", 0)
    if options["access_order"] not in _ACCESS_ORDERS:
        raise _bad(f"options.access_order must be one of "
                   f"{', '.join(_ACCESS_ORDERS)}")
    if not isinstance(options["profile"], bool):
        raise _bad("options.profile must be a boolean")
    if options["diff_n"] > options["reg_n"]:
        raise _bad(f"options.diff_n ({options['diff_n']}) cannot exceed "
                   f"options.reg_n ({options['reg_n']})")

    raw_machine = data.get("machine", {})
    if not isinstance(raw_machine, dict):
        raise _bad("machine must be an object of LowEndConfig overrides")
    machine: Dict[str, object] = {}
    for field in sorted(raw_machine):
        if field not in MACHINE_FIELDS:
            raise _bad(f"unknown machine field {field!r}; overridable: "
                       f"{', '.join(sorted(MACHINE_FIELDS))}")
        value = raw_machine[field]
        if MACHINE_FIELDS[field] is int:
            machine[field] = _require_int(value, f"machine.{field}", 0)
        else:
            if isinstance(value, bool) or \
                    not isinstance(value, (int, float)):
                raise _bad(f"machine.{field} must be a number, "
                           f"got {value!r}")
            machine[field] = float(value)

    args = data.get("args")
    if args is not None:
        if not isinstance(args, list) or \
                any(isinstance(a, bool) or not isinstance(a, int)
                    for a in args):
            raise _bad("args must be a list of integers (or null for "
                       "the workload's defaults)")
        args = list(args)

    simulate = data.get("simulate", True)
    if not isinstance(simulate, bool):
        raise _bad("simulate must be a boolean")

    debug_sleep = data.get("debug_sleep", 0)
    if isinstance(debug_sleep, bool) or \
            not isinstance(debug_sleep, (int, float)) or debug_sleep < 0:
        raise _bad("debug_sleep must be a non-negative number")

    return {
        "v": SCHEMA_VERSION,
        "op": "compile",
        "source": {src_kind: src_value},
        "setup": setup,
        "options": options,
        "machine": machine,
        "args": args,
        "simulate": simulate,
        "debug_sleep": float(debug_sleep),
    }


def build_compile_request(workload: Optional[str] = None,
                          text: Optional[str] = None,
                          setup: str = "remapping",
                          args: Optional[List[int]] = None,
                          simulate: bool = True,
                          machine: Optional[Dict[str, object]] = None,
                          debug_sleep: float = 0.0,
                          **options: object) -> Dict[str, object]:
    """Assemble a raw compile request (CLI / python-API convenience).

    Exactly one of ``workload``/``text`` must be given; keyword options
    (``reg_n=16`` ...) land in the request's ``options`` object.  The
    result still goes through :func:`normalize_request` server-side.
    """
    if (workload is None) == (text is None):
        raise ValueError("exactly one of workload/text is required")
    source = {"workload": workload} if workload is not None else \
        {"text": text}
    request: Dict[str, object] = {
        "v": SCHEMA_VERSION, "op": "compile", "source": source,
        "setup": setup, "simulate": simulate,
    }
    if args is not None:
        request["args"] = list(args)
    if machine:
        request["machine"] = dict(machine)
    if options:
        request["options"] = dict(options)
    if debug_sleep:
        request["debug_sleep"] = debug_sleep
    return request


def cache_key(normalized: Dict[str, object], fn_digest: str) -> str:
    """The content address of one compile's artifact.

    Hashes the *function* digest (so a workload name and the identical
    assembly text share an entry) together with everything else that can
    change the response bytes: setup, options, machine overrides, args,
    the simulate flag — and the schema version, so a protocol bump never
    serves an old-format artifact.  ``debug_sleep`` is deliberately
    excluded: it changes latency, never bytes.
    """
    material = json.dumps({
        "schema": SCHEMA_VERSION,
        "fn": fn_digest,
        "setup": normalized["setup"],
        "options": normalized["options"],
        "machine": normalized["machine"],
        "args": normalized["args"],
        "simulate": normalized["simulate"],
    }, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(material.encode()).hexdigest()


def encode_message(doc: Dict[str, object]) -> bytes:
    """Canonical wire bytes: sorted keys, minimal separators, ASCII."""
    return json.dumps(doc, sort_keys=True,
                      separators=(",", ":")).encode("ascii")


def decode_message(raw: bytes) -> Dict[str, object]:
    """Parse wire bytes; malformed input raises ``SVC01/bad-json``."""
    try:
        data = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError("SVC01", f"request is not valid JSON: {exc}") \
            from None
    if not isinstance(data, dict):
        raise ProtocolError("SVC01", "request must be a JSON object")
    return data


def ok_response(result: Dict[str, object]) -> Dict[str, object]:
    """The success envelope."""
    return {"v": SCHEMA_VERSION, "ok": True, "result": result}


def error_response(code: str, message: str,
                   diagnostics: Optional[List[Diagnostic]] = None,
                   retry_after: Optional[int] = None) -> Dict[str, object]:
    """The failure envelope (also built from a caught ProtocolError)."""
    slug, _status = ERROR_CATALOG[code]
    error: Dict[str, object] = {
        "code": code, "name": slug, "message": message,
        "diagnostics": [d.to_dict() for d in diagnostics or ()],
    }
    if retry_after is not None:
        error["retry_after"] = retry_after
    return {"v": SCHEMA_VERSION, "ok": False, "error": error}


def http_status(response: Dict[str, object]) -> int:
    """The HTTP status a response envelope maps to (200 for success)."""
    if response.get("ok"):
        return 200
    error = response.get("error")
    code = error.get("code") if isinstance(error, dict) else None
    if isinstance(code, str) and code in ERROR_CATALOG:
        return ERROR_CATALOG[code][1]
    return 500


def protocol_error_response(exc: ProtocolError) -> Dict[str, object]:
    """Envelope for a caught :class:`ProtocolError`."""
    return error_response(exc.code, exc.message, exc.diagnostics,
                          exc.retry_after)


def diagnostic_for_exception(message: str, file: Optional[str] = None
                             ) -> Diagnostic:
    """A bare ERROR diagnostic for failures with no structured origin."""
    return Diagnostic(rule="SVC00", name="service", severity=Severity.ERROR,
                      message=message, location=Location(file=file))
