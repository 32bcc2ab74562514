"""Checkable JSON certificates for search results.

A certificate embeds its own canonicalized inputs, the parameters of the
claim, and a witness. Verification recomputes membership facts from inputs
plus witness only; it never re-runs any search. Two digests bind the pieces
together: ``input_digest`` hashes the canonical inputs, ``digest`` hashes
the whole body (everything except itself and the ``created`` timestamp), so
any single-field edit is detectable. Serialization is sorted-key JSON with
no floating-point values, identical bytes for identical runs apart from
``created``.

The table ``_CLAIMS`` is the single source of the certificate kinds (README
lists them): each kind's row names its input keys, its parameter and witness
fields, its truncation notes and the verifier that re-checks it, which lives
beside the kind's search. ``_FIELDS`` holds each field's JSON shape, its
encoder and its decoder, so a field is written beside where it is read:
``certify`` places a kind's values by its row and writes each one through
its field, and ``verify_certificate`` decodes each one back. This module
holds no semantic check of its own. Only the evidence that a chain's kind
adds is written and read by hand, by ``chain_certificate`` and
``_chain_report``.

One asymmetry is deliberate: a "vdw" certificate whose verdict is "false"
carries the counterexample coloring and is re-checked independently, while a
"true" verdict is a universal claim with no succinct witness, so only its
integrity and well-formedness are checked.
"""

from __future__ import annotations

import hashlib
import json
import time
from typing import Callable, NamedTuple, Optional

from ._version import __version__
from .dsl import parse_dsl, print_expr
from .fileformats import (
    read_chain,
    read_family,
    read_family2d,
    read_intset,
    write_chain,
    write_family,
    write_family2d,
    write_intset,
)
from .jsets import JWitness, verify_jwitness, verify_transfer_witness
from .largeness import PwsWitness, verify_pws_claim, verify_vdw_claim
from .lift import Box2D, verify_ap, verify_pws2d_claim
from .sets import IntSet, SetExpr, Window, evaluate
from .towers import KIND_QUASI_CENTRAL, Chain, ChainReport, TranslateProbe, verify_chain_report

SCHEMA = "aplift.cert/1"


class _Claim(NamedTuple):
    inputs: tuple[str, ...]  # "set" stands for expr and window, or set_text
    params: tuple[str, ...]
    witness: tuple[str, ...]
    truncation: tuple[str, ...]
    verify: Callable[..., bool]  # takes the decoded fields in row order
    recorded: tuple[str, ...] = ()  # witness fields written for the reader only


_SUMS = "sums landing outside the window count as non-members"
_CLIPPED = "pairs whose progression leaves the window are excluded from the lift"
_SHIFTED = "translate inclusions are checked on the window truncated by each shift"
_CLAIMS = {
    "ap": _Claim(("set",), ("l",), ("a", "d"), (), verify_ap),
    "pws": _Claim(("set",), ("r", "L"), ("start",), (), verify_pws_claim),
    "pws2d": _Claim(
        ("set",), ("l", "box", "r1", "r2", "L1", "L2"), ("a0", "d0"), (_CLIPPED,), verify_pws2d_claim
    ),
    "jset": _Claim(("set", "family"), ("a_max",), ("a", "H"), (_SUMS,), verify_jwitness),
    "jset2d": _Claim(
        ("set", "family2d"), ("b", "l", "a_max"), ("a1", "a2", "H"), (_SUMS, _CLIPPED),
        verify_transfer_witness,
    ),
    # the chain's kind adds r and L, or families and a_max, and shapes the
    # levels; _chain_report turns them into the report the verifier takes
    "chain": _Claim(("chain",), ("x_max",), ("translate", "levels"), (_SHIFTED,), verify_chain_report),
    "vdw": _Claim(
        ("n", "colors", "ap_len"), (), ("verdict", "coloring"), (), verify_vdw_claim,
        recorded=("strategy", "explored"),
    ),
}
CERT_KINDS = tuple(_CLAIMS)


class CertificateError(Exception):
    pass


class DigestMismatch(CertificateError):
    pass


class UnknownKind(CertificateError):
    pass


class MalformedPayload(CertificateError):
    pass


def canonical_json(obj) -> str:
    try:
        return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=True)
    except RecursionError:
        raise MalformedPayload("certificate is nested too deeply") from None


def _sha(text: str) -> str:
    return "sha256:" + hashlib.sha256(text.encode("utf-8")).hexdigest()


def build_certificate(kind: str, inputs: dict, params: dict, witness: dict) -> dict:
    if kind not in CERT_KINDS:
        raise ValueError(f"unknown certificate kind {kind!r}")
    body = {
        "schema": SCHEMA,
        "kind": kind,
        "tool_version": __version__,
        "inputs": inputs,
        "params": params,
        "witness": witness,
        "truncation": list(_CLAIMS[kind].truncation),
        "input_digest": _sha(canonical_json(inputs)),
    }
    body["digest"] = _sha(canonical_json(body))
    body["created"] = time.strftime("%Y-%m-%dT%H:%M:%S+00:00", time.gmtime())
    return body


def dumps_certificate(cert: dict) -> str:
    return json.dumps(cert, sort_keys=True, indent=2, ensure_ascii=True) + "\n"


# --- input descriptors -------------------------------------------------------


def inputs_for_expr(expr: SetExpr, window: Window) -> dict:
    return {"expr": print_expr(expr), "window": [window.lo, window.hi]}


def inputs_for_set(A: IntSet) -> dict:
    return {"set_text": write_intset(A)}


def inputs_for_set_text(text: str) -> dict:
    return inputs_for_set(read_intset(text))


# --- fields ------------------------------------------------------------------


def _is_text(v) -> bool:
    return isinstance(v, str)


def _is_ints(v, length: Optional[int] = None) -> bool:
    return isinstance(v, list) and length in (None, len(v)) and all(isinstance(t, int) for t in v)


class _Field(NamedTuple):
    what: str  # the shape the JSON value must have, for the error message
    accepts: Callable[[object], bool]
    decode: Optional[Callable] = None  # None keeps the JSON value as it is
    encode: Optional[Callable] = None  # None writes the value as it is given


_POSITIVE = _Field(
    "an integer >= 1", lambda v: isinstance(v, int) and not isinstance(v, bool) and v >= 1
)
_FIELDS = {
    **dict.fromkeys(
        ("l", "a", "d", "r", "L", "start", "r1", "r2", "L1", "L2", "a0", "d0", "a_max", "b",
         "a1", "a2", "x_max", "pws_start", "n", "colors", "ap_len"),
        _POSITIVE,
    ),
    "H": _Field("a list of integers", _is_ints, tuple, list),
    "box": _Field(
        "[a_lo, a_hi, d_lo, d_hi]", lambda v: _is_ints(v, 4), lambda v: Box2D(*v),
        lambda b: [b.a_lo, b.a_hi, b.d_lo, b.d_hi],
    ),
    "expr": _Field("a text", _is_text, lambda v: parse_dsl(v).expr),
    "window": _Field("[lo, hi]", lambda v: _is_ints(v, 2), lambda v: Window(*v)),
    "set_text": _Field("a text", _is_text, read_intset),
    "family": _Field("a text", _is_text, read_family, write_family),
    "family2d": _Field("a text", _is_text, read_family2d, write_family2d),
    "chain": _Field("a text", _is_text, read_chain),
    "families": _Field(
        "a list of texts",
        lambda v: isinstance(v, list) and all(map(_is_text, v)),
        lambda v: tuple(map(read_family, v)),
    ),
    "translate": _Field(
        "a list of [level, x, found_level]",
        lambda v: isinstance(v, list) and all(_is_ints(e, 3) for e in v),
        lambda v: tuple(TranslateProbe(*e) for e in v),
    ),
    "levels": _Field("a list", lambda v: isinstance(v, list)),
    "jset": _Field("a list", lambda v: isinstance(v, list)),
    "verdict": _Field("'true' or 'false'", lambda v: v in ("true", "false")),
    "coloring": _Field(
        "null or a list of integers", lambda v: v is None or _is_ints(v),
        encode=lambda v: None if v is None else list(v),
    ),
}


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise MalformedPayload(msg)


def _field(section: dict, name: str):
    """Decode one field by its name; a shape the name does not accept is malformed."""
    _require(isinstance(section, dict), f"the evidence holding {name} must be an object")
    if name == "set":
        if "expr" in section:
            return evaluate(_field(section, "expr"), _field(section, "window"))
        _require("set_text" in section, "inputs carry neither an expression nor a set text")
        return _field(section, "set_text")
    field = _FIELDS[name]
    value = section.get(name)
    _require(field.accepts(value), f"{name} must be {field.what}")
    return value if field.decode is None else field.decode(value)


# --- certificate builders ----------------------------------------------------


def certify(kind: str, set_inputs: dict, **values) -> dict:
    """Certificate of any kind but the chain, from the values its row names.

    ``set_inputs`` holds the set's own keys (``inputs_for_expr`` or
    ``inputs_for_set``), or nothing for a kind without a set. Each value is
    written through its field's encoder, and a written value that its field
    would not read back raises ``ValueError``: so only a decided vdw verdict
    is certifiable. The ``recorded`` fields are written as given.
    """
    claim = _CLAIMS.get(kind)
    if claim is None or kind == "chain":
        raise ValueError(f"certify builds no {kind!r} certificate (a chain's is chain_certificate's)")
    sections = ([n for n in claim.inputs if n != "set"], claim.params, claim.witness + claim.recorded)
    names = [name for section in sections for name in section]
    if values.keys() != set(names):
        raise TypeError(f"a {kind} certificate takes {', '.join(names)}")
    inputs, params, witness = ({n: _write(n, values[n]) for n in section} for section in sections)
    return build_certificate(kind, dict(set_inputs, **inputs), params, witness)


def _write(name: str, value):
    """Encode one field by its name; a value the name would not decode is refused."""
    field = _FIELDS.get(name)
    if field is None:  # a recorded field
        return value
    if field.encode is not None:
        value = field.encode(value)
    if not field.accepts(value):
        raise ValueError(f"{name} must be {field.what}")
    return value


def chain_certificate(chain: Chain, report: ChainReport) -> dict:
    """Certificate for a passing chain report (failing runs have no witness)."""
    if not report.passed:
        raise ValueError("only passing chain reports are certifiable")
    inputs: dict = {"chain": write_chain(chain)}
    params: dict = {"x_max": report.x_max}
    witness: dict = {
        "translate": [[p.level, p.x, p.found_level] for p in report.probes]
    }
    if report.kind == KIND_QUASI_CENTRAL:
        params["r"] = report.r
        params["L"] = report.L
        witness["levels"] = [{"pws_start": w.start} for w in report.pws_witnesses]
    else:
        params["a_max"] = report.a_max
        inputs["families"] = [write_family(F) for F in report.families]
        witness["levels"] = [
            {"jset": [{"a": w.a, "H": list(w.H)} for w in per_level]}
            for per_level in report.jset_witnesses
        ]
    return build_certificate("chain", inputs, params, witness)


# --- verification ------------------------------------------------------------


def _chain_report(
    chain: Chain, x_max: int, translate: tuple, levels: list, inputs: dict, params: dict
) -> ChainReport:
    """Reshape a chain certificate into the report ``verify_chain_report``
    re-checks; the chain's kind says which fields its level evidence needs."""
    if chain.kind == KIND_QUASI_CENTRAL:
        r, L = _field(params, "r"), _field(params, "L")
        pws = tuple(PwsWitness(r, _field(ev, "pws_start"), L) for ev in levels)
        return ChainReport(chain.kind, x_max, translate, r=r, L=L, pws_witnesses=pws)
    jset = tuple(
        tuple(JWitness(_field(w, "a"), _field(w, "H")) for w in _field(ev, "jset")) for ev in levels
    )
    return ChainReport(
        chain.kind, x_max, translate,
        families=_field(inputs, "families"), a_max=_field(params, "a_max"), jset_witnesses=jset,
    )


def verify_certificate(cert: dict, inputs: Optional[dict] = None) -> bool:
    """Re-check a certificate. Returns the semantic verdict of the witness.

    Raises DigestMismatch when either digest fails, UnknownKind for an
    unrecognized kind, MalformedPayload for structural defects. Passing
    ``inputs`` checks the claim against those instead of the embedded copy;
    they must hash to the recorded input digest.
    """
    _require(isinstance(cert, dict), "certificate must be an object")
    for key in ("schema", "kind", "inputs", "params", "witness", "digest", "input_digest"):
        _require(key in cert, f"missing field {key!r}")
    _require(cert["schema"] == SCHEMA, f"unsupported schema {cert.get('schema')!r}")
    kind = cert["kind"]
    if kind not in CERT_KINDS:
        raise UnknownKind(f"unknown certificate kind {kind!r}")

    body = {k: v for k, v in cert.items() if k not in ("digest", "created")}
    if _sha(canonical_json(body)) != cert["digest"]:
        raise DigestMismatch("certificate digest does not match its content")
    if inputs is None:
        inputs = cert["inputs"]
    if _sha(canonical_json(inputs)) != cert["input_digest"]:
        raise DigestMismatch("inputs do not match the recorded input digest")

    _require(isinstance(inputs, dict), "inputs must be an object")
    params, witness = cert["params"], cert["witness"]
    _require(isinstance(params, dict), "params must be an object")
    _require(isinstance(witness, dict), "witness must be an object")
    claim = _CLAIMS[kind]
    fields = ((inputs, claim.inputs), (params, claim.params), (witness, claim.witness))
    try:
        args = [_field(section, name) for section, names in fields for name in names]
        if kind == "chain":
            args = [args[0], _chain_report(*args, inputs, params)]
        return claim.verify(*args)
    except CertificateError:
        raise
    except (ValueError, TypeError, KeyError, IndexError):
        # structurally plausible but semantically unusable payloads
        return False
