"""Checkable JSON certificates for search results.

A certificate embeds its own canonicalized inputs, the parameters of the
claim, and a witness. Verification recomputes membership facts from inputs
plus witness only; it never re-runs any search. Two digests bind the pieces
together: ``input_digest`` hashes the canonical inputs, ``digest`` hashes
the whole body (everything except itself and the ``created`` timestamp), so
any single-field edit is detectable. Serialization is sorted-key JSON with
no floating-point values, identical bytes for identical runs apart from
``created``.

This module only encodes and decodes claims; each check lives beside its
search (``verify_ap``, ``verify_pws_witness``, ``verify_jwitness``,
``verify_transfer_witness``, ``verify_chain_report``).

One asymmetry is deliberate: a "vdw" certificate whose verdict is "false"
carries the counterexample coloring and is re-checked independently, while a
"true" verdict is a universal claim with no succinct witness, so only its
integrity and well-formedness are checked.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace
from datetime import datetime, timezone
from typing import Optional

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
from .jsets import FuncFamily, FuncFamily2D, JWitness, JWitness2D, verify_jwitness, verify_transfer_witness
from .largeness import PwsWitness, VdwResult, _has_mono_ap, verify_pws_witness
from .lift import APWitness, Box2D, is_syndetic_2d, lift, verify_ap
from .sets import IntSet, SetExpr, Window, evaluate
from .towers import KIND_QUASI_CENTRAL, Chain, ChainReport, TranslateProbe, verify_chain_report

SCHEMA = "aplift.cert/1"
CERT_KINDS = ("ap", "pws", "pws2d", "jset", "jset2d", "chain", "vdw")

_TRUNCATION_NOTES = {
    "ap": [],
    "pws": [],
    "pws2d": ["pairs whose progression leaves the window are excluded from the lift"],
    "jset": ["sums landing outside the window count as non-members"],
    "jset2d": [
        "sums landing outside the window count as non-members",
        "pairs whose progression leaves the window are excluded from the lift",
    ],
    "chain": ["translate inclusions are checked on the window truncated by each shift"],
    "vdw": [],
}


class CertificateError(Exception):
    pass


class DigestMismatch(CertificateError):
    pass


class UnknownKind(CertificateError):
    pass


class MalformedPayload(CertificateError):
    pass


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=True)


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
        "truncation": list(_TRUNCATION_NOTES[kind]),
        "input_digest": _sha(canonical_json(inputs)),
    }
    body["digest"] = _sha(canonical_json(body))
    body["created"] = datetime.now(timezone.utc).isoformat(timespec="seconds")
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


def _resolve_set(inputs: dict) -> IntSet:
    if "expr" in inputs:
        window = inputs.get("window")
        if (
            not isinstance(window, list)
            or len(window) != 2
            or not all(isinstance(v, int) for v in window)
        ):
            raise MalformedPayload("inputs.window must be [lo, hi]")
        return evaluate(parse_dsl(_text(inputs, "expr")).expr, Window(window[0], window[1]))
    if "set_text" in inputs:
        return read_intset(_text(inputs, "set_text"))
    raise MalformedPayload("inputs carry neither an expression nor a set text")


# --- certificate builders ----------------------------------------------------


def ap_certificate(set_inputs: dict, wit: APWitness) -> dict:
    return build_certificate(
        "ap", set_inputs, {"l": wit.l}, {"a": wit.a, "d": wit.d}
    )


def pws_certificate(set_inputs: dict, r: int, L: int, start: int) -> dict:
    return build_certificate("pws", set_inputs, {"r": r, "L": L}, {"start": start})


def pws2d_certificate(
    set_inputs: dict,
    l: int,
    box: Box2D,
    r1: int,
    r2: int,
    L1: int,
    L2: int,
    subbox: Box2D,
) -> dict:
    params = {
        "l": l,
        "box": [box.a_lo, box.a_hi, box.d_lo, box.d_hi],
        "r1": r1,
        "r2": r2,
        "L1": L1,
        "L2": L2,
    }
    return build_certificate(
        "pws2d", set_inputs, params, {"a0": subbox.a_lo, "d0": subbox.d_lo}
    )


def jset_certificate(
    set_inputs: dict, family: FuncFamily, a_max: int, wit: JWitness
) -> dict:
    inputs = dict(set_inputs)
    inputs["family"] = write_family(family)
    return build_certificate(
        "jset", inputs, {"a_max": a_max}, {"a": wit.a, "H": list(wit.H)}
    )


def jset2d_certificate(
    set_inputs: dict,
    family2d: FuncFamily2D,
    b: int,
    l: int,
    a_max: int,
    wit: JWitness2D,
) -> dict:
    inputs = dict(set_inputs)
    inputs["family2d"] = write_family2d(family2d)
    return build_certificate(
        "jset2d",
        inputs,
        {"b": b, "l": l, "a_max": a_max},
        {"a1": wit.a1, "a2": wit.a2, "H": list(wit.H)},
    )


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


def vdw_certificate(n: int, colors: int, ap_len: int, result: VdwResult) -> dict:
    if result.verdict not in ("true", "false"):
        raise ValueError("only decided outcomes are certifiable")
    witness = {
        "verdict": result.verdict,
        "strategy": result.strategy,
        "explored": result.explored,
        "coloring": list(result.coloring) if result.coloring is not None else None,
    }
    return build_certificate(
        "vdw", {"n": n, "colors": colors, "ap_len": ap_len}, {}, witness
    )


# --- verification ------------------------------------------------------------


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise MalformedPayload(msg)


def _int_field(obj: dict, key: str, minimum: int = 1) -> int:
    _require(isinstance(obj, dict), f"the evidence holding {key} must be an object")
    v = obj.get(key)
    _require(isinstance(v, int) and not isinstance(v, bool), f"{key} must be an integer")
    _require(v >= minimum, f"{key} must be >= {minimum}")
    return v


def _text(inputs: dict, key: str) -> str:
    v = inputs.get(key)
    _require(isinstance(v, str), f"inputs.{key} must be a text")
    return v


def _H_list(obj: dict) -> tuple[int, ...]:
    H = obj.get("H")
    _require(isinstance(H, list) and all(isinstance(t, int) for t in H), "H must be a list of integers")
    return tuple(H)


def _jwitness(evidence: dict) -> JWitness:
    return JWitness(_int_field(evidence, "a"), _H_list(evidence))


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
    _require(isinstance(cert["params"], dict), "params must be an object")
    _require(isinstance(cert["witness"], dict), "witness must be an object")
    checker = _CHECKERS[kind]
    try:
        return checker(inputs, cert["params"], cert["witness"])
    except CertificateError:
        raise
    except (ValueError, TypeError, KeyError, IndexError):
        # structurally plausible but semantically unusable payloads
        return False


def _check_ap(inputs: dict, params: dict, witness: dict) -> bool:
    A = _resolve_set(inputs)
    l = _int_field(params, "l")
    a = _int_field(witness, "a")
    d = _int_field(witness, "d")
    return verify_ap(A, APWitness(a, d, l))


def _check_pws(inputs: dict, params: dict, witness: dict) -> bool:
    A = _resolve_set(inputs)
    r = _int_field(params, "r")
    L = _int_field(params, "L")
    return verify_pws_witness(A, PwsWitness(r, _int_field(witness, "start"), L))


def _check_pws2d(inputs: dict, params: dict, witness: dict) -> bool:
    A = _resolve_set(inputs)
    l = _int_field(params, "l")
    box_raw = params.get("box")
    _require(
        isinstance(box_raw, list) and len(box_raw) == 4 and all(isinstance(v, int) for v in box_raw),
        "box must be [a_lo, a_hi, d_lo, d_hi]",
    )
    r1 = _int_field(params, "r1")
    r2 = _int_field(params, "r2")
    L1 = _int_field(params, "L1")
    L2 = _int_field(params, "L2")
    a0 = _int_field(witness, "a0")
    d0 = _int_field(witness, "d0")
    box = Box2D(*box_raw)
    subbox = Box2D(a0, a0 + L1 - 1, d0, d0 + L2 - 1)
    if not box.contains_box(subbox):
        return False
    B = lift(A, l, box)
    return is_syndetic_2d(B, subbox, r1, r2)


def _check_jset(inputs: dict, params: dict, witness: dict) -> bool:
    A = _resolve_set(inputs)
    F = read_family(_text(inputs, "family"))
    a_max = _int_field(params, "a_max")
    wit = _jwitness(witness)
    return wit.a <= a_max and verify_jwitness(A, F, wit)


def _check_jset2d(inputs: dict, params: dict, witness: dict) -> bool:
    A = _resolve_set(inputs)
    F2D = read_family2d(_text(inputs, "family2d"))
    b = _int_field(params, "b")
    l = _int_field(params, "l")
    a_max = _int_field(params, "a_max")
    a1 = _int_field(witness, "a1")
    a2 = _int_field(witness, "a2")
    H = _H_list(witness)
    if a1 > a_max or a2 != b * len(H):
        return False
    return verify_transfer_witness(A, F2D, JWitness2D(a1, a2, H), l)


def _check_chain(inputs: dict, params: dict, witness: dict) -> bool:
    # decoded by the chain's kind, so evidence shaped for the other is malformed
    chain = read_chain(_text(inputs, "chain"))
    translate = witness.get("translate")
    _require(isinstance(translate, list), "translate table must be a list")
    for entry in translate:
        _require(
            isinstance(entry, list) and len(entry) == 3 and all(isinstance(v, int) for v in entry),
            "translate entries must be [level, x, found_level]",
        )
    levels = witness.get("levels")
    _require(isinstance(levels, list), "levels evidence must be a list")
    base = ChainReport(
        chain.kind, _int_field(params, "x_max"), tuple(TranslateProbe(*e) for e in translate)
    )
    if chain.kind == KIND_QUASI_CENTRAL:
        r = _int_field(params, "r")
        L = _int_field(params, "L")
        pws = tuple(PwsWitness(r, _int_field(ev, "pws_start"), L) for ev in levels)
        report = replace(base, r=r, L=L, pws_witnesses=pws)
    else:
        fam_texts = inputs.get("families")
        _require(
            isinstance(fam_texts, list) and all(isinstance(t, str) for t in fam_texts),
            "inputs.families must be a list of texts",
        )
        for ev in levels:
            _require(
                isinstance(ev, dict) and isinstance(ev.get("jset"), list),
                "level evidence must list jset witnesses",
            )
        families = tuple(read_family(t) for t in fam_texts)
        jset = tuple(tuple(map(_jwitness, ev["jset"])) for ev in levels)
        report = replace(base, families=families, a_max=_int_field(params, "a_max"), jset_witnesses=jset)
    return verify_chain_report(chain, report)


def _check_vdw(inputs: dict, params: dict, witness: dict) -> bool:
    n = _int_field(inputs, "n")
    colors = _int_field(inputs, "colors")
    ap_len = _int_field(inputs, "ap_len")
    verdict = witness.get("verdict")
    _require(verdict in ("true", "false"), "verdict must be 'true' or 'false'")
    coloring = witness.get("coloring")
    if verdict == "true":
        # universal claim: no succinct witness; integrity checks only
        return coloring is None
    _require(isinstance(coloring, list), "a false verdict needs a coloring")
    if len(coloring) != n:
        return False
    if not all(isinstance(c, int) and 0 <= c < colors for c in coloring):
        return False
    if ap_len == 1:
        return False  # any point is a one-term progression
    return not _has_mono_ap(tuple(coloring), ap_len)


_CHECKERS = {
    "ap": _check_ap,
    "pws": _check_pws,
    "pws2d": _check_pws2d,
    "jset": _check_jset,
    "jset2d": _check_jset2d,
    "chain": _check_chain,
    "vdw": _check_vdw,
}
