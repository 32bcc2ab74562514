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
beside the kind's search, and for a kind with a set the positions of the set
that the verifier reads. ``_FIELDS`` holds each field's JSON
shape, its encoder and its decoder, so a field is written beside where it
is read: ``certify`` places a kind's values by its row and writes each one
through its field, and ``verify_certificate`` decodes each one back; a
field the row marks optional, such as those of one chain kind, is left out
when None and read back as None when absent. This module holds no semantic
check of its own. A certificate that cannot be checked (a failed digest,
an unknown kind, a malformed payload) raises the one ``CertificateError``.

``sets`` and ``lift``, which every command loads, are imported here; the
tables name other modules' functions by path (``"jsets.verify_jwitness"``),
imported on first use: a ``vdw`` certificate loads no DSL, file format,
J-set or chain code, and an ``ap`` certificate no file format.

One asymmetry is deliberate: a "vdw" certificate whose verdict is "false"
carries the counterexample coloring and is re-checked independently, while a
"true" verdict is a universal claim with no succinct witness, so only its
integrity and well-formedness are checked.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import time
from json.encoder import encode_basestring_ascii
from typing import Callable, NamedTuple, Optional

from ._version import __version__
from .lift import Box2D, reach, verify_ap, verify_pws2d_claim
from .sets import IntSet, SetExpr, Window, evaluate

SCHEMA = "aplift.cert/1"


def _resolve(path: str):
    """What ``path`` (``module.name`` in this package) names; the module is imported on first use."""
    module, _, name = path.partition(".")
    return getattr(importlib.import_module(f"{__package__}.{module}"), name)


def _lazy(path: str) -> Callable:
    """The function at ``path``, resolved on each call, so a patch or wrapper is seen."""
    return lambda *args: _resolve(path)(*args)


class _Claim(NamedTuple):
    inputs: tuple[str, ...]  # "set" stands for expr and window, or set_text
    params: tuple[str, ...]
    witness: tuple[str, ...]
    truncation: tuple[str, ...]
    verify: Callable[..., bool]  # takes the decoded fields in row order
    recorded: tuple[str, ...] = ()  # witness fields written for the reader only
    # for a kind with a set: from its other fields, decoded in row order, the
    # positions (lo, hi) of the set that the verifier reads
    reads: Optional[Callable[..., tuple[int, int]]] = None
    optional: tuple[str, ...] = ()  # fields left out when None, read back as None


_SUMS = "sums landing outside the window count as non-members"
_CLIPPED = "pairs whose progression leaves the window are excluded from the lift"
_SHIFTED = "translate inclusions are checked on the window truncated by each shift"
_CLAIMS = {
    "ap": _Claim(
        ("set",), ("l",), ("a", "d"), (), verify_ap,
        reads=lambda l, a, d: reach(l, Box2D(a, a, d, d)),
    ),
    "pws": _Claim(
        ("set",), ("r", "L"), ("start",), (), _lazy("largeness.verify_pws_claim"),
        reads=lambda r, L, start: (start, start + L - 1),
    ),
    "pws2d": _Claim(
        ("set",), ("l", "box", "r1", "r2", "L1", "L2"), ("a0", "d0"), (_CLIPPED,), verify_pws2d_claim,
        reads=lambda l, box, r1, r2, L1, L2, a0, d0: reach(l, Box2D(a0, a0 + L1 - 1, d0, d0 + L2 - 1)),
    ),
    "jset": _Claim(("set", "family"), ("a_max",), ("a", "H"), (_SUMS,), _lazy("jsets.verify_jwitness"),
                   reads=_lazy("jsets.jset_reads")),
    "jset2d": _Claim(
        ("set", "family2d"), ("b", "l", "a_max"), ("a1", "a2", "H"), (_SUMS, _CLIPPED),
        _lazy("jsets.verify_transfer_witness"), reads=_lazy("jsets.transfer_reads"),
    ),
    # a quasi-central chain has r and L, a c-set chain families and a_max
    "chain": _Claim(
        ("chain", "families"), ("x_max", "r", "L", "a_max"), ("translate", "levels"), (_SHIFTED,),
        _lazy("towers.verify_chain_report"), optional=("families", "r", "L", "a_max"),
    ),
    "vdw": _Claim(
        ("n", "colors", "ap_len"), (), ("verdict", "coloring"), (), _lazy("largeness.verify_vdw_claim"),
        recorded=("strategy", "explored"),
    ),
}


class CertificateError(Exception):
    """A certificate that cannot be checked: a failed digest, an unknown
    kind or a malformed payload; the message says which."""


_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"), ensure_ascii=True)


def canonical_json(obj) -> str:
    try:
        return _CANONICAL.encode(obj)
    except RecursionError:
        raise CertificateError("certificate is nested too deeply") from None


def _sha(text: str) -> str:
    return "sha256:" + hashlib.sha256(text.encode("utf-8")).hexdigest()


def build_certificate(kind: str, inputs: dict, params: dict, witness: dict) -> dict:
    if kind not in _CLAIMS:
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
    """``json.dumps(cert, sort_keys=True, indent=2, ensure_ascii=True) + "\\n"``
    without json's pure-Python encoder; dict keys must be texts."""
    return _indented(cert, "") + "\n"


def _indented(v, pad: str) -> str:
    # v as json.dumps(v, sort_keys=True, indent=2) writes it, later lines led by pad
    if isinstance(v, str):
        return encode_basestring_ascii(v)
    if type(v) is int:
        return str(v)
    if isinstance(v, dict) and v:
        inner = pad + "  "
        items = [f"{encode_basestring_ascii(k)}: {_indented(v[k], inner)}" for k in sorted(v)]
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "}"
    if isinstance(v, (list, tuple)) and v:
        inner = pad + "  "
        items = map(str, v) if all(type(x) is int for x in v) else [_indented(x, inner) for x in v]
        return "[\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "]"
    return _CANONICAL.encode(v)  # a bool, null, float, {} or []


# --- input descriptors -------------------------------------------------------


def inputs_for_expr(expr: SetExpr, window: Window) -> dict:
    return {"expr": _resolve("dsl.print_expr")(expr), "window": [window.lo, window.hi]}


def inputs_for_set(A: IntSet) -> dict:
    return {"set_text": _resolve("fileformats.write_intset")(A)}


def inputs_for_set_text(text: str) -> dict:
    return inputs_for_set(_resolve("fileformats.read_intset")(text))


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


def _read_levels(levels: list) -> tuple:
    """Each level's witnesses, read by its shape: a pws start or a J-set list."""
    PwsWitness, JWitness = _resolve("largeness.PwsWitness"), _resolve("jsets.JWitness")
    return tuple(
        (PwsWitness(_field(ev, "pws_start")),) if isinstance(ev, dict) and "pws_start" in ev
        else tuple(JWitness(_field(w, "a"), _field(w, "H")) for w in _field(ev, "jset"))
        for ev in levels
    )


def _write_levels(levels) -> list:
    if levels is None or any(None in wits for wits in levels):
        raise ValueError("levels must hold every witness of the chain's kind")
    return [
        {"pws_start": wits[0].start} if wits and isinstance(wits[0], _resolve("largeness.PwsWitness"))
        else {"jset": [{"a": w.a, "H": list(w.H)} for w in wits]}
        for wits in levels
    ]


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
    "expr": _Field("a text", _is_text, lambda v: _resolve("dsl.parse_dsl")(v).expr),
    "window": _Field("[lo, hi]", lambda v: _is_ints(v, 2), lambda v: Window(*v)),
    "set_text": _Field("a text", _is_text, _lazy("fileformats.read_intset")),
    "family": _Field("a text", _is_text, _lazy("fileformats.read_family"),
                     _lazy("fileformats.write_family")),
    "family2d": _Field("a text", _is_text, _lazy("fileformats.read_family2d"),
                       _lazy("fileformats.write_family2d")),
    "chain": _Field("a text", _is_text, _lazy("fileformats.read_chain"),
                    _lazy("fileformats.write_chain")),
    "families": _Field(
        "a list of texts",
        lambda v: isinstance(v, list) and all(map(_is_text, v)),
        lambda v: tuple(map(_resolve("fileformats.read_family"), v)),
        lambda v: list(map(_resolve("fileformats.write_family"), v)),
    ),
    "translate": _Field(
        "a list of [level, x, found_level]",
        lambda v: isinstance(v, list) and all(_is_ints(e, 3) for e in v),
        lambda v: tuple(_resolve("towers.TranslateProbe")(*e) for e in v),
        lambda v: [[p.level, p.x, p.found_level] for p in v],
    ),
    "levels": _Field("a list", lambda v: isinstance(v, list), _read_levels, _write_levels),
    "jset": _Field("a list", lambda v: isinstance(v, list)),
    "verdict": _Field("'true' or 'false'", lambda v: v in ("true", "false")),
    "coloring": _Field(
        "null or a list of integers", lambda v: v is None or _is_ints(v),
        encode=lambda v: None if v is None else list(v),
    ),
}


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise CertificateError(msg)


def _field(section: dict, name: str, reads: Optional[tuple[int, int]] = None):
    """Decode one field by its name; a shape the name does not accept is malformed.
    The set needs ``reads``: an expression is evaluated only on the part of
    its window there."""
    _require(isinstance(section, dict), f"the evidence holding {name} must be an object")
    if name == "set":
        if "expr" in section:
            return evaluate(_field(section, "expr"), _field(section, "window").clip(reads))
        _require("set_text" in section, "inputs carry neither an expression nor a set text")
        return _field(section, "set_text")
    field = _FIELDS[name]
    value = section.get(name)
    _require(field.accepts(value), f"{name} must be {field.what}")
    return value if field.decode is None else field.decode(value)


# --- certificate builders ----------------------------------------------------


def certify(kind: str, set_inputs: dict, **values) -> dict:
    """Certificate of any kind, from the values its row names.

    ``set_inputs`` holds the set's own keys (``inputs_for_expr`` or
    ``inputs_for_set``), or nothing for a kind without a set. Each value is
    written through its field's encoder, and a written value that its field
    would not read back raises ``ValueError``: so only a decided vdw verdict,
    and only a chain whose probes all absorb and whose levels hold every
    witness, is certifiable. An optional field whose value is None is left
    out. The ``recorded`` fields are written as given.
    """
    claim = _CLAIMS.get(kind)
    if claim is None:
        raise ValueError(f"certify builds no {kind!r} certificate")
    sections = ([n for n in claim.inputs if n != "set"], claim.params, claim.witness + claim.recorded)
    names = [name for section in sections for name in section]
    if values.keys() != set(names):
        raise TypeError(f"a {kind} certificate takes {', '.join(names)}")
    given = {n for n in names if values[n] is not None or n not in claim.optional}
    inputs, params, witness = ({n: _write(n, values[n]) for n in s if n in given} for s in sections)
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


# --- verification ------------------------------------------------------------


def verify_certificate(cert: dict) -> bool:
    """Re-check a certificate against the inputs it embeds. Returns the
    semantic verdict of the witness.

    Raises CertificateError when either digest fails (the embedded inputs
    must hash to the recorded input digest), for an unrecognized kind and
    for structural defects; the message says which.

    Every field but the set is decoded first, the family included. An
    expression set is then evaluated only on the window positions that its
    row's ``reads`` names (the progression of ``ap``, the interval of
    ``pws``, the sub-box's reach for ``pws2d``, the sums over H for ``jset``
    and the progressions from them for ``jset2d``), so the check costs in
    proportion to the witness, not to the window; a witness that reads no
    position of the window gets the window's first position alone. Every
    generator and combinator is pointwise, so those positions hold what
    they hold on the whole window.
    """
    _require(isinstance(cert, dict), "certificate must be an object")
    for key in ("schema", "kind", "inputs", "params", "witness", "digest", "input_digest"):
        _require(key in cert, f"missing field {key!r}")
    _require(cert["schema"] == SCHEMA, f"unsupported schema {cert.get('schema')!r}")
    kind = cert["kind"]
    _require(kind in _CLAIMS, f"unknown certificate kind {kind!r}")

    body = {k: v for k, v in cert.items() if k not in ("digest", "created")}
    if _sha(canonical_json(body)) != cert["digest"]:
        raise CertificateError("certificate digest does not match its content")
    inputs = cert["inputs"]
    if _sha(canonical_json(inputs)) != cert["input_digest"]:
        raise CertificateError("inputs do not match the recorded input digest")

    _require(isinstance(inputs, dict), "inputs must be an object")
    params, witness = cert["params"], cert["witness"]
    _require(isinstance(params, dict), "params must be an object")
    _require(isinstance(witness, dict), "witness must be an object")
    claim = _CLAIMS[kind]
    try:
        # every field but the set comes first: they bound the positions it reads
        fields = ((inputs, claim.inputs), (params, claim.params), (witness, claim.witness))
        args = [
            None if name in claim.optional and name not in section else _field(section, name)
            for section, names in fields for name in names if name != "set"
        ]
        if "set" in claim.inputs:  # the first input of its row
            args.insert(0, _field(inputs, "set", claim.reads(*args)))
        return claim.verify(*args)
    except CertificateError:
        raise
    except (ValueError, TypeError, KeyError, IndexError):
        # structurally plausible but semantically unusable payloads
        return False
