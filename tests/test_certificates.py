"""Tamper-evident certificates: build, verify, and mutation behavior."""

import hashlib
import json
import re
from datetime import datetime, timezone

import pytest

from _mutate import all_mutations, leaf_paths
from aplift.certificates import (
    _CLAIMS,
    _FIELDS,
    CertificateError,
    DigestMismatch,
    MalformedPayload,
    UnknownKind,
    build_certificate,
    certify,
    chain_certificate,
    dumps_certificate,
    inputs_for_expr,
    inputs_for_set_text,
    verify_certificate,
)
from aplift.fileformats import write_intset
from aplift.jsets import FuncFamily, FuncFamily2D, jset_witness, transfer_witness
from aplift.largeness import find_pws_witness, vdw_check
from aplift.lift import ap_search, find_pws_witness_2d, induced_box, lift
from aplift.sets import Interval, Multiples, Union, Window, evaluate
from aplift.towers import (
    KIND_C_SET,
    KIND_QUASI_CENTRAL,
    Chain,
    check_cset,
    check_quasicentral,
    check_translate_property,
)


def evens_inputs(hi=100):
    return inputs_for_expr(Multiples(2), Window(1, hi))


def make_ap_cert():
    A = evaluate(Multiples(2), Window(1, 100))
    wit = ap_search(A, 3)
    return certify("ap", evens_inputs(), l=wit.l, a=wit.a, d=wit.d)


def make_pws_cert():
    expr = Union((Interval(40, 60), Multiples(7)))
    A = evaluate(expr, Window(1, 100))
    wit = find_pws_witness(A, 1, 21)
    return certify("pws", inputs_for_expr(expr, A.window), r=1, L=21, start=wit.start)


def make_pws2d_cert():
    A = evaluate(Multiples(3), Window(1, 60))
    box = induced_box(A.window, 2)
    B = lift(A, 2, box)
    sub = find_pws_witness_2d(B, 3, 3, 6, 6)
    return certify(
        "pws2d", inputs_for_expr(Multiples(3), A.window), l=2, box=box, r1=3, r2=3, L1=6, L2=6,
        a0=sub.a_lo, d0=sub.d_lo,
    )


def make_jset_cert():
    A = evaluate(Multiples(3), Window(1, 300))
    F = FuncFamily(((1, 2, 3, 4), (2, 4, 6, 8)))
    wit = jset_witness(A, F, 10)
    return certify("jset", inputs_for_expr(Multiples(3), A.window), family=F, a_max=10,
                   a=wit.a, H=wit.H)


def make_jset2d_cert():
    A = evaluate(Multiples(2), Window(1, 200))
    F2D = FuncFamily2D((((1,), (1,)),))
    wit = transfer_witness(A, F2D, b=1, l=1, a_max=64)
    return certify_jset2d(inputs_for_expr(Multiples(2), A.window), F2D, wit)


def certify_jset2d(set_inputs, F2D, wit):
    return certify("jset2d", set_inputs, family2d=F2D, b=1, l=1, a_max=64,
                   a1=wit.a1, a2=wit.a2, H=wit.H)


def make_chain_cert_qc():
    w = Window(1, 256)
    chain = Chain(tuple(evaluate(Multiples(2 ** n), w) for n in (1, 2, 3)),
                  KIND_QUASI_CENTRAL)
    report = check_quasicentral(chain, r=8, L=64, x_max=16)
    assert report.passed
    return chain_certificate(chain, report)


def make_chain_cert_cset():
    w = Window(1, 400)
    chain = Chain(tuple(evaluate(Multiples(2 ** n), w) for n in (1, 2)), KIND_C_SET)
    F = FuncFamily(((1, 2, 3, 4), (2, 4, 6, 8)))
    report = check_cset(chain, [F], a_max=40, x_max=8)
    assert report.passed
    return chain_certificate(chain, report)


def certify_vdw(n, colors, k, res):
    return certify("vdw", {}, n=n, colors=colors, ap_len=k, verdict=res.verdict,
                   coloring=res.coloring, strategy=res.strategy, explored=res.explored)


def make_vdw_true_cert():
    return certify_vdw(9, 2, 3, vdw_check(9, 2, 3))


def make_vdw_false_cert():
    return certify_vdw(8, 2, 3, vdw_check(8, 2, 3))


ALL_BUILDERS = [
    make_ap_cert,
    make_pws_cert,
    make_pws2d_cert,
    make_jset_cert,
    make_jset2d_cert,
    make_chain_cert_qc,
    make_chain_cert_cset,
    make_vdw_true_cert,
    make_vdw_false_cert,
]


@pytest.mark.parametrize("builder", ALL_BUILDERS)
def test_build_verify_roundtrip(builder):
    cert = builder()
    assert verify_certificate(cert) is True
    # survives a trip through its own serialization
    again = json.loads(dumps_certificate(cert))
    assert verify_certificate(again) is True


@pytest.mark.parametrize("builder", ALL_BUILDERS)
def test_every_single_field_mutation_fails(builder):
    cert = builder()
    paths = list(leaf_paths(cert))
    assert paths, "certificate must have leaves"
    for path, mutated in all_mutations(cert):
        try:
            ok = verify_certificate(mutated)
        except CertificateError:
            continue
        assert ok is False, f"mutation at {path} went unnoticed"


def test_deterministic_modulo_created():
    a = make_ap_cert()
    b = make_ap_cert()
    assert a["digest"] == b["digest"]
    assert {k: v for k, v in a.items() if k != "created"} == \
        {k: v for k, v in b.items() if k != "created"}


def test_created_is_outside_the_digest():
    cert = make_pws_cert()
    cert["created"] = "1970-01-01T00:00:00+00:00"
    assert verify_certificate(cert) is True


def test_created_is_utc_to_the_second():
    before = datetime.now(timezone.utc).replace(microsecond=0)
    created = make_ap_cert()["created"]
    after = datetime.now(timezone.utc)
    assert re.fullmatch(r"\d{4}-\d\d-\d\dT\d\d:\d\d:\d\d\+00:00", created)
    assert before <= datetime.fromisoformat(created) <= after


def test_nesting_too_deep_to_encode_is_malformed():
    # Python objects nest deeper than json.dumps can encode; that is a
    # malformed payload, not a RecursionError
    deep = []
    for _ in range(100_000):
        deep = [deep]
    cert = make_ap_cert()
    cert["inputs"] = deep
    with pytest.raises(MalformedPayload):
        verify_certificate(cert)


def test_verify_with_external_inputs():
    cert = make_ap_cert()
    assert verify_certificate(cert, inputs=evens_inputs()) is True
    with pytest.raises(DigestMismatch):
        verify_certificate(cert, inputs=evens_inputs(hi=102))


def test_verify_set_text_inputs():
    A = evaluate(Multiples(2), Window(1, 100))
    inputs = inputs_for_set_text(write_intset(A))
    cert = certify("ap", inputs, l=3, a=2, d=2)
    assert verify_certificate(cert) is True


def test_semantically_false_witness_fails_cleanly():
    # a well-formed certificate whose claim is simply wrong: digest passes,
    # the semantic re-check returns False without raising
    cert = build_certificate("ap", evens_inputs(), {"l": 3}, {"a": 3, "d": 2})
    assert verify_certificate(cert) is False
    cert = build_certificate("pws", evens_inputs(), {"r": 1, "L": 10}, {"start": 1})
    assert verify_certificate(cert) is False


def test_out_of_window_witness_fails():
    cert = build_certificate("pws", evens_inputs(), {"r": 2, "L": 50}, {"start": 90})
    assert verify_certificate(cert) is False  # interval would leave the window


def test_unknown_kind_raises():
    cert = make_ap_cert()
    cert["kind"] = "novel"
    with pytest.raises((UnknownKind, DigestMismatch)):
        verify_certificate(cert)


def test_missing_field_raises():
    cert = make_ap_cert()
    del cert["witness"]
    with pytest.raises(MalformedPayload):
        verify_certificate(cert)


def test_wrong_schema_raises():
    cert = make_ap_cert()
    cert["schema"] = "aplift.cert/99"
    with pytest.raises(CertificateError):
        verify_certificate(cert)


def test_vdw_true_carries_no_coloring():
    cert = make_vdw_true_cert()
    assert cert["witness"]["coloring"] is None
    assert verify_certificate(cert) is True
    # a smuggled coloring on a true verdict invalidates it
    smuggled = build_certificate(
        "vdw",
        {"n": 9, "colors": 2, "ap_len": 3},
        {},
        {"verdict": "true", "strategy": "exhaustive", "explored": 512,
         "coloring": [0] * 9},
    )
    assert verify_certificate(smuggled) is False


def test_vdw_false_coloring_rechecked():
    # a coloring with a monochromatic progression cannot certify "false"
    cert = build_certificate(
        "vdw",
        {"n": 8, "colors": 2, "ap_len": 3},
        {},
        {"verdict": "false", "strategy": "exhaustive", "explored": 1,
         "coloring": [0] * 8},
    )
    assert verify_certificate(cert) is False


def test_chain_certificate_requires_pass():
    w = Window(1, 300)
    chain = Chain(tuple(evaluate(Multiples(3 ** n), w) for n in (1, 2)), KIND_C_SET)
    F = FuncFamily(((1, 2), (2, 4)))
    report = check_cset(chain, [F], a_max=50, x_max=9)
    assert not report.passed
    with pytest.raises(ValueError):
        chain_certificate(chain, report)
    # a translate-only report carries no evidence of its kind
    chain = Chain(chain.levels, KIND_QUASI_CENTRAL)
    report = check_translate_property(chain, x_max=9)
    assert report.translate_ok
    with pytest.raises(ValueError):
        chain_certificate(chain, report)


def test_vdw_certificate_requires_decision():
    res = vdw_check(40, 3, 3, budget=5)
    assert res.verdict == "unknown"
    with pytest.raises(ValueError, match="verdict"):
        certify_vdw(40, 3, 3, res)


@pytest.mark.parametrize("builder", ALL_BUILDERS)
def test_every_encoder_inverts_its_decoder(builder):
    # each row field with an encoder writes back the JSON value it decodes
    cert = builder()
    claim = _CLAIMS[cert["kind"]]
    sections = ((cert["inputs"], claim.inputs), (cert["params"], claim.params),
                (cert["witness"], claim.witness))
    for section, names in sections:
        for name in names:
            field = _FIELDS.get(name)
            if field is not None and field.encode is not None:
                value = section[name] if field.decode is None else field.decode(section[name])
                assert field.encode(value) == section[name], name


def test_certify_refuses_what_it_could_not_read_back():
    # the unknown vdw verdict is test_vdw_certificate_requires_decision's
    with pytest.raises(ValueError, match="a must be an integer >= 1"):
        certify("ap", evens_inputs(), l=3, a=0, d=2)
    # a chain's evidence is shaped by chain_certificate, and a field the row
    # does not name is an error, not a silent drop
    with pytest.raises(ValueError):
        certify("chain", {}, chain="", x_max=1, translate=[], levels=[])
    with pytest.raises(TypeError):
        certify("ap", evens_inputs(), l=3, a=2, d=2, start=1)


def test_jset2d_step_binding_checked():
    # forging a2 away from b * |H| must fail even with digests rebuilt
    cert = make_jset2d_cert()
    witness = dict(cert["witness"])
    witness["a2"] = witness["a2"] + 1
    forged = build_certificate("jset2d", cert["inputs"], cert["params"], witness)
    assert verify_certificate(forged) is False


# sha256 prefixes of each builder's canonical body without the fields that
# change across releases or runs (created, tool_version and the two digests
# over them); a change here means the certificate bytes changed
PINNED_BODIES = {
    "make_ap_cert": "07fe07ef1664fc32",
    "make_pws_cert": "d736895e7492da6a",
    "make_pws2d_cert": "a7f1995459bd6a9d",
    "make_jset_cert": "a3a3566ecb955446",
    "make_jset2d_cert": "b9f34ecfdf4e5af0",
    "make_chain_cert_qc": "5ca0a2f8254bf5fb",
    "make_chain_cert_cset": "19851e08e2fcdc6b",
    "make_vdw_true_cert": "4d254a1d49375b9a",
    "make_vdw_false_cert": "84dc6f26d9a7adc0",
}


@pytest.mark.parametrize("builder", ALL_BUILDERS)
def test_certificate_bytes_pinned(builder):
    cert = builder()
    body = {k: v for k, v in cert.items()
            if k not in ("created", "tool_version", "digest", "input_digest")}
    text = json.dumps(body, sort_keys=True, separators=(",", ":"), ensure_ascii=True)
    assert hashlib.sha256(text.encode("ascii")).hexdigest()[:16] == PINNED_BODIES[builder.__name__]


def rejected(cert) -> bool:
    try:
        return verify_certificate(cert) is False
    except CertificateError:
        return True


def test_jset2d_binding_and_base_bound_checked_alone():
    # on multiples(2) the forged witnesses below still decode to progressions
    # inside A, so only the step binding and the base bound can reject them
    A = evaluate(Multiples(2), Window(1, 200))
    F2D = FuncFamily2D((((2,), (1,)),))
    wit = transfer_witness(A, F2D, b=1, l=1, a_max=64)
    cert = certify_jset2d(inputs_for_expr(Multiples(2), A.window), F2D, wit)
    assert verify_certificate(cert) and wit.a1 == 2
    step = build_certificate("jset2d", cert["inputs"], cert["params"],
                             {**cert["witness"], "a2": wit.a2 + 2})
    base = build_certificate("jset2d", cert["inputs"], {**cert["params"], "a_max": 1},
                             cert["witness"])
    assert rejected(step) and rejected(base)


def test_vdw_false_coloring_must_fit_n_and_colors():
    # W(3; 2) = 9: a counterexample for n = 8, or one with a third colour,
    # must not certify n = 9 with two colours
    short = vdw_check(8, 2, 3).coloring
    three = vdw_check(9, 3, 3).coloring
    assert len(short) == 8 and max(three) == 2
    for coloring in (short, three):
        cert = build_certificate(
            "vdw", {"n": 9, "colors": 2, "ap_len": 3}, {},
            {"verdict": "false", "strategy": "exhaustive", "explored": 1,
             "coloring": list(coloring)},
        )
        assert rejected(cert)


def test_pws2d_checks_the_claimed_sub_box():
    # the 3 x 2 sub-box at (3, 2) has an empty 2 x 2 block; the 2 x 2 and
    # 2 x 3 sub-boxes at the same corner have none
    A = evaluate(Multiples(3), Window(1, 60))
    params = {"l": 2, "box": [1, 30, 1, 15], "r1": 2, "r2": 2, "L1": 3, "L2": 2}
    cert = build_certificate("pws2d", inputs_for_expr(Multiples(3), A.window), params,
                             {"a0": 3, "d0": 2})
    assert rejected(cert)


def test_chain_x_max_below_one_is_not_vacuous():
    # no member x <= 0 exists, so x_max = 0 would need no translate probe
    cert = make_chain_cert_qc()
    forged = build_certificate("chain", cert["inputs"], {**cert["params"], "x_max": 0},
                               {**cert["witness"], "translate": []})
    assert rejected(forged)
