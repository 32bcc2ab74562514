"""Tamper-evident certificates: build, verify, and mutation behavior."""

import json

import pytest

from _mutate import all_mutations, leaf_paths
from aplift.certificates import (
    CertificateError,
    DigestMismatch,
    MalformedPayload,
    UnknownKind,
    ap_certificate,
    build_certificate,
    chain_certificate,
    dumps_certificate,
    inputs_for_expr,
    inputs_for_set_text,
    jset2d_certificate,
    jset_certificate,
    pws2d_certificate,
    pws_certificate,
    vdw_certificate,
    verify_certificate,
)
from aplift.fileformats import write_intset
from aplift.jsets import FuncFamily, FuncFamily2D, jset_witness, transfer_witness
from aplift.largeness import find_pws_witness, vdw_check
from aplift.lift import APWitness, ap_search, find_pws_witness_2d, induced_box, lift
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
    return ap_certificate(evens_inputs(), ap_search(A, 3))


def make_pws_cert():
    expr = Union((Interval(40, 60), Multiples(7)))
    A = evaluate(expr, Window(1, 100))
    wit = find_pws_witness(A, 1, 21)
    return pws_certificate(inputs_for_expr(expr, A.window), 1, 21, wit.start)


def make_pws2d_cert():
    A = evaluate(Multiples(3), Window(1, 60))
    box = induced_box(A.window, 2)
    B = lift(A, 2, box)
    sub = find_pws_witness_2d(B, 3, 3, 6, 6)
    return pws2d_certificate(
        inputs_for_expr(Multiples(3), A.window), 2, box, 3, 3, 6, 6, sub
    )


def make_jset_cert():
    A = evaluate(Multiples(3), Window(1, 300))
    F = FuncFamily(((1, 2, 3, 4), (2, 4, 6, 8)))
    wit = jset_witness(A, F, 10)
    return jset_certificate(inputs_for_expr(Multiples(3), A.window), F, 10, wit)


def make_jset2d_cert():
    A = evaluate(Multiples(2), Window(1, 200))
    F2D = FuncFamily2D((((1,), (1,)),))
    wit = transfer_witness(A, F2D, b=1, l=1, a_max=64)
    return jset2d_certificate(inputs_for_expr(Multiples(2), A.window), F2D, 1, 1, 64, wit)


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


def make_vdw_true_cert():
    return vdw_certificate(9, 2, 3, vdw_check(9, 2, 3))


def make_vdw_false_cert():
    return vdw_certificate(8, 2, 3, vdw_check(8, 2, 3))


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


def test_verify_with_external_inputs():
    cert = make_ap_cert()
    assert verify_certificate(cert, inputs=evens_inputs()) is True
    with pytest.raises(DigestMismatch):
        verify_certificate(cert, inputs=evens_inputs(hi=102))


def test_verify_set_text_inputs():
    A = evaluate(Multiples(2), Window(1, 100))
    inputs = inputs_for_set_text(write_intset(A))
    cert = ap_certificate(inputs, APWitness(2, 2, 3))
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
    with pytest.raises(ValueError):
        vdw_certificate(40, 3, 3, res)


def test_jset2d_step_binding_checked():
    # forging a2 away from b * |H| must fail even with digests rebuilt
    cert = make_jset2d_cert()
    witness = dict(cert["witness"])
    witness["a2"] = witness["a2"] + 1
    forged = build_certificate("jset2d", cert["inputs"], cert["params"], witness)
    assert verify_certificate(forged) is False
