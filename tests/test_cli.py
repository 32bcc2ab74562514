"""Command-line interface: subcommands, exit codes, certificate emission."""

import ast
import contextlib
import json
import os
import resource
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

import aplift
from aplift import certificates, cli, fileformats
from aplift.certificates import verify_certificate
from aplift.cli import run_command
from aplift.dsl import MAX_DEPTH, parse_dsl
from aplift.fileformats import (
    read_intset,
    write_chain,
    write_family,
    write_family2d,
    write_intset,
)
from aplift.jsets import FuncFamily, FuncFamily2D, jset_witness, transfer_witness
from aplift.lift import ap_search
from aplift.sets import IntSet, Multiples, Window, evaluate
from aplift.towers import KIND_C_SET, KIND_QUASI_CENTRAL, Chain, check_cset, check_quasicentral


def run(capsys, *argv):
    code = run_command(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@contextlib.contextmanager
def address_space_cap(extra: int = 1 << 30):
    """At most extra (1 GB) more address space, so that work sized by a
    forged number fails with MemoryError instead of exhausting the host."""
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    with open("/proc/self/statm") as fh:
        used = int(fh.read().split()[0]) * resource.getpagesize()
    cap = used + extra
    if hard != resource.RLIM_INFINITY:
        cap = min(cap, hard)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


def test_analyze_basic(capsys):
    code, out, _ = run(capsys, "analyze", "--set", "ipset(3, 9, 27)", "--window", "1:40")
    assert code == 0
    assert "members 7" in out
    assert "longest miss run 14" in out


def test_analyze_witness_and_cert(capsys, tmp_path):
    dest = tmp_path / "pws.json"
    code, out, _ = run(
        capsys, "analyze", "--set", "union(interval(40, 60), multiples(7))",
        "--window", "1:100", "--r", "1", "--L", "21", "--out", str(dest),
    )
    assert code == 0
    assert "[40, 60]" in out
    cert = json.loads(dest.read_text())
    assert cert["kind"] == "pws"
    assert verify_certificate(cert) is True


def test_analyze_negative_exit(capsys):
    code, out, _ = run(
        capsys, "analyze", "--set", "multiples(2)", "--window", "1:100",
        "--r", "1", "--L", "22",
    )
    assert code == 1


def test_ap_found_and_absent(capsys):
    code, out, _ = run(capsys, "ap", "--set", "multiples(2)", "--window", "1:100",
                       "--len", "3")
    assert code == 0 and "a=2 d=2" in out
    code, out, _ = run(capsys, "ap", "--set", "ipset(3, 9, 27)", "--window", "1:40",
                       "--len", "2")
    assert code == 1


def test_ap_cert_roundtrip(capsys, tmp_path):
    dest = tmp_path / "ap.json"
    code, _, _ = run(capsys, "ap", "--set", "multiples(2)", "--window", "1:100",
                     "--len", "3", "--out", str(dest))
    assert code == 0
    code, out, _ = run(capsys, "verify", str(dest))
    assert code == 0 and "valid ap certificate" in out


def test_lift_witness(capsys, tmp_path):
    dest = tmp_path / "p2.json"
    code, out, _ = run(
        capsys, "lift", "--set", "multiples(3)", "--window", "1:60",
        "--len", "2", "--r1", "3", "--r2", "3", "--L1", "6", "--L2", "6",
        "--out", str(dest),
    )
    assert code == 0
    assert "pairs 50" in out
    cert = json.loads(dest.read_text())
    assert cert["kind"] == "pws2d" and verify_certificate(cert)


def test_lift_negative(capsys):
    code, out, _ = run(
        capsys, "lift", "--set", "multiples(3)", "--window", "1:60",
        "--len", "2", "--r1", "2", "--r2", "2",
    )
    assert code == 1


def test_jset_from_files(capsys, tmp_path):
    fam = tmp_path / "fam.txt"
    fam.write_text(write_family(FuncFamily(((1, 2, 3, 4), (2, 4, 6, 8)))))
    dest = tmp_path / "j.json"
    code, out, _ = run(
        capsys, "jset", "--set", "multiples(3)", "--window", "1:300",
        "--family", str(fam), "--a-max", "10", "--out", str(dest),
    )
    assert code == 0
    assert "a=3" in out and "H={3}" in out
    assert verify_certificate(json.loads(dest.read_text()))


def test_transfer(capsys, tmp_path):
    fam = tmp_path / "fam2d.txt"
    fam.write_text(write_family2d(FuncFamily2D((((1,), (1,)),))))
    dest = tmp_path / "t.json"
    code, out, _ = run(
        capsys, "transfer", "--set", "multiples(2)", "--window", "1:200",
        "--family2d", str(fam), "--b", "1", "--len", "1", "--out", str(dest),
    )
    assert code == 0
    assert "base (1, 1)" in out
    cert = json.loads(dest.read_text())
    assert cert["kind"] == "jset2d" and verify_certificate(cert)


def test_tower_quasicentral(capsys, tmp_path):
    w = Window(1, 1024)
    chain = Chain(tuple(evaluate(Multiples(2 ** n), w) for n in range(1, 6)),
                  KIND_QUASI_CENTRAL)
    chain_file = tmp_path / "chain.txt"
    chain_file.write_text(write_chain(chain))
    dest = tmp_path / "c.json"
    code, out, _ = run(
        capsys, "tower", "--chain", str(chain_file), "--r", "32", "--L", "256",
        "--x-max", "64", "--out", str(dest),
    )
    assert code == 0
    assert "verdict: PASS" in out
    cert = json.loads(dest.read_text())
    assert cert["kind"] == "chain" and verify_certificate(cert)


def test_tower_cset_failure(capsys, tmp_path):
    w = Window(1, 300)
    chain = Chain(tuple(evaluate(Multiples(3 ** n), w) for n in (1, 2, 3)), KIND_C_SET)
    chain_file = tmp_path / "chain.txt"
    chain_file.write_text(write_chain(chain))
    fam = tmp_path / "fam.txt"
    fam.write_text(write_family(FuncFamily(((1, 2), (2, 4)))))
    code, out, _ = run(
        capsys, "tower", "--chain", str(chain_file), "--family", str(fam),
        "--a-max", "50", "--x-max", "9",
    )
    assert code == 1
    assert "verdict: FAIL" in out
    assert "level 2 family 1: no witness" in out


def test_tower_probe_output(capsys, tmp_path):
    w = Window(1, 64)
    chain = Chain(tuple(evaluate(Multiples(2 ** n), w) for n in (1, 2, 3)),
                  KIND_QUASI_CENTRAL)
    chain_file = tmp_path / "chain.txt"
    chain_file.write_text(write_chain(chain))
    code, out, _ = run(
        capsys, "tower", "--chain", str(chain_file), "--r", "8", "--L", "16",
        "--probe", "1", "2", "2", "--len", "2",
    )
    assert code == 0
    assert "probe (2, 2) at level 1: absorbed at level 1" in out


def test_vdw_exit_codes(capsys, tmp_path):
    dest = tmp_path / "v.json"
    code, out, _ = run(capsys, "vdw", "--n", "9", "--colors", "2", "--len", "3",
                       "--out", str(dest))
    assert code == 0 and "verdict true" in out
    assert verify_certificate(json.loads(dest.read_text()))

    code, out, _ = run(capsys, "vdw", "--n", "8", "--colors", "2", "--len", "3")
    assert code == 1 and "coloring 00110011" in out

    code, out, _ = run(capsys, "vdw", "--n", "40", "--colors", "3", "--len", "3",
                       "--budget", "10")
    assert code == 3 and "budget" in out


@pytest.mark.parametrize("budget", ["0", "-5"])
def test_vdw_budget_below_one_is_bad_input(capsys, monkeypatch, budget):
    # the flag and the variable meet the same rule in vdw_check
    code, out, err = run(capsys, "vdw", "--n", "5", "--colors", "2", "--len", "3",
                         "--budget", budget)
    assert code == 2 and "explored" not in out and "must be >= 1" in err
    monkeypatch.setenv("APLIFT_BUDGET", budget)
    code, out, err = run(capsys, "vdw", "--n", "5", "--colors", "2", "--len", "3")
    assert code == 2 and "APLIFT_BUDGET" in err


def test_set_file_input(capsys, tmp_path):
    A = evaluate(Multiples(2), Window(1, 100))
    sf = tmp_path / "set.txt"
    sf.write_text(write_intset(A))
    code, out, _ = run(capsys, "ap", "--set-file", str(sf), "--len", "3")
    assert code == 0 and "a=2 d=2" in out


@pytest.mark.parametrize("extra", [
    ["--set", "x"],
    ["--window", "1:100"],
    ["--set", "multiples(2)", "--window", "1:100"],
])
def test_set_file_with_set_or_window_exits_two(capsys, tmp_path, extra):
    # the set file would win, and the other flags be dropped unread
    sf = tmp_path / "set.txt"
    sf.write_text(write_intset(evaluate(Multiples(2), Window(1, 100))))
    code, out, err = run(capsys, "ap", "--set-file", str(sf), "--len", "1", *extra)
    assert (code, out) == (2, "") and "--set-file takes neither --set nor --window" in err


def _recording_evaluate(monkeypatch, module):
    windows = []

    def recording(expr, w):
        windows.append(w)
        return evaluate(expr, w)

    monkeypatch.setattr(module, "evaluate", recording)
    return windows


def test_lift_box_evaluates_only_the_box_reach(capsys, tmp_path, monkeypatch):
    # the box's pairs read [a_lo, a_hi + l * d_hi] = [5, 40 + 2 * 9]; the
    # report is the one a set file of the whole window gives, the
    # certificate records the window as given, and verify evaluates only
    # the reach of the 10 x 3 sub-box it names
    text = "union(multiples(3), bernoulli(0.6, 4))"
    sf = tmp_path / "set.txt"
    sf.write_text(write_intset(evaluate(parse_dsl(text).expr, Window(1, 500))))
    argv = ["lift", "--len", "2", "--box", "5:40x3:9", "--r1", "2", "--r2", "2",
            "--L1", "10", "--L2", "3"]
    cli_windows = _recording_evaluate(monkeypatch, cli)
    dest = tmp_path / "pws2d.json"
    code, out, _ = run(capsys, *argv, "--set", text, "--window", "1:500", "--out", str(dest))
    assert code == 0 and cli_windows == [Window(5, 58)]
    assert out == run(capsys, *argv, "--set-file", str(sf))[1] + f"certificate written to {dest}\n"
    cert = json.loads(dest.read_text())
    assert cert["inputs"]["window"] == [1, 500]
    a0, d0 = cert["witness"]["a0"], cert["witness"]["d0"]
    cert_windows = _recording_evaluate(monkeypatch, certificates)
    assert run(capsys, "verify", str(dest))[0] == 0
    assert cert_windows == [Window(a0, a0 + 9 + 2 * (d0 + 2))]
    # a box whose reach misses the window evaluates its first position alone
    code, out, _ = run(capsys, "lift", "--set", text, "--window", "1:500", "--len", "2",
                       "--box", "600:700x1:2", "--r1", "1", "--r2", "1")
    assert code == 1 and cli_windows[-1] == Window(1, 1)


def test_lift_box_and_verify_on_the_widest_window_take_under_a_second(capsys, tmp_path):
    # the window holds 2^27 positions, over 10 s to build; the box reads 216
    dest = tmp_path / "wide.json"
    lift = ["lift", "--set", "bernoulli(0.5, 7)", "--window", "1:134217728", "--len", "2",
            "--box", "1:200x1:8", "--r1", "8", "--r2", "8", "--L1", "64", "--L2", "8",
            "--out", str(dest)]
    for argv in (lift, ["verify", str(dest)]):
        start = time.perf_counter()
        code, _, _ = run(capsys, *argv)
        assert code == 0 and time.perf_counter() - start < 1.0
    # a forged a0 = 10**9 lies past the window's top: the sub-box's reach
    # misses the window, so verify evaluates one position
    cert = json.loads(dest.read_text())
    dest.write_text(certificates.dumps_certificate(certificates.build_certificate(
        "pws2d", cert["inputs"], cert["params"], dict(cert["witness"], a0=10 ** 9))))
    start = time.perf_counter()
    code, out, _ = run(capsys, "verify", str(dest))
    assert code == 4 and out.startswith("invalid") and time.perf_counter() - start < 1.0


@pytest.mark.parametrize("argv, family", [
    (["jset", "--family"], "family 2 3\n1 2 3\n2 3 4\n"),
    (["transfer", "--b", "1", "--len", "2", "--family2d"], "family2d 1 2\n1 2\n1 1\n"),
], ids=["jset", "transfer"])
def test_verify_jset_kinds_on_the_widest_window_take_under_a_second(capsys, tmp_path, argv, family):
    # a witness found on 1,000 positions, its window widened to 2^27 with
    # both digests recomputed: verify evaluates only the sums over H and the
    # progressions from them, not the 2^27 positions it took 9 to 10 s to build
    path, dest = tmp_path / "family.txt", tmp_path / "cert.json"
    path.write_text(family)
    code, _, _ = run(capsys, *argv, str(path), "--set", "bernoulli(0.5, 7)", "--window", "1:1000",
                     "--a-max", "10", "--out", str(dest))
    assert code == 0
    cert = json.loads(dest.read_text())
    dest.write_text(certificates.dumps_certificate(certificates.build_certificate(
        cert["kind"], dict(cert["inputs"], window=[1, 1 << 27]), cert["params"], cert["witness"])))
    start = time.perf_counter()
    code, out, _ = run(capsys, "verify", str(dest))
    assert code == 0 and out.startswith("valid") and time.perf_counter() - start < 1.0


def test_set_file_parsed_once(capsys, tmp_path, monkeypatch):
    calls = []

    def counting(text):
        calls.append(text)
        return read_intset(text)

    monkeypatch.setattr(fileformats, "read_intset", counting)
    A = evaluate(Multiples(3), Window(5, 200))
    sf = tmp_path / "set.txt"
    sf.write_text(write_intset(A))
    dest = tmp_path / "ap.json"
    code, _, _ = run(capsys, "ap", "--set-file", str(sf), "--len", "2", "--out", str(dest))
    assert code == 0 and len(calls) == 1
    cert = json.loads(dest.read_text())
    assert cert["inputs"] == {"set_text": write_intset(A)}
    assert verify_certificate(cert)


def test_certificate_built_only_for_out(capsys, tmp_path, monkeypatch):
    calls = {"build_certificate": 0, "write_intset": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(certificates, "build_certificate",
                        counting("build_certificate", certificates.build_certificate))
    monkeypatch.setattr(fileformats, "write_intset", counting("write_intset", write_intset))
    sf = tmp_path / "set.txt"
    sf.write_text(write_intset(evaluate(Multiples(2), Window(1, 100))))
    code, out, _ = run(capsys, "ap", "--set-file", str(sf), "--len", "3")
    assert code == 0 and out == "witness a=2 d=2 l=3\n"
    assert calls == {"build_certificate": 0, "write_intset": 0}
    dest = tmp_path / "ap.json"
    code, with_out, _ = run(capsys, "ap", "--set-file", str(sf), "--len", "3", "--out", str(dest))
    assert code == 0 and with_out == out + f"certificate written to {dest}\n"
    assert calls == {"build_certificate": 1, "write_intset": 1}
    assert verify_certificate(json.loads(dest.read_text()))


def test_analyze_out_without_r_exits_two(capsys, tmp_path):
    dest = tmp_path / "pws.json"
    code, out, err = run(capsys, "analyze", "--set", "multiples(3)", "--window", "1:300",
                         "--L", "50", "--out", str(dest))
    assert code == 2 and out == "" and "--out needs --r" in err
    assert not dest.exists()


def test_analyze_r_without_L_exits_two_before_any_output(capsys):
    code, out, err = run(capsys, "analyze", "--set", "multiples(3)", "--window", "1:300",
                         "--r", "3")
    assert code == 2 and out == "" and "--r needs --L" in err


def test_repeated_calls_share_no_state(capsys, tmp_path):
    # the parser is built once per process; each call must still start clean
    w = Window(1, 300)
    chain = Chain(tuple(evaluate(Multiples(3 ** n), w) for n in (1, 2, 3)), KIND_C_SET)
    chain_file = tmp_path / "chain.txt"
    chain_file.write_text(write_chain(chain))
    fam = tmp_path / "fam.txt"
    fam.write_text(write_family(FuncFamily(((1, 2), (2, 4)))))
    tower = ["tower", "--chain", str(chain_file), "--family", str(fam),
             "--family", str(fam), "--a-max", "50", "--x-max", "9"]
    first = run(capsys, *tower)
    assert "family 2" in first[1] and "family 3" not in first[1]
    assert run(capsys, *tower) == first

    dest = tmp_path / "ap.json"
    ap = ["ap", "--set", "multiples(2)", "--window", "1:100", "--len", "3"]
    code, out, _ = run(capsys, *ap, "--out", str(dest))
    assert code == 0 and "certificate written" in out
    dest.unlink()
    code, out, _ = run(capsys, *ap)
    assert code == 0 and "certificate written" not in out and not dest.exists()

    code, _, err = run(capsys, "ap", "--set", "multiples(2)", "--window", "1:100")
    assert code == 2 and "--len" in err
    assert run(capsys, *ap) == (0, out, "")


def test_bad_inputs_exit_two(capsys, tmp_path):
    code, _, err = run(capsys, "ap", "--set", "ap(3)", "--window", "1:40", "--len", "2")
    assert code == 2 and "2 arguments" in err

    code, _, err = run(capsys, "ap", "--set", "multiples(2)", "--window", "40",
                       "--len", "2")
    assert code == 2 and "LO:HI" in err

    code, _, err = run(capsys, "ap", "--set", "multiples(2)", "--len", "2")
    assert code == 2  # window missing

    code, _, err = run(capsys, "jset", "--set", "multiples(3)", "--window", "1:30",
                       "--family", str(tmp_path / "nope.txt"))
    assert code == 2


def test_dsl_nesting_depth_limit(capsys, tmp_path):
    def nested(depth):
        text = "ap(1, 2)"
        for _ in range(depth - 1):
            text = f"union({text}, ap(2, 3))"
        return text

    dest = tmp_path / "ap.json"
    code, out, _ = run(capsys, "ap", "--set", nested(MAX_DEPTH), "--window", "1:40",
                       "--len", "2", "--out", str(dest))
    assert code == 0 and "a=1 d=1" in out
    assert verify_certificate(json.loads(dest.read_text())) is True
    for depth in (MAX_DEPTH + 1, 3000):
        code, _, err = run(capsys, "ap", "--set", nested(depth), "--window", "1:40",
                           "--len", "2")
        assert code == 2 and f"nested deeper than {MAX_DEPTH}" in err


def test_verify_rejects_tampered(capsys, tmp_path):
    dest = tmp_path / "ap.json"
    run(capsys, "ap", "--set", "multiples(2)", "--window", "1:100",
        "--len", "3", "--out", str(dest))
    cert = json.loads(dest.read_text())
    cert["witness"]["a"] = 4
    dest.write_text(json.dumps(cert))
    code, out, _ = run(capsys, "verify", str(dest))
    assert code == 4 and "invalid" in out

    dest.write_text("not json at all")
    code, out, _ = run(capsys, "verify", str(dest))
    assert code == 4


def test_verify_semantic_failure_exit(capsys, tmp_path):
    from aplift.certificates import build_certificate, dumps_certificate

    cert = build_certificate(
        "ap", {"expr": "multiples(2)", "window": [1, 100]}, {"l": 3},
        {"a": 3, "d": 2},
    )
    dest = tmp_path / "bad.json"
    dest.write_text(dumps_certificate(cert))
    code, out, _ = run(capsys, "verify", str(dest))
    assert code == 4 and "witness does not verify" in out


def _cert_to_tamper(kind):
    A = evaluate(Multiples(2), Window(1, 200))
    F = FuncFamily(((1, 2, 3, 4), (2, 4, 6, 8)))
    if kind in ("ap", "ap-expr"):
        wit = ap_search(A, 3)
        set_inputs = (certificates.inputs_for_set(A) if kind == "ap"
                      else certificates.inputs_for_expr(Multiples(2), A.window))
        return certificates.certify("ap", set_inputs, l=wit.l, a=wit.a, d=wit.d)
    if kind == "jset":
        wit = jset_witness(A, F, 10)
        return certificates.certify(
            "jset", certificates.inputs_for_set(A), family=F, a_max=10, a=wit.a, H=wit.H)
    if kind == "jset2d":
        F2D = FuncFamily2D((((1,), (1,)),))
        wit = transfer_witness(A, F2D, 1, 1, 64)
        return certificates.certify(
            "jset2d", certificates.inputs_for_set(A), family2d=F2D, b=1, l=1, a_max=64,
            a1=wit.a1, a2=wit.a2, H=wit.H)
    w = Window(1, 400)
    if kind == "qc":
        chain = Chain(tuple(evaluate(Multiples(2 ** n), w) for n in (1, 2)), KIND_QUASI_CENTRAL)
        report = check_quasicentral(chain, r=8, L=64, x_max=16)
        values = dict(families=None, x_max=16, r=8, L=64, a_max=None)
    else:
        chain = Chain(tuple(evaluate(Multiples(2 ** n), w) for n in (1, 2)), KIND_C_SET)
        report = check_cset(chain, [F], a_max=40, x_max=8)
        values = dict(families=(F,), x_max=8, r=None, L=None, a_max=40)
    return certificates.certify("chain", {}, chain=chain, translate=report.probes,
                                levels=report.levels, **values)


@pytest.mark.parametrize("kind, section, key, value", [
    ("ap", "inputs", "set_text", 5),
    ("ap", "inputs", "set_text", [1]),
    ("ap-expr", "inputs", "expr", [1]),
    ("jset", "inputs", "family", 5),
    ("jset", "inputs", "family", [1]),
    ("jset2d", "inputs", "family2d", [1]),
    ("qc", "inputs", "chain", 5),
    ("qc", "inputs", "chain", [1]),
    ("cset", "inputs", "families", [5]),
    ("cset", "inputs", "families", [[1]]),
    ("qc", "witness", "levels", [1, 2]),
    ("cset", "witness", "levels", [1, 2]),
    ("cset", "witness", "levels", [{"jset": [1]}, {"jset": [1]}]),
    ("qc", "witness", "levels", [["pws_start"], ["pws_start"]]),
    ("qc", "witness", "levels", [{"jset": [{"a": 1, "H": [1]}]}] * 2),
])
def test_verify_tampered_types_exit_four(capsys, tmp_path, kind, section, key, value):
    # the digests are recomputed, so only the payload checks can reject these
    cert = _cert_to_tamper(kind)
    assert verify_certificate(cert)
    parts = {name: dict(cert[name]) for name in ("inputs", "params", "witness")}
    parts[section][key] = value
    tampered = certificates.build_certificate(
        cert["kind"], parts["inputs"], parts["params"], parts["witness"])
    dest = tmp_path / "tampered.json"
    dest.write_text(certificates.dumps_certificate(tampered))
    code, out, _ = run(capsys, "verify", str(dest))
    assert code == 4 and out.startswith("invalid")


@pytest.mark.parametrize("forgery", [
    "qc-without-evidence",
    "qc-with-cset-evidence",
    "cset-with-pws-evidence",
    "wrong-level-count",
])
def test_verify_forged_chain_evidence_exit_four(capsys, tmp_path, forgery):
    # both chains have the levels multiples(2), multiples(4) on 1:400; the
    # digests are recomputed, so only the re-check by chain kind can reject
    qc, cs = _cert_to_tamper("qc"), _cert_to_tamper("cset")
    if forgery == "qc-without-evidence":
        parts = (qc["inputs"], {"x_max": qc["params"]["x_max"]},
                 {**qc["witness"], "levels": []})
    elif forgery == "qc-with-cset-evidence":
        parts = ({**cs["inputs"], "chain": qc["inputs"]["chain"]}, cs["params"], cs["witness"])
    elif forgery == "cset-with-pws-evidence":
        parts = ({"chain": cs["inputs"]["chain"]}, qc["params"], qc["witness"])
    else:
        parts = (qc["inputs"], qc["params"],
                 {**qc["witness"], "levels": qc["witness"]["levels"][:-1]})
    forged = certificates.build_certificate("chain", *parts)
    dest = tmp_path / "forged.json"
    dest.write_text(certificates.dumps_certificate(forged))
    code, out, _ = run(capsys, "verify", str(dest))
    assert code == 4 and out.startswith("invalid")


def test_tower_rejects_flags_of_the_other_chain_kind(capsys, tmp_path):
    w = Window(1, 64)
    levels = tuple(evaluate(Multiples(2 ** n), w) for n in (1, 2))
    qc, cs = tmp_path / "qc.txt", tmp_path / "cs.txt"
    qc.write_text(write_chain(Chain(levels, KIND_QUASI_CENTRAL)))
    cs.write_text(write_chain(Chain(levels, KIND_C_SET)))
    # the family file is never read for a quasi-central chain
    code, _, err = run(capsys, "tower", "--chain", str(qc), "--r", "8", "--L", "64",
                       "--family", str(tmp_path / "missing.txt"))
    assert code == 2 and "--family" in err and "No such file" not in err
    code, _, err = run(capsys, "tower", "--chain", str(cs), "--r", "3", "--L", "5")
    assert code == 2 and "--r" in err


@pytest.mark.parametrize("argv", [
    ["analyze", "--set", "multiples(3)", "--window", "1:300", "--r", "0", "--L", "5"],
    ["lift", "--set", "multiples(3)", "--window", "1:60", "--len", "2", "--r1", "0", "--r2", "3"],
    ["tower", "--chain", "cs.txt", "--r", "3", "--L", "5"],
    ["ap", "--set", "multiples(2)", "--window", "1:100", "--len", "0"],
    ["jset", "--set", "multiples(3)", "--window", "1:300", "--family", "fam.txt", "--a-max", "0"],
    ["transfer", "--set", "multiples(2)", "--window", "1:200", "--family2d", "fam2d.txt",
     "--b", "0", "--len", "1"],
    ["vdw", "--n", "8", "--colors", "2", "--len", "3", "--budget", "0"],
], ids=lambda argv: argv[0])
def test_raised_errors_print_nothing_on_stdout(capsys, tmp_path, monkeypatch, argv):
    # the search raises after part of the report is known; none of it is printed
    monkeypatch.chdir(tmp_path)
    levels = tuple(evaluate(Multiples(2 ** n), Window(1, 64)) for n in (1, 2))
    (tmp_path / "cs.txt").write_text(write_chain(Chain(levels, KIND_C_SET)))
    (tmp_path / "fam.txt").write_text(write_family(FuncFamily(((1, 2), (2, 4)))))
    (tmp_path / "fam2d.txt").write_text(write_family2d(FuncFamily2D((((1,), (1,)),))))
    code, out, err = run(capsys, *argv, "--out", "c.json")
    assert code == 2 and out == "" and err.startswith("error:")
    assert not (tmp_path / "c.json").exists()


def test_tower_cset_a_max_below_one_exits_two(capsys, tmp_path, monkeypatch):
    # with no --family no J-set search runs, but a_max must still be >= 1
    monkeypatch.chdir(tmp_path)
    levels = tuple(evaluate(Multiples(2 ** n), Window(1, 16)) for n in (1, 2))
    (tmp_path / "cs.txt").write_text(write_chain(Chain(levels, KIND_C_SET)))
    tower = ["tower", "--chain", "cs.txt", "--a-max", "0", "--x-max", "4"]
    for argv in (tower, tower + ["--out", "cs.json"]):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and "a_max" in err
    assert not (tmp_path / "cs.json").exists()


def test_verify_file_not_utf8_exit_four(capsys, tmp_path):
    dest = tmp_path / "notutf8.json"
    dest.write_bytes(bytes.fromhex("fffe7b7d"))
    code, out, err = run(capsys, "verify", str(dest))
    assert code == 4 and out.startswith("not a certificate:") and err == ""
    # a certificate in UTF-16 is read as JSON reads it
    cert = _cert_to_tamper("ap")
    dest.write_bytes(certificates.dumps_certificate(cert).encode("utf-16"))
    assert run(capsys, "verify", str(dest)) == (0, "valid ap certificate\n", "")


def test_unwritable_out_prints_nothing_on_stdout(capsys, tmp_path):
    # the certificate is written before the report is printed
    dest = tmp_path / "missing" / "ap.json"
    code, out, err = run(capsys, "ap", "--set", "multiples(2)", "--window", "1:100",
                         "--len", "3", "--out", str(dest))
    assert code == 2 and out == "" and "No such file" in err


def test_verify_huge_progression_length_is_bounded(capsys, tmp_path):
    # the last term lies far past the window, so verify rejects it at once
    cert = certificates.build_certificate(
        "ap", {"expr": "multiples(1)", "window": [1, 100]}, {"l": 10**12}, {"a": 1, "d": 1})
    dest = tmp_path / "forged.json"
    dest.write_text(certificates.dumps_certificate(cert))
    # a verifier that builds all 10**12 terms then fails with MemoryError
    with address_space_cap():
        start = time.perf_counter()
        code, out, _ = run(capsys, "verify", str(dest))
        elapsed = time.perf_counter() - start
    assert code == 4 and out.startswith("invalid")
    assert elapsed < 1.0


def test_verify_forged_vdw_coloring_exit_four(capsys, tmp_path):
    # 0, 0, 0 opens the coloring, so verify must find the progression;
    # the digests are recomputed, so only the coloring check can reject it
    coloring = [0, 0, 0] + [(i // 2) % 2 for i in range(1997)]
    forged = certificates.build_certificate(
        "vdw", {"n": 2000, "colors": 2, "ap_len": 3}, {},
        {"verdict": "false", "strategy": "backtracking", "explored": 1, "coloring": coloring})
    dest = tmp_path / "forged.json"
    dest.write_text(certificates.dumps_certificate(forged))
    start = time.perf_counter()
    code, out, _ = run(capsys, "verify", str(dest))
    assert code == 4 and out.startswith("invalid")
    assert time.perf_counter() - start < 0.5


def test_verify_pws2d_lifts_only_the_sub_box(capsys, tmp_path):
    # the box's d-width is a JSON number; the claim concerns the 6 x 6
    # sub-box alone, so a box reaching d = 10**7 costs no more to verify
    A = evaluate(Multiples(3), Window(1, 60))
    inputs = certificates.inputs_for_expr(Multiples(3), A.window)
    params = {"l": 2, "box": [1, 30, 1, 10**7], "r1": 3, "r2": 3, "L1": 6, "L2": 6}
    dest = tmp_path / "pws2d.json"
    for a0, expected in ((1, 0), (28, 4)):  # a sub-box from a = 28 leaves the box at 30
        cert = certificates.build_certificate("pws2d", inputs, params, {"a0": a0, "d0": 1})
        dest.write_text(certificates.dumps_certificate(cert))
        start = time.perf_counter()
        code, _, _ = run(capsys, "verify", str(dest))
        assert code == expected
        assert time.perf_counter() - start < 0.5


def test_verify_deeply_nested_json_exit_four(capsys, tmp_path):
    dest = tmp_path / "deep.json"
    dest.write_text("[" * 100_000 + "]" * 100_000)
    code, out, err = run(capsys, "verify", str(dest))
    assert code == 4 and out.startswith("not a certificate: ") and not err


def test_verify_number_of_more_than_4300_digits_exit_four(capsys, tmp_path):
    # from Python 3.11 json.loads refuses such a number with a plain
    # ValueError; before 3.11 it parses, and the digest no longer matches
    dest = tmp_path / "ap.json"
    code, _, _ = run(capsys, "ap", "--set", "multiples(2)", "--window", "1:100", "--len", "3",
                     "--out", str(dest))
    text = dest.read_text()
    assert code == 0 and text.count('"a": 2,') == 1
    dest.write_text(text.replace('"a": 2,', '"a": 1' + "0" * 4999 + ","))
    code, out, err = run(capsys, "verify", str(dest))
    assert code == 4 and out.startswith(("not a certificate: ", "invalid: ")) and not err


@pytest.mark.parametrize("argv, text", [
    (["ap", "--len", "1", "--set-file"], "1 2 " + "7" * 5000 + "\n"),
    (["jset", "--set", "multiples(2)", "--window", "1:100", "--family"],
     "family 1 2\n1 " + "7" * 5000 + "\n"),
], ids=["set", "family"])
def test_file_integer_of_more_than_4300_digits_exits_two(capsys, tmp_path, argv, text):
    # int() refuses such a number as it refuses a non-integer; the error says why, without its digits
    path = tmp_path / "input.txt"
    path.write_text(text)
    code, out, err = run(capsys, *argv, str(path))
    assert (code, out) == (2, "") and "has more than 4300 digits" in err and len(err) < 100


@pytest.mark.parametrize("argv, text", [
    (["ap", "--len", "1", "--set-file"], "1 " + "x" * 5000 + "\n"),
    (["jset", "--set", "multiples(2)", "--window", "1:100", "--family"],
     "family 1 2\n1 " + "x" * 5000 + "\n"),
], ids=["set", "family"])
def test_file_long_bad_token_is_quoted_in_part(capsys, tmp_path, argv, text):
    path = tmp_path / "input.txt"
    path.write_text(text)
    code, out, err = run(capsys, *argv, str(path))
    assert (code, out) == (2, "")
    assert f"not an integer: {'x' * 40!r}... (5000 characters)" in err and len(err) < 150


def test_element_list_read_in_bounded_memory(capsys, tmp_path):
    # the members go straight into the bitmap; a token list and an int list
    # of the whole file took about 400 MB here
    text = " ".join(map(str, range(2, (1 << 23) + 1, 2))) + "\n"
    with address_space_cap(256 << 20):
        A = read_intset(text)
    assert len(A) == 1 << 22 and A.window == Window(1, 1 << 23)
    assert A.bits == int("10" * (1 << 22), 2)
    path = tmp_path / "elements.txt"
    path.write_text(f"1 {(1 << 27) + 1}\n")
    with address_space_cap(256 << 20):
        code, out, err = run(capsys, "analyze", "--set-file", str(path))
    assert (code, out) == (2, "") and "wider than 2^27 bits" in err


_WIDE = 10 ** 10


@pytest.mark.parametrize("argv, message", [
    (["analyze", "--set", "multiples(3)", "--window", f"1:{_WIDE}"], "wider than 2^27 bits"),
    (["analyze", "--set-file", "{elements}"], "wider than 2^27 bits"),
    (["lift", "--set", "multiples(3)", "--window", "1:100", "--len", "2",
      "--box", "1:10x1:1000000000", "--r1", "1", "--r2", "1"], "holds more than 2^27 pairs"),
    # the box induced by 40,000 bits at depth 2 has 20,000 x 10,000 pairs
    (["lift", "--set", "multiples(3)", "--window", "1:40000", "--len", "2",
      "--r1", "1", "--r2", "1"], "choose a smaller one with --box"),
])
def test_window_and_box_ceiling_exit_two(capsys, tmp_path, argv, message):
    elements = tmp_path / "elements.txt"
    elements.write_text(f"1 2 {_WIDE}\n")
    argv = [a.format(elements=elements) for a in argv]
    with address_space_cap():
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        elapsed = time.perf_counter() - start
    assert (code, out) == (2, "") and message in err
    assert elapsed < 1.0


_MULTIPLES_2 = {"expr": "multiples(2)", "window": [1, 100]}


@pytest.mark.parametrize("kind, inputs, params, witness", [
    ("ap", {"expr": "multiples(2)", "window": [1, _WIDE]}, {"l": 2}, {"a": 2, "d": 2}),
    ("ap", {"set_text": f"1 2 {_WIDE}\n"}, {"l": 1}, {"a": 1, "d": 1}),
    # the forged certificate whose sub-box is 10**6 x 10**6 pairs
    ("pws2d", _MULTIPLES_2, {"l": 1, "box": [1, 10 ** 6, 1, 10 ** 6], "r1": 1, "r2": 1,
                             "L1": 10 ** 6, "L2": 10 ** 6}, {"a0": 1, "d0": 1}),
    ("pws2d", _MULTIPLES_2, {"l": 1, "box": [1, 10, 1, 10 ** 9], "r1": 1, "r2": 1,
                             "L1": 10, "L2": 10 ** 9}, {"a0": 1, "d0": 1}),
])
def test_window_and_box_ceiling_verify_exit_four(capsys, tmp_path, kind, inputs, params, witness):
    cert = certificates.build_certificate(kind, inputs, params, witness)
    dest = tmp_path / "forged.json"
    dest.write_text(certificates.dumps_certificate(cert))
    with address_space_cap():
        start = time.perf_counter()
        verdict = verify_certificate(cert)
        code, out, _ = run(capsys, "verify", str(dest))
        elapsed = time.perf_counter() - start
    assert verdict is False
    assert code == 4 and out.startswith("invalid")
    assert elapsed < 1.0


# argvs through each branch of the parse: help and version, unknown
# commands and options, missing and bad values, abbreviations, "--" and
# extra positionals
ARGV_CORPUS = [
    [],
    ["-h"],
    ["--version"],
    ["--ver"],
    ["frobnicate", "--n", "8"],
    ["vd", "--n", "8"],
    ["--bogus", "vdw"],
    ["vdw", "--n", "8", "--colors", "2", "--len", "3"],
    ["vdw", "--n", "8", "--colors", "2", "--len", "3", "--bogus"],
    ["vdw", "--n", "8", "--colors", "2", "--len", "3", "extra", "--more"],
    ["vdw", "--n", "8", "--colors", "2"],
    ["vdw", "--n", "eight", "--colors", "2", "--len", "3"],
    ["vdw", "--n"],
    ["vdw", "--co", "2", "--n", "8", "--le", "3", "--bu", "5"],
    ["vdw", "--version"],
    ["vdw", "--n", "8", "--colors", "2", "--len", "3", "--", "--n", "9"],
    ["verify", "a.json", "b.json"],
    ["verify"],
    ["verify", "--", "-a.json"],
    ["ap", "--set=multiples(2)", "--window=1:10", "--len", "1", "stray"],
    ["lift", "--len", "2", "--r1", "1", "--r2", "1", "--L", "3"],
    ["tower", "--chain", "c.txt", "--probe", "1", "2"],
    ["tower", "--chain", "c.txt", "--family", "a", "--family", "b", "--x-max", "-3"],
]


def parsed(parse, argv, capsys):
    """The Namespace, or the exit code, stdout and stderr of the refusal."""
    try:
        return parse(argv)
    except SystemExit as e:
        out = capsys.readouterr()
        return e.code, out.out, out.err


@pytest.mark.parametrize("argv", ARGV_CORPUS, ids=" ".join)
def test_routed_parse_matches_the_full_parse(capsys, argv):
    full = parsed(cli._build_parser()[0].parse_args, argv, capsys)
    assert parsed(cli._parse, argv, capsys) == full


@pytest.mark.parametrize("command", [None, *cli._CERT_KINDS, "verify"])
def test_help_text_is_the_full_parse_help(capsys, command):
    argv = ["--help"] if command is None else [command, "--help"]
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == parsed(cli._build_parser()[0].parse_args, argv, capsys)
    assert code == 0 and out.startswith("usage: aplift " + (command + " " if command else ""))


def test_version_text(capsys):
    assert run(capsys, "--version") == (0, f"aplift {aplift.__version__}\n", "")


def test_cli_import_path_skips_heavy_modules():
    # -S keeps site's .pth files, and what they import, out of the check
    src = Path(aplift.__file__).parents[1]
    heavy = ("dataclasses", "inspect", "fractions", "decimal", "datetime")
    code = f"import sys, aplift.cli; print(*[m for m in {heavy!r} if m in sys.modules])"
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, timeout=60, check=True)
    assert proc.stdout.split() == []


def test_each_command_imports_only_what_it_runs(tmp_path):
    # each fresh process loads the aplift modules its command runs, no others
    src = Path(aplift.__file__).parents[1]
    code = ("import sys\nfrom aplift.cli import run_command\nrun_command(sys.argv[1:])\n"
            "print(*[m for m in sys.modules if m.startswith('aplift.')])")

    def loaded(*argv):
        proc = subprocess.run([sys.executable, "-S", "-c", code, *argv], capture_output=True,
                              text=True, cwd=tmp_path, env={**os.environ, "PYTHONPATH": str(src)},
                              timeout=60, check=True)
        return {m.removeprefix("aplift.") for m in proc.stdout.splitlines()[-1].split()}

    vdw = ["vdw", "--n", "9", "--colors", "2", "--len", "3"]
    assert loaded(*vdw).isdisjoint({"certificates", "dsl", "fileformats", "jsets", "towers"})
    modules = loaded(*vdw, "--out", "vdw.json")
    assert "certificates" in modules
    assert modules.isdisjoint({"dsl", "fileformats", "jsets", "towers"})
    ap = ["ap", "--set", "multiples(2)", "--window", "1:100", "--len", "3", "--out", "ap.json"]
    for argv in (ap, ["verify", "ap.json"]):
        assert loaded(*argv).isdisjoint({"fileformats", "jsets", "towers", "largeness"})
    assert (tmp_path / "ap.json").exists()


def test_package_import_loads_only_the_version():
    # the package root re-exports nothing, so it imports no other submodule
    src = Path(aplift.__file__).parents[1]
    code = "import sys, aplift; print(*sorted(m for m in sys.modules if m.startswith('aplift')))"
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, timeout=60, check=True)
    assert proc.stdout.split() == ["aplift", "aplift._version"]


# definitions that only tests or planned work reach, each kept on purpose
UNCALLED_KEPT = {
    "_has_mono_ap": "oracle: the brute-force colouring check vdw_check is tested against",
    "bernoulli_member": "oracle: the one-position draw the lane-packed builder is tested against",
    "lift_chain": "builds the lifted chain in the (a, d) space that ROADMAP item 1 certifies",
    "verify_lifted_translate": "checks each lifted translate of that chain for ROADMAP item 1",
}


def _names(node):
    """Identifiers that a node refers to, as names, attributes or the parts
    of a dotted string such as the ones the bench looks functions up by."""
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            parts = n.value.split(".")
            if all(part.isidentifier() for part in parts):
                yield from parts


def test_every_definition_has_a_caller():
    # a module-level function or class that neither the package nor the
    # bench names, outside its own body, is dead code that tests alone keep
    root = Path(__file__).resolve().parents[1]
    trees = {p: ast.parse(p.read_text()) for p in
             sorted(root.glob("src/aplift/*.py")) + sorted(root.glob("bench/*.py"))}
    used = Counter(name for tree in trees.values() for name in _names(tree))
    uncalled = [
        f"{path.name}:{node.name}"
        for path, tree in trees.items() if path.parent.name == "aplift"
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and used[node.name] == Counter(_names(node))[node.name]
        and node.name not in UNCALLED_KEPT
    ]
    assert uncalled == []
