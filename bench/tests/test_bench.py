"""Tests of the benchmark itself: determinism, span arithmetic, the failure
count, and the reference answers against the package on small cases."""

import itertools
import json
import random

import pytest

import harness
import oracle
import spans
import workloads
from aplift import cli, sets
from aplift.dsl import parse_dsl
from aplift.jsets import FuncFamily, jset_witness
from aplift.largeness import find_pws_witness
from aplift.lift import ap_search


def _snapshot(plan: workloads.Plan, tmp_path, name: str):
    d = tmp_path / name
    plan.write_files(str(d))
    files = {p.relative_to(d).as_posix(): p.read_bytes() for p in sorted(d.rglob("*")) if p.is_file()}
    return files, [op.argv for op in plan.ops + plan.sources], plan.tampers, plan.cold


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_seed_fixes_inputs_and_op_list(name, tmp_path):
    first = _snapshot(workloads.generate(name, 7), tmp_path, "a")
    again = _snapshot(workloads.generate(name, 7), tmp_path, "b")
    other = _snapshot(workloads.generate(name, 8), tmp_path, "c")
    assert first == again
    assert first[0] != other[0] or first[1] != other[1]
    assert len(first[1]) >= 100  # enough ops for a p90 with 10 samples beyond it


def test_self_time_on_nested_spans_with_recursive_evaluate():
    # run_command [0, 10] > evaluate(Union) [1, 9] > evaluate(Ap) [1.5, 3]
    #                                              > evaluate(Complement) [3.5, 8] > evaluate(Multiples) [4, 7]
    #                    > dumps_certificate [9, 9.5]
    tree = [
        ["cli.run_command", None, 0.0, 10.0, -1, 0],
        ["sets.evaluate", "Union", 1.0, 9.0, 0, 0],
        ["sets.evaluate", "Ap", 1.5, 3.0, 1, 0],
        ["sets.evaluate", "Complement", 3.5, 8.0, 1, 0],
        ["sets.evaluate", "Multiples", 4.0, 7.0, 3, 0],
        ["certificates.dumps_certificate", None, 9.0, 9.5, 0, 0],
    ]
    selfs = spans.self_times(tree)
    assert selfs[("cli.run_command", None)] == pytest.approx(1.5)
    assert selfs[("sets.evaluate", "Union")] == pytest.approx(2.0)
    assert selfs[("sets.evaluate", "Ap")] == pytest.approx(1.5)
    assert selfs[("sets.evaluate", "Complement")] == pytest.approx(1.5)
    assert selfs[("sets.evaluate", "Multiples")] == pytest.approx(3.0)
    named = spans.by_name(selfs)
    # recursion is not double counted: the layer's self time is the outer span
    assert named["sets.evaluate"] == pytest.approx(8.0)
    assert named["sets.evaluate.Complement"] == pytest.approx(1.5)
    shares = spans.layer_shares(named, 10.0)
    assert shares["sets"] == pytest.approx(0.8)
    assert sum(shares.values()) == pytest.approx(1.0)
    metrics = spans.layer_metrics({"sets.evaluate.calls": 4, "sets.evaluate.bits": 4000}, named, {})
    assert metrics["sets.evaluate.ns_per_bit"] == pytest.approx(8.0 * 1e9 / 4000)
    assert metrics["sets.evaluate.Multiples.self_s"] == pytest.approx(3.0)


def test_wrappers_nest_count_and_come_off():
    expr = parse_dsl("union(ap(1, 3), complement(shift(multiples(4), 2)))").expr
    original = sets.evaluate
    rec = spans.Recorder()
    installed = spans.Installed(rec)
    try:
        assert sets.evaluate is not original and cli.evaluate is sets.evaluate
        sets.evaluate(expr, sets.Window(1, 500))
    finally:
        installed.remove()
    assert sets.evaluate is original and cli.evaluate is original
    assert rec.counts["sets.evaluate.calls"] == 5  # union, ap, complement, shift, multiples
    assert rec.counts["sets.evaluate.bits"] == 500 * 4 + 498
    selfs = spans.by_name(spans.self_times(rec.spans))
    outer = rec.spans[0]
    assert selfs["sets.evaluate"] == pytest.approx(outer[3] - outer[2])
    assert [s[4] for s in rec.spans] == [-1, 0, 0, 2, 3]


def test_jset_subset_counter_matches_the_enumeration():
    rng = random.Random(3)
    for _ in range(20):
        T, q = rng.randint(3, 7), rng.randint(2, 5)
        F = FuncFamily(tuple(tuple(rng.randint(1, 9) for _ in range(T)) for _ in range(2)))
        A = sets.evaluate(sets.Multiples(q), sets.Window(1, 200))
        wit = jset_witness(A, F, rng.randint(1, q))
        order = [H for k in range(1, T + 1) for H in itertools.combinations(range(1, T + 1), k)]
        expected = len(order) if wit is None else order.index(wit.H) + 1
        assert spans._jset_subsets(F, wit) == expected


def _run_ops(plan, ops, tmp_path, run_command=cli.run_command):
    plan.write_files(str(tmp_path))
    runner = harness.Runner(run_command, str(tmp_path))
    for _ in range(2):
        for op in ops:
            runner.run(op)
    return runner


def test_injected_wrong_expectation_fails_instead_of_being_skipped(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    plan = workloads.generate("deep-search", 1)
    ops = [op for op in plan.ops if op.id in ("vdw-8-2-3", "vdw-9-2-3", "jset-early-8")]
    runner = _run_ops(plan, ops, tmp_path)
    assert harness.check(ops, runner.outcomes) == (6, 0, [])

    wrong = next(op for op in ops if op.id == "vdw-8-2-3")
    wrong.expect.cert["witness"]["coloring"][0] ^= 1  # a wrong expectation
    attempted, failed, msgs = harness.check(ops, runner.outcomes)
    assert (attempted, failed) == (6, 2) and msgs


def test_exceptions_and_changed_reruns_are_failures(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    plan = workloads.generate("deep-search", 1)
    ops = [op for op in plan.ops if op.id == "vdw-8-2-3"]

    def crashing(argv):
        raise RuntimeError("boom")

    runner = _run_ops(plan, ops, tmp_path, crashing)
    assert harness.check(ops, runner.outcomes)[:2] == (2, 2)

    calls = iter([1, 0])
    runner = _run_ops(plan, ops, tmp_path, lambda argv: next(calls))  # second run differs
    attempted, failed, _ = harness.check(ops, runner.outcomes)
    assert attempted == 2 and failed >= 1


def test_tampered_copies_are_rejected_for_the_right_reason(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    plan = workloads.generate("deep-search", 2)
    ops = [op for op in plan.ops if op.id in ("vdw-8-2-3", "jset-early-9", "tower-cset-00")]
    _run_ops(plan, ops, tmp_path)
    for op in ops:
        cert = json.loads((tmp_path / op.out).read_text())
        assert harness.canonical_digest(cert) == cert["digest"]
        for edit, prefix in (("digest", "invalid: certificate digest"), ("witness", "invalid: witness")):
            (tmp_path / "t.json").write_text(json.dumps(harness.tamper(cert, edit)))
            capsys.readouterr()
            assert cli.run_command(["verify", "t.json"]) == 4
            assert capsys.readouterr().out.startswith(prefix)


def test_reference_answers_agree_with_the_package_on_small_cases():
    rng = random.Random(11)
    for _ in range(30):
        W = rng.randint(300, 3000)
        tree = workloads.TEMPLATES[rng.randrange(5)](rng, W)
        lo = rng.randint(1, 40)
        bits = oracle.evaluate(tree, lo, W)
        A = sets.evaluate(parse_dsl(oracle.render(tree)).expr, sets.Window(lo, W))
        assert A.bits == bits
        r, L = rng.randint(2, 12), rng.randint(20, 200)
        wit = find_pws_witness(A, r, L)
        assert oracle.pws_start(bits, lo, W, r, L) == (wit.start if wit else None)
        l = rng.randint(1, 4)
        found = ap_search(A, l)
        assert oracle.ap_witness(bits, lo, W, l) == ((found.a, found.d) if found else None)
    for _ in range(30):
        T, q, M = rng.randint(2, 9), rng.randint(2, 7), rng.randint(1, 3)
        tables = [tuple(rng.randint(1, 20) for _ in range(T)) for _ in range(M)]
        a_max = rng.randint(1, 2 * q)
        hi = a_max + max(map(sum, tables)) + rng.randint(0, 30)
        A = sets.evaluate(sets.Multiples(q), sets.Window(1, hi))
        wit = jset_witness(A, FuncFamily(tuple(tables)), a_max)
        a, H, _ = oracle.jset_multiples(q, hi, tables, a_max)
        assert (a, H) == ((wit.a, wit.H) if wit else (None, None))
