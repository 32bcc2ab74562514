"""Acceptance suite: one test per criterion, one pass/fail line each.

Every criterion re-derives its expectations with local brute-force logic
where feasible (marked "oracle" below) so a regression in the fast paths
cannot hide behind itself.
"""

import itertools
import json
import random
import time

from _mutate import leaf_paths, mutate_at
from aplift.certificates import (
    CertificateError,
    certify,
    dumps_certificate,
    inputs_for_expr,
    verify_certificate,
)
from aplift.jsets import (
    FuncFamily,
    FuncFamily2D,
    build_transfer_family,
    jset_witness,
    transfer_witness,
    verify_transfer_witness,
)
from aplift.largeness import find_pws_witness, vdw_check
from aplift.lift import ap_search, find_pws_witness_2d, induced_box, is_syndetic_2d, lift
from aplift.sets import Ap, Bernoulli, Multiples, Union, Window, evaluate
from aplift.towers import (
    KIND_QUASI_CENTRAL,
    Chain,
    ap_translate_level_search,
    check_quasicentral,
    lift_chain,
    verify_lifted_translate,
)


def report(num, ok, detail):
    line = f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}"
    print(line)
    assert ok, line


def test_criterion_1_coloring_decisions():
    t0 = time.perf_counter()
    pos = vdw_check(9, 2, 3)
    neg = vdw_check(8, 2, 3)
    elapsed = time.perf_counter() - t0

    ok = pos.verdict == "true" and pos.strategy == "exhaustive"
    ok = ok and neg.verdict == "false" and neg.strategy == "exhaustive"
    # oracle: re-check the counterexample coloring against every 3-term
    # progression inside [1, 8] with plain loops
    if ok:
        col = neg.coloring
        for d in range(1, 4):
            for a in range(1, 9 - 2 * d):
                if col[a - 1] == col[a + d - 1] == col[a + 2 * d - 1]:
                    ok = False
    ok = ok and elapsed < 1.0
    report(1, ok, f"window 9 forces, window 8 resists (coloring re-checked), "
                  f"{elapsed:.3f}s < 1s")


def test_criterion_2_structured_pair_witnesses():
    rng = random.Random(7011)
    t0 = time.perf_counter()
    checked = 0
    ok = True
    for case in range(20):
        k = rng.randint(1, 3)
        aps = tuple(Ap(rng.randint(1, 50), rng.randint(1, 8)) for _ in range(k))
        expr = Union(aps) if k > 1 else aps[0]
        A = evaluate(expr, Window(1, 1000))
        s = min(ap.d for ap in aps)
        mem = set(A.members())
        for l in (2, 3):
            box = induced_box(A.window, l)
            B = lift(A, l, box)
            r = s * l
            sub = find_pws_witness_2d(B, r, r, 400, 100)
            if sub is None or not is_syndetic_2d(B, sub, r, r):
                ok = False
                checked += 1
                continue
            # oracle: random r x r blocks inside the witness must each
            # contain a full progression, checked with plain loops
            for _ in range(5):
                a0 = rng.randint(sub.a_lo, sub.a_hi - r + 1)
                d0 = rng.randint(sub.d_lo, sub.d_hi - r + 1)
                hit = any(
                    all(a + j * d in mem for j in range(l + 1))
                    for a in range(a0, a0 + r)
                    for d in range(d0, d0 + r)
                )
                if not hit:
                    ok = False
            checked += 1
    elapsed = time.perf_counter() - t0
    ok = ok and checked == 40 and elapsed < 10.0
    report(2, ok, f"{checked} lifted progression-union sets all carry an "
                  f"(r, r)-syndetic sub-box at r = min_step * depth, "
                  f"{elapsed:.2f}s < 10s")


def brute_jset(A, tables, a_max):
    """Oracle: ascending |H|, lex H, ascending a, plain membership loops."""
    mem = set(A.members())
    T = len(tables[0])
    for size in range(1, T + 1):
        for H in itertools.combinations(range(1, T + 1), size):
            for a in range(1, a_max + 1):
                if all(a + sum(tab[t - 1] for t in H) in mem for tab in tables):
                    return (a, H)
    return None


def test_criterion_3_transfer_instances():
    rng = random.Random(90210)
    found = 0
    bad_verify = 0
    oracle_mismatch = 0
    for case in range(100):
        m = rng.randint(1, 3)
        T = rng.randint(1, 4)
        q = rng.randint(2, 5)
        b = rng.randint(1, 3)
        l = rng.randint(1, 3)
        pairs = tuple(
            (tuple(rng.randint(1, 10) for _ in range(T)),
             tuple(rng.randint(1, 10) for _ in range(T)))
            for _ in range(m)
        )
        A = evaluate(Multiples(q), Window(1, 2000))
        F2D = FuncFamily2D(pairs)
        wit = transfer_witness(A, F2D, b=b, l=l, a_max=50)
        if wit is not None:
            found += 1
            if not verify_transfer_witness(A, F2D, b, l, 50, wit.a1, wit.a2, wit.H):
                bad_verify += 1
            if wit.a2 != b * len(wit.H):
                bad_verify += 1
        # the derived one-dimensional family must agree with the oracle
        # (here a_max * 2**T = 50 * 16 stays far below the stated bound)
        G = build_transfer_family(F2D, b, l)
        fast = jset_witness(A, G, 50)
        slow = brute_jset(A, G.tables, 50)
        if (fast is None) != (slow is None):
            oracle_mismatch += 1
        elif fast is not None and (fast.a, fast.H) != slow:
            oracle_mismatch += 1
    ok = bad_verify == 0 and oracle_mismatch == 0 and found > 0
    report(3, ok, f"100 random transfer instances: {found} witnesses found, "
                  f"{bad_verify} verification failures, "
                  f"{oracle_mismatch} oracle mismatches")


def test_criterion_4_minimal_transfer_example():
    A = evaluate(Multiples(2), Window(1, 200))
    F2D = FuncFamily2D((((1,), (1,)),))
    wit = transfer_witness(A, F2D, b=1, l=1, a_max=64)
    ok = wit is not None and (wit.a1, wit.a2, wit.H) == (1, 1, (1,))
    if ok:
        start = wit.a1 + 1  # first component summed over H = {1}
        step = wit.a2 + 1   # second component summed over H = {1}
        ok = (start, step) == (2, 2) and start in A and start + step in A
        ok = ok and verify_transfer_witness(A, F2D, 1, 1, 64, wit.a1, wit.a2, wit.H)
    report(4, ok, "identity-pair family on the evens yields base (1, 1) with "
                  "H = {1}; the pair (2, 2) certifies {2, 4}")


def test_criterion_5_chain_and_lifted_translates():
    w = Window(1, 1024)
    chain = Chain(
        tuple(evaluate(Multiples(2 ** n), w) for n in range(1, 6)),
        KIND_QUASI_CENTRAL,
    )
    rep = check_quasicentral(chain, r=32, L=256, x_max=64)
    ok = rep.passed
    # for the powers chain every translate must absorb at its own level
    ok = ok and all(p.found_level == p.level for p in rep.probes)

    box = induced_box(w, 2)
    ok = ok and (box.a_lo, box.a_hi, box.d_lo, box.d_hi) == (1, 512, 1, 256)
    lifted = lift_chain(chain, 2, box)
    probes = 0
    failures = 0
    for n in (1, 2, 3):
        step = 2 ** n
        for a in range(step, 33, step):
            for b in range(step, 33, step):
                found = ap_translate_level_search(chain, n, a, b, 2)
                probes += 1
                if found is None or not verify_lifted_translate(lifted, n, found, a, b):
                    failures += 1
    ok = ok and probes == 336 and failures == 0
    report(5, ok, f"power-of-two chain passes (r=32, L=256, x_max=64); "
                  f"{probes} level-search probes transfer to the pair space "
                  f"with {failures} exceptions")


def _random_certificates(rng, count):
    certs = []
    for i in range(count):
        q = 2 + i % 4
        hi = 100 + (i % 7) * 50
        which = i % 5
        if which == 0:
            A = evaluate(Multiples(q), Window(1, hi))
            wit = ap_search(A, 1 + i % 3)
            certs.append(certify("ap", inputs_for_expr(Multiples(q), A.window),
                                 l=wit.l, a=wit.a, d=wit.d))
        elif which == 1:
            A = evaluate(Multiples(q), Window(1, hi))
            wit = find_pws_witness(A, q, 50)
            certs.append(certify(
                "pws", inputs_for_expr(Multiples(q), A.window), r=q, L=50, start=wit.start))
        elif which == 2:
            A = evaluate(Multiples(q), Window(1, 300))
            F = FuncFamily(((1, 2, 3, 4),))
            wit = jset_witness(A, F, 50)
            certs.append(certify(
                "jset", inputs_for_expr(Multiples(q), A.window), family=F, a_max=50,
                a=wit.a, H=wit.H))
        elif which == 3:
            n = 5 + i % 3
            res = vdw_check(n, 2, 3)
            certs.append(certify(
                "vdw", {}, n=n, colors=2, ap_len=3, verdict=res.verdict, coloring=res.coloring,
                strategy=res.strategy, explored=res.explored))
        else:
            A = evaluate(Multiples(2), Window(1, hi))
            F2D = FuncFamily2D((((1,), (1,)),))
            wit = transfer_witness(A, F2D, b=1, l=1, a_max=64)
            certs.append(certify(
                "jset2d", inputs_for_expr(Multiples(2), A.window), family2d=F2D, b=1, l=1,
                a_max=64, a1=wit.a1, a2=wit.a2, H=wit.H))
    return certs


def test_criterion_6_certificates_and_mutations():
    rng = random.Random(4242)
    certs = _random_certificates(rng, 100)
    roundtrip_failures = 0
    for cert in certs:
        again = json.loads(dumps_certificate(cert))
        if verify_certificate(again) is not True:
            roundtrip_failures += 1

    # 100 single-field mutations, never touching "created"
    survived = []
    mutations = 0
    cert_cycle = itertools.cycle(certs)
    while mutations < 100:
        cert = next(cert_cycle)
        paths = list(leaf_paths(cert))
        path = paths[mutations % len(paths)]
        mutated = mutate_at(cert, path)
        mutations += 1
        try:
            if verify_certificate(mutated) is not False:
                survived.append(path)
        except CertificateError:
            pass  # detected: structural or digest failure
    ok = roundtrip_failures == 0 and not survived
    report(6, ok, f"100 certificates round-trip ({roundtrip_failures} failures); "
                  f"100 single-field mutations all detected "
                  f"({len(survived)} survivors)")


def brute_ap(A, l):
    """Oracle: quadratic scan, smallest step then smallest start."""
    w = A.window
    mem = set(A.members())
    for d in range(1, w.width):
        for a in range(w.lo, w.hi + 1):
            if a + l * d > w.hi:
                break
            if all(a + j * d in mem for j in range(l + 1)):
                return (a, d)
    return None


def test_criterion_7_progression_search_oracle():
    densities = (0.2, 0.5, 0.8)
    mismatches = 0
    found = 0
    for i in range(50):
        width = 64 + (i * 9) % 449  # 64 .. 512
        p = densities[i % 3]
        l = 1 + i % 4
        A = evaluate(Bernoulli(p, 1000 + i), Window(1, width))
        fast = ap_search(A, l)
        slow = brute_ap(A, l)
        if (fast is None) != (slow is None):
            mismatches += 1
        elif fast is not None:
            found += 1
            if (fast.a, fast.d) != slow:
                mismatches += 1
    ok = mismatches == 0 and found > 0
    report(7, ok, f"50 random-set progression searches match the quadratic "
                  f"oracle exactly ({found} witnesses, {mismatches} mismatches)")
