"""Decreasing chains, the translate property, and its lift to pair space."""

import pytest

from aplift._record import replace
from aplift.jsets import FuncFamily, JWitness
from aplift.largeness import PwsWitness, find_pws_witness
from aplift.lift import Box2D, induced_box, lift
from aplift.sets import IntSet, Multiples, Window, evaluate
from aplift.towers import (
    KIND_C_SET,
    KIND_QUASI_CENTRAL,
    Chain,
    TranslateProbe,
    ap_translate_level_search,
    check_cset,
    check_quasicentral,
    check_translate_property,
    lift_chain,
    translate_inclusion_holds,
    verify_chain_report,
    verify_lifted_translate,
)


def power_chain(base, depth, hi, kind=KIND_QUASI_CENTRAL):
    w = Window(1, hi)
    return Chain(tuple(evaluate(Multiples(base ** n), w)
                       for n in range(1, depth + 1)), kind)


def verify_qc(chain, x_max, r, L, probes, levels):
    return verify_chain_report(chain, None, x_max, r, L, None, probes, levels)


def verify_cset(chain, x_max, families, a_max, probes, levels):
    return verify_chain_report(chain, families, x_max, None, None, a_max, probes, levels)


def test_chain_validation():
    c = power_chain(2, 3, 64)
    assert c.depth == 3
    assert c.window == Window(1, 64)
    with pytest.raises(ValueError):
        Chain((), KIND_QUASI_CENTRAL)
    with pytest.raises(ValueError):
        Chain(power_chain(2, 2, 64).levels, "some-other-kind")
    # levels must decrease
    w = Window(1, 20)
    up = (evaluate(Multiples(4), w), evaluate(Multiples(2), w))
    with pytest.raises(ValueError):
        Chain(up, KIND_QUASI_CENTRAL)
    # and share a window
    mixed = (evaluate(Multiples(2), Window(1, 20)),
             evaluate(Multiples(4), Window(1, 24)))
    with pytest.raises(ValueError):
        Chain(mixed, KIND_QUASI_CENTRAL)


def test_translate_inclusion_basic():
    c = power_chain(2, 3, 64)
    # multiples of 2**m shifted by a multiple of 2**n stay multiples of 2**n
    assert translate_inclusion_holds(c, 1, 1, 2) is True
    assert translate_inclusion_holds(c, 2, 1, 2) is True
    assert translate_inclusion_holds(c, 1, 1, 1) is False  # odd shift breaks it
    # near the top of the window the inclusion is vacuous
    assert translate_inclusion_holds(c, 1, 1, 64) is True


def test_check_translate_property_powers():
    c = power_chain(2, 4, 256)
    report = check_translate_property(c, x_max=16)
    assert report.translate_ok
    # every probe absorbs at its own level for a multiples chain
    assert all(p.found_level == p.level for p in report.probes)
    # probes cover exactly the members <= x_max, per level
    for n in range(1, 5):
        xs = [p.x for p in report.probes if p.level == n]
        assert xs == [x for x in c.levels[n - 1].members() if x <= 16]


def test_check_translate_property_failure():
    w = Window(1, 30)
    # {1} is in the top level but -1 + C contains no level
    c1 = IntSet.from_members(w, [1, 2, 4, 6, 8, 10, 12])
    c2 = IntSet.from_members(w, [2, 4])
    chain = Chain((c1, c2), KIND_QUASI_CENTRAL)
    report = check_translate_property(chain, x_max=30)
    bad = [p for p in report.probes if p.found_level is None]
    assert any(p.level == 1 and p.x == 1 for p in bad)
    assert not report.translate_ok


def test_check_quasicentral_powers():
    c = power_chain(2, 5, 1024)
    report = check_quasicentral(c, r=32, L=256, x_max=64)
    assert report.translate_ok and report.evidence_ok and report.passed
    assert len(report.levels) == c.depth
    assert all(wit is not None for (wit,) in report.levels)
    assert verify_qc(c, 64, 32, 256, report.probes, report.levels)
    with pytest.raises(ValueError):
        check_quasicentral(power_chain(2, 2, 64, KIND_C_SET), 2, 8, 4)


def test_check_quasicentral_witness_matches_direct():
    c = power_chain(3, 3, 243)
    report = check_quasicentral(c, r=27, L=81, x_max=27)
    for level, (wit,) in zip(c.levels, report.levels):
        assert wit == find_pws_witness(level, 27, 81)
    assert report.passed and verify_qc(c, 27, 27, 81, report.probes, report.levels)


def test_check_cset_passes_with_reachable_family():
    c = power_chain(2, 2, 400, KIND_C_SET)
    F = FuncFamily(((1, 2, 3, 4), (2, 4, 6, 8)))
    report = check_cset(c, [F], a_max=40, x_max=16)
    assert report.passed
    assert all(len(per) == 1 and per[0] is not None for per in report.levels)
    assert verify_cset(c, 16, (F,), 40, report.probes, report.levels)


def test_check_cset_frozen_failure_at_level_two():
    # brute oracle: multiples of 9 never meet {t, 2t} sums at horizon 2
    c = power_chain(3, 3, 300, KIND_C_SET)
    F = FuncFamily(((1, 2), (2, 4)))
    report = check_cset(c, [F], a_max=50, x_max=9)
    assert report.translate_ok
    assert not report.evidence_ok and not report.passed
    per_level = report.levels
    assert per_level[0][0] is not None      # multiples of 3: witness exists
    assert per_level[1][0] is None          # multiples of 9: none
    with pytest.raises(ValueError):
        check_cset(power_chain(2, 2, 64), [F], a_max=10, x_max=4)


def test_check_cset_translate_only():
    c = power_chain(2, 3, 128, KIND_C_SET)
    report = check_cset(c, [], a_max=10, x_max=8)
    assert report.levels == ((), (), ())  # one empty row per level
    assert report.evidence_ok
    assert report.passed == report.translate_ok
    assert verify_cset(c, 8, (), 10, report.probes, report.levels)
    # no family reads a_max, which must still be one the search can take
    with pytest.raises(ValueError, match="a_max"):
        check_cset(c, [], a_max=0, x_max=8)


def test_ap_translate_level_search_powers():
    c = power_chain(2, 3, 64)
    # progression 2, 4, 6 sits in level 1; level 1 already absorbs
    assert ap_translate_level_search(c, 1, 2, 2, 2) == 1
    assert ap_translate_level_search(c, 2, 4, 4, 2) == 2


def test_ap_translate_level_search_strict_descent():
    # crafted so level 1 fails but level 2 absorbs: the extra member 1
    # breaks the inclusion for the shallow level only
    w = Window(1, 20)
    c1 = IntSet.from_members(w, [1] + list(range(2, 21, 2)))
    c2 = IntSet.from_members(w, range(2, 21, 2))
    chain = Chain((c1, c2), KIND_QUASI_CENTRAL)
    assert ap_translate_level_search(chain, 1, 2, 2, 1) == 2


def test_ap_translate_level_search_none_and_errors():
    w = Window(1, 12)
    c1 = IntSet.from_members(w, [1, 2, 3, 4, 5, 6, 8, 10, 12])
    c2 = IntSet.from_members(w, [2, 4, 6, 8, 10, 12])
    chain = Chain((c1, c2), KIND_QUASI_CENTRAL)
    # no level absorbs the (1, 2) progression translate
    assert ap_translate_level_search(chain, 1, 1, 2, 1) is None
    with pytest.raises(ValueError):
        ap_translate_level_search(chain, 2, 1, 2, 1)  # 1 not in level 2
    with pytest.raises(ValueError):
        ap_translate_level_search(chain, 1, 5, 2, 1)  # 7 not in level 1


def test_ap_translate_level_search_vacuous():
    c = power_chain(2, 2, 16)
    # a + l*b almost fills the window: nothing left to test, level n returned
    assert ap_translate_level_search(c, 1, 2, 14, 1) == 1


def test_lift_chain_lifts_each_level_over_one_box():
    c = power_chain(2, 3, 64)
    box = induced_box(c.window, 2)
    levels = lift_chain(c, 2, box)
    assert levels == tuple(lift(level, 2, box) for level in c.levels)
    assert all(level.box == box for level in levels)
    # lift is monotone in the set, so the lifted levels decrease
    for shallow, deep in zip(levels, levels[1:]):
        assert all(d & ~s == 0 for s, d in zip(shallow.rows, deep.rows))
    assert any(d != s for s, d in zip(levels[0].rows, levels[1].rows))


def test_verify_lifted_translate_powers():
    c = power_chain(2, 3, 512)
    box = induced_box(c.window, 2)
    c2 = lift_chain(c, 2, box)
    # (2, 2) progression in level 1, absorbed at level 1
    n = ap_translate_level_search(c, 1, 2, 2, 2)
    assert n == 1
    assert verify_lifted_translate(c2, 1, n, 2, 2) is True


def test_verify_lifted_translate_matches_level_search():
    # the crafted strict-descent chain: level 1 fails, level 2 verifies
    w = Window(1, 20)
    c1 = IntSet.from_members(w, [1] + list(range(2, 21, 2)))
    c2 = IntSet.from_members(w, range(2, 21, 2))
    chain = Chain((c1, c2), KIND_QUASI_CENTRAL)
    box = induced_box(w, 1)
    lifted = lift_chain(chain, 1, box)
    assert verify_lifted_translate(lifted, 1, 1, 2, 2) is False
    assert verify_lifted_translate(lifted, 1, 2, 2, 2) is True


def test_verify_lifted_translate_no_clip_soundness():
    # on a clip-free box every successful level search transfers exactly
    c = power_chain(2, 3, 512)
    box = induced_box(c.window, 2)
    lifted = lift_chain(c, 2, box)
    for n in (1, 2, 3):
        step = 2 ** n
        for a in range(step, 33, step):
            for b in range(step, 33, step):
                if a + 2 * b > 512:
                    continue
                found = ap_translate_level_search(c, n, a, b, 2)
                assert found is not None
                assert verify_lifted_translate(lifted, n, found, a, b) is True


def test_report_shapes():
    c = power_chain(2, 2, 64)
    report = check_quasicentral(c, r=4, L=16, x_max=8)
    assert isinstance(report.probes[0], TranslateProbe)
    assert all(isinstance(wit, PwsWitness) for (wit,) in report.levels)
    assert verify_qc(c, 8, 4, 16, report.probes, report.levels)


def test_translate_only_report_does_not_pass():
    # the kind's evidence was never sought, so there is nothing to certify
    c = power_chain(2, 3, 128)
    report = check_translate_property(c, x_max=16)
    assert report.translate_ok and not report.evidence_ok and not report.passed
    assert report.levels is None
    assert not verify_qc(c, 16, 4, 16, report.probes, report.levels)


def test_verify_chain_report_rejects_forged_reports():
    c = power_chain(2, 3, 256)
    report = check_quasicentral(c, r=8, L=64, x_max=16)
    probes, levels = report.probes, report.levels
    assert verify_qc(c, 16, 8, 64, probes, levels)
    # a required probe goes missing, or one is recorded twice
    assert not verify_qc(c, 16, 8, 64, probes[:-1], levels)
    assert not verify_qc(c, 16, 8, 64, probes + probes[-1:], levels)
    # the evidence must be the chain kind's, at the parameters of its kind
    other = Chain(c.levels, KIND_C_SET)
    assert not verify_chain_report(other, None, 16, 8, 64, None, probes, levels)
    assert not verify_cset(other, 16, (), 64, probes, levels)
    assert not verify_cset(other, 16, (FuncFamily(((2,),)),), 64, probes, levels)
    assert not verify_qc(c, 16, None, 64, probes, levels)
    # a pws witness at another (r, L), or one whose interval leaves the window
    assert not verify_qc(c, 16, 4, 64, probes, levels)
    (wit,), *rest = levels
    off = replace(wit, start=c.window.hi - 62)
    assert not verify_qc(c, 16, 8, 64, probes, ((off,), *rest))
    # one witness short
    assert not verify_qc(c, 16, 8, 64, probes, levels[:-1])


def test_verify_chain_report_rejects_found_level_below_level():
    # equal levels: level 1 satisfies the inclusion a level-2 probe asks for,
    # but an absorbing level must lie in [level, depth]
    w = Window(1, 64)
    evens = evaluate(Multiples(2), w)
    c = Chain((evens, evens), KIND_QUASI_CENTRAL)
    report = check_quasicentral(c, r=2, L=16, x_max=8)
    assert verify_qc(c, 8, 2, 16, report.probes, report.levels)
    i = next(i for i, p in enumerate(report.probes) if p.level == 2)
    p = report.probes[i]
    assert translate_inclusion_holds(c, 1, p.level, p.x)
    for m in (1, 0, 3):
        probes = report.probes[:i] + (replace(p, found_level=m),) + report.probes[i + 1:]
        assert not verify_qc(c, 8, 2, 16, probes, report.levels)


def test_verify_chain_report_rejects_level_that_does_not_absorb():
    # x = 1 at level 1 first absorbs at level 2: 1 + 1 is not in C_1
    w = Window(1, 20)
    c = Chain((IntSet.from_members(w, [1, *range(11, 21)]),
               IntSet.from_members(w, range(11, 21))), KIND_QUASI_CENTRAL)
    report = check_quasicentral(c, r=10, L=10, x_max=20)
    assert report.passed and verify_qc(c, 20, 10, 10, report.probes, report.levels)
    assert report.probes[0] == TranslateProbe(1, 1, 2)
    forged = (TranslateProbe(1, 1, 1),) + report.probes[1:]
    assert not verify_qc(c, 20, 10, 10, forged, report.levels)


def test_verify_chain_report_rejects_witness_from_another_level():
    c = power_chain(2, 2, 400, KIND_C_SET)
    F = FuncFamily(((1, 2, 3, 4), (2, 4, 6, 8)))
    report = check_cset(c, [F], a_max=40, x_max=16)
    probes = report.probes
    assert verify_cset(c, 16, (F,), 40, probes, report.levels)
    (w1,), (w2,) = report.levels
    assert w1 != w2
    # level 2 lies inside level 1, so only the shallow witness fails to move down
    assert verify_cset(c, 16, (F,), 40, probes, ((w2,), (w2,)))
    assert not verify_cset(c, 16, (F,), 40, probes, ((w1,), (w1,)))
    # a witness beyond a_max, a family with no witness, a level with none
    assert not verify_cset(c, 16, (F,), w2.a - 1, probes, report.levels)
    assert not verify_cset(c, 16, (F, F), 40, probes, report.levels)
    assert not verify_cset(c, 16, (F,), 40, probes, ((w1,),))
    # a pws witness where a J-set witness belongs, or no families at all
    assert not verify_cset(c, 16, (F,), 40, probes, ((PwsWitness(2),),) * 2)
    assert not verify_cset(c, 16, None, 40, probes, report.levels)


def test_verify_chain_report_rejects_H_beyond_horizon():
    c = power_chain(2, 2, 400, KIND_C_SET)
    F = FuncFamily(((4, 8),))
    report = check_cset(c, [F], a_max=40, x_max=16)
    assert verify_cset(c, 16, (F,), 40, report.probes, report.levels)
    # H reaches 3 on a horizon-2 family: a forged report, not an input error
    beyond = ((JWitness(2, (1, 2, 3)),),) * c.depth
    assert verify_cset(c, 16, (F,), 40, report.probes, beyond) is False
