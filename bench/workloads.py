"""Op lists of the three benchmark workloads, generated from a seed.

A workload is a fixed list of ``aplift`` command lines plus the input files
they read. Everything is drawn from ``random.Random(f"{name}:{seed}")``, so
one seed always gives byte-identical files and op lists. The seed varies the
contents (generator parameters, offsets, table values, order) but not the
shape that sets the cost (window widths, horizons, op counts), so that
different seeds measure the same amount of work.

Each op carries a lazily computed expectation from :mod:`oracle`: the exit
code, the certificate fields it must emit, and the stdout lines it must
print. Expectations are evaluated only after the timed region.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional

import oracle

QC = "quasi-central-candidate"
CSET = "c-set-candidate"
WORKLOADS = ("wide-window", "deep-search", "verify-corpus")
# 16 log-spaced widths from 1e4 to 2^17 bits, then 2^18 for a few ops only:
# parsing and serialising are quadratic in the width today, and the top
# width would otherwise dominate every pass
WIDTHS = tuple(int(round(10_000 * 13.1072 ** (i / 15), -2)) for i in range(16)) + (262_144,)


@dataclass
class Expect:
    rc: int
    cert: Optional[dict] = None  # kind, inputs, params, witness
    stdout: tuple[str, ...] = ()  # lines that must appear
    stdout_prefix: str = ""  # the first line must start with this


@dataclass
class Op:
    id: str
    argv: tuple[str, ...]
    out: Optional[str]  # certificate path, relative to the work directory
    _expect: Callable[[], Expect] = field(repr=False)

    @cached_property
    def expect(self) -> Expect:
        return self._expect()


@dataclass
class Plan:
    """Files to write, ops to time, and (verify-corpus) the ops and edits
    that build the certificate corpus during set-up."""

    files: dict[str, str]
    ops: list[Op]
    cold: tuple[str, ...]
    sources: list[Op] = field(default_factory=list)
    tampers: list[tuple[str, str, str]] = field(default_factory=list)  # src, dst, edit

    def write_files(self, workdir: str) -> None:
        os.makedirs(os.path.join(workdir, "certs"), exist_ok=True)
        for rel, text in self.files.items():
            path = os.path.join(workdir, rel)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w") as fh:
                fh.write(text)


# --- set sources -----------------------------------------------------------------


@dataclass
class SetSource:
    """A set given on the command line as DSL text or read from a set file."""

    tree: tuple
    lo: int
    hi: int
    form: str = "expr"  # expr | bitmap | elements
    path: str = ""  # set file, relative to the work directory
    text: str = ""  # DSL text as typed; defaults to the canonical form

    @cached_property
    def raw_bits(self) -> int:
        return oracle.evaluate(self.tree, self.lo, self.hi)

    @property
    def window(self) -> tuple[int, int]:
        """The window the program sees (an element list spans [1, max])."""
        if self.form == "elements":
            return 1, self.raw_bits.bit_length() + self.lo - 1
        return self.lo, self.hi

    @property
    def bits(self) -> int:
        return self.raw_bits << (self.lo - 1) if self.form == "elements" else self.raw_bits

    def argv(self) -> list[str]:
        if self.form == "expr":
            return ["--set", self.text or oracle.render(self.tree), "--window", f"{self.lo}:{self.hi}"]
        return ["--set-file", self.path]

    def file_text(self) -> str:
        if self.form == "bitmap":
            return oracle.set_text(self.raw_bits, self.lo, self.hi)
        return oracle.elements_text(self.raw_bits, self.lo)

    def inputs(self) -> dict:
        if self.form == "expr":
            return {"expr": oracle.render(self.tree), "window": [self.lo, self.hi]}
        lo, hi = self.window
        return {"set_text": oracle.set_text(self.bits, lo, hi)}


def _loose(text: str, rng: random.Random) -> str:
    """Same expression with the spacing a user might type."""
    return text.replace(", ", rng.choice([",", ", ", " , ", ",\n  "]))


# --- op builders ---------------------------------------------------------------


class Builder:
    def __init__(self, name: str, seed: int):
        self.rng = random.Random(f"{name}:{seed}")
        self.files: dict[str, str] = {}
        self.ops: list[Op] = []

    def source(self, tree, lo, hi, form="expr", tag="") -> SetSource:
        src = SetSource(tree, lo, hi, form)
        if form == "expr":
            src.text = _loose(oracle.render(tree), self.rng)
        else:
            src.path = f"sets/{tag}.txt"
            self.files[src.path] = src.file_text()
        return src

    def add(self, op: Op) -> Op:
        self.ops.append(op)
        return op

    def analyze(self, oid: str, src: SetSource, r: int, L: int) -> Op:
        out = f"certs/{oid}.json"

        def expect() -> Expect:
            lo, hi = src.window
            start = oracle.pws_start(src.bits, lo, hi, r, L)
            if start is None:
                return Expect(1, stdout=(f"no length-{L} interval is {r}-syndetic",))
            cert = _cert("pws", src.inputs(), {"r": r, "L": L}, {"start": start})
            return Expect(0, cert, (f"witness interval [{start}, {start + L - 1}] r={r}",))

        argv = ["analyze", *src.argv(), "--r", str(r), "--L", str(L), "--out", out]
        return self.add(Op(oid, tuple(argv), out, expect))

    def ap(self, oid: str, src: SetSource, l: int) -> Op:
        out = f"certs/{oid}.json"

        def expect() -> Expect:
            lo, hi = src.window
            found = oracle.ap_witness(src.bits, lo, hi, l)
            if found is None:
                return Expect(1, stdout=(f"no progression with {l + 1} terms",))
            a, d = found
            cert = _cert("ap", src.inputs(), {"l": l}, {"a": a, "d": d})
            return Expect(0, cert, (f"witness a={a} d={d} l={l}",))

        argv = ["ap", *src.argv(), "--len", str(l), "--out", out]
        return self.add(Op(oid, tuple(argv), out, expect))

    def lift(self, oid: str, src: SetSource, l: int, box, r1, r2, L1, L2) -> Op:
        out = f"certs/{oid}.json"

        def expect() -> Expect:
            lo, _ = src.window
            rows = oracle.lift_rows(src.bits, lo, l, box)
            found = oracle.pws2d_origin(rows, box, r1, r2, L1, L2)
            if found is None:
                return Expect(1, stdout=(f"no {L1}x{L2} sub-box is ({r1}, {r2})-syndetic",))
            params = {"l": l, "box": list(box), "r1": r1, "r2": r2, "L1": L1, "L2": L2}
            cert = _cert("pws2d", src.inputs(), params, {"a0": found[0], "d0": found[1]})
            pairs = sum(row.bit_count() for row in rows)
            return Expect(0, cert, (f"lift depth {l} box {box[0]}:{box[1]}x{box[2]}:{box[3]} pairs {pairs}",))

        a_lo, a_hi, d_lo, d_hi = box
        argv = ["lift", *src.argv(), "--len", str(l), "--box", f"{a_lo}:{a_hi}x{d_lo}:{d_hi}",
                "--r1", str(r1), "--r2", str(r2), "--L1", str(L1), "--L2", str(L2), "--out", out]
        return self.add(Op(oid, tuple(argv), out, expect))

    def tower(self, oid: str, moduli: list[int], hi: int, x_max: int, probe,
              r=None, L=None, families=(), a_max=64) -> Op:
        """Chain of multiples(Q_n) levels on [1, hi]; quasi-central when r is
        given, else a c-set chain with the given families (lists of tables)."""
        out = f"certs/{oid}.json"
        kind = QC if r is not None else CSET
        path = f"chains/{oid}.txt"
        levels = [oracle.evaluate(("multiples", q), 1, hi) for q in moduli]
        self.files[path] = oracle.chain_text(levels, 1, hi, kind)
        fam_paths = []
        for j, tables in enumerate(families):
            fam_paths.append(f"families/{oid}-{j}.txt")
            self.files[fam_paths[-1]] = oracle.family_text(tables)

        def expect() -> Expect:
            table = oracle.translate_table(levels, 1, hi, x_max)
            n, a, b = probe
            found = oracle.probe_level(levels, 1, hi, n, a, b, 2)
            lines = [f"translate probes {len(table)} failed {sum(e[2] is None for e in table)}",
                     f"probe ({a}, {b}) at level {n}: absorbed at level {found}"]
            params = {"x_max": x_max}
            inputs = {"chain": oracle.chain_text(levels, 1, hi, kind)}
            if r is not None:
                starts = [oracle.pws_start(lv, 1, hi, r, L) for lv in levels]
                ok = None not in starts
                params.update(r=r, L=L)
                evidence = [{"pws_start": s} for s in starts]
            else:
                wits = [[oracle.jset_multiples(q, hi, tables, a_max) for tables in families]
                        for q in moduli]
                ok = all(w[1] is not None for per in wits for w in per)
                params["a_max"] = a_max
                inputs["families"] = [oracle.family_text(t) for t in families]
                evidence = [{"jset": [{"a": a, "H": list(H or ())} for a, H, _ in per]}
                            for per in wits]
            ok = ok and all(e[2] is not None for e in table)
            if not ok:
                return Expect(1, stdout=(*lines, "verdict: FAIL"))
            cert = _cert("chain", inputs, params, {"translate": table, "levels": evidence})
            return Expect(0, cert, (*lines, "verdict: PASS"))

        argv = ["tower", "--chain", path, "--x-max", str(x_max)]
        if r is not None:
            argv += ["--r", str(r), "--L", str(L)]
        else:
            for p in fam_paths:
                argv += ["--family", p]
            argv += ["--a-max", str(a_max)]
        argv += ["--probe", *map(str, probe), "--len", "2", "--out", out]
        return self.add(Op(oid, tuple(argv), out, expect))

    def vdw(self, oid: str, n: int, colors: int, k: int) -> Op:
        out = f"certs/{oid}.json"

        def expect() -> Expect:
            verdict, coloring = oracle.vdw_expectation(n, colors, k)
            strategy = oracle.vdw_strategy(n, colors)
            witness = {"verdict": verdict, "strategy": strategy, "coloring": coloring}
            cert = _cert("vdw", {"n": n, "colors": colors, "ap_len": k}, {}, witness)
            lines = [] if coloring is None else ["coloring " + "".join(map(str, coloring))]
            return Expect(0 if verdict == "true" else 1, cert, tuple(lines))

        argv = ["vdw", "--n", str(n), "--colors", str(colors), "--len", str(k), "--out", out]
        return self.add(Op(oid, tuple(argv), out, expect))

    def _multiples_source(self, q: int, hi: int) -> SetSource:
        """multiples(q) on [1, hi], spelled one of three equivalent ways."""
        tree = self.rng.choice([
            ("multiples", q),
            ("ap", q, q),
            ("intersect", (("multiples", q), ("interval", 1, hi))),
        ])
        return self.source(tree, 1, hi)

    def jset(self, oid: str, q: int, tables, a_max: int) -> Op:
        out = f"certs/{oid}.json"
        hi = a_max + max(map(sum, tables)) + self.rng.randint(0, 200)
        src = self._multiples_source(q, hi)
        path = f"families/{oid}.txt"
        self.files[path] = oracle.family_text(tables)

        def expect() -> Expect:
            a, H, _ = oracle.jset_multiples(q, hi, tables, a_max)
            if H is None:
                return Expect(1, stdout=(f"no witness with base a <= {a_max}",))
            inputs = {**src.inputs(), "family": oracle.family_text(tables)}
            cert = _cert("jset", inputs, {"a_max": a_max}, {"a": a, "H": list(H)})
            return Expect(0, cert, (f"witness a={a} H={{{', '.join(map(str, H))}}}",))

        argv = ["jset", *src.argv(), "--family", path, "--a-max", str(a_max), "--out", out]
        return self.add(Op(oid, tuple(argv), out, expect))

    def transfer(self, oid: str, q: int, pairs, b: int, l: int, a_max: int) -> Op:
        out = f"certs/{oid}.json"
        derived = oracle.transfer_tables(pairs, b, l)
        hi = a_max + max(map(sum, derived)) + self.rng.randint(0, 200)
        src = self._multiples_source(q, hi)
        path = f"families/{oid}.txt"
        self.files[path] = oracle.family2d_text(pairs)

        def expect() -> Expect:
            a, H, _ = oracle.jset_multiples(q, hi, derived, a_max)
            if H is None:
                return Expect(1, stdout=(f"no witness with base a <= {a_max}",))
            inputs = {**src.inputs(), "family2d": oracle.family2d_text(pairs)}
            params = {"b": b, "l": l, "a_max": a_max}
            cert = _cert("jset2d", inputs, params, {"a1": a, "a2": b * len(H), "H": list(H)})
            line = f"witness base ({a}, {b * len(H)}) H={{{', '.join(map(str, H))}}} depth {l}"
            return Expect(0, cert, (line,))

        argv = ["transfer", *src.argv(), "--family2d", path, "--b", str(b), "--len", str(l),
                "--a-max", str(a_max), "--out", out]
        return self.add(Op(oid, tuple(argv), out, expect))

    def verify(self, oid: str, cert_path: str, kind: str, edit: str) -> Op:
        def expect() -> Expect:
            if edit == "none":
                return Expect(0, stdout=(f"valid {kind} certificate",))
            if edit == "digest":
                return Expect(4, stdout_prefix="invalid: certificate digest does not match")
            return Expect(4, stdout_prefix="invalid: witness does not verify against the inputs")

        return self.add(Op(oid, ("verify", cert_path), None, expect))

    # --- random tables ---------------------------------------------------------

    def tables_offset(self, q: int, T: int, M: int) -> list[tuple[int, ...]]:
        """M tables: table 2 is congruent to table 1 minus one (mod q) and
        every later table to table 2, so the sums of tables 1 and 2 over H
        differ by |H| (mod q) and agree only when q divides |H|."""
        first = [self.rng.randint(1, 4 * q) for _ in range(T)]
        second = [(v - 1) % q + q * self.rng.randint(0, 3) or q for v in first]
        out = [tuple(first), tuple(second)]
        for _ in range(M - 2):
            out.append(tuple(v % q + q * self.rng.randint(0, 3) or q for v in second))
        return out

    def tables_random(self, q: int, T: int, M: int) -> list[tuple[int, ...]]:
        return [tuple(self.rng.randint(1, 4 * q) for _ in range(T)) for _ in range(M)]


def _cert(kind: str, inputs: dict, params: dict, witness: dict) -> dict:
    return {"kind": kind, "inputs": inputs, "params": params, "witness": witness}


# --- the three workloads ---------------------------------------------------------

# Expression templates for the wide windows. Building a set costs about
# (members x width), so the parameters that set the member count (steps,
# moduli, densities) are fixed and the seed moves only offsets, seeds and
# generators: seeds differ in content, not in work. Together the templates
# use every generator and combinator.


def _t_ap_ipset(rng, W):
    gens = tuple(sorted(rng.sample(range(3, 400), 4)))
    return ("union", (("ap", rng.randint(1, 60), 7), ("ipset", gens)))


def _t_bernoulli_holes(rng, W):
    return ("intersect", (("complement", ("multiples", 3)),
                          ("bernoulli", "0.5", rng.randint(0, 10**6))))


def _t_shift_thick(rng, W):
    blocks, x = [], rng.randint(1, 100)
    for _ in range(3):
        blocks.append((x, x + rng.randint(50, 900)))
        x = blocks[-1][1] + rng.randint(100, W // 3)
    return ("shift", ("union", (("thick", tuple(blocks)), ("multiples", 4))),
            rng.randint(1, 50))


def _t_sieve(rng, W):
    return ("complement", ("intersect", (("multiples", 2),
                                         ("shift", ("multiples", 5), rng.randint(1, 4)))))


def _t_bernoulli_interval(rng, W):
    x = rng.randint(1, W // 2)
    return ("union", (("bernoulli", "0.25", rng.randint(0, 10**6)),
                      ("interval", x, x + rng.randint(100, 1500))))


TEMPLATES = (_t_ap_ipset, _t_bernoulli_holes, _t_shift_thick, _t_sieve, _t_bernoulli_interval)


def _lift_case(rng, W: int):
    """A set whose lift has syndetic stretches, a 48-row box, and r."""
    tree = ("union", (("multiples", 3), ("bernoulli", "0.25", rng.randint(0, 10**6))))
    d_lo = rng.randint(1, 16)
    box = (rng.randint(1, 50), W // 2, d_lo, d_lo + 47)
    return tree, box, 3 + rng.randint(0, 2), rng.randint(200, 400)


def _moduli(rng, depth: int) -> list[int]:
    qs = [rng.choice((2, 3))]
    for _ in range(depth - 1):
        qs.append(qs[-1] * rng.choice((2, 3)))
    return qs


def _wide_window(b: Builder) -> tuple[str, ...]:
    rng = b.rng
    for i, W in enumerate(WIDTHS[:-1]):
        for j in range(2):
            tree = TEMPLATES[(i + 2 * j) % 5](rng, W)
            b.analyze(f"w{i:02d}-analyze-expr{j}", b.source(tree, 1, W),
                      rng.randint(14, 18), rng.randint(600, 2000))
            tree = TEMPLATES[(i + 2 * j + 1) % 5](rng, W)
            b.ap(f"w{i:02d}-ap-expr{j}", b.source(tree, rng.randint(1, 20), W), rng.randint(2, 4))
        tree, box, r, L1 = _lift_case(rng, W)
        b.lift(f"w{i:02d}-lift-expr", b.source(tree, 1, W), 2, box, r, r, L1, 12)
        if W <= 100_000:
            tree = TEMPLATES[(i + 4) % 5](rng, W)
            if i % 2 == 0:
                b.ap(f"w{i:02d}-ap-bitmap", b.source(tree, 1, W, "bitmap", f"w{i:02d}"),
                     rng.randint(2, 3))
            else:
                tree = ("union", (("ap", 1, 7), tree))
                b.analyze(f"w{i:02d}-analyze-elements", b.source(tree, 1, W, "elements", f"w{i:02d}"),
                          rng.randint(14, 18), rng.randint(600, 2000))
        if W <= 30_000:
            qs = _moduli(rng, 4)
            N = rng.randint(1, len(qs))
            probe = (N, qs[N - 1] * rng.randint(1, 5), qs[N - 1] * rng.randint(1, 5))
            b.tower(f"w{i:02d}-tower-qc", qs, W, rng.randint(32, 128), probe,
                    r=qs[-1], L=qs[-1] * rng.randint(2, 8))
    # the 2^18-bit window with DSL input only: a set file that wide takes
    # about 1 s to read and re-serialise, a quarter of a pass
    W = WIDTHS[-1]
    b.ap("wtop-ap-expr", b.source(TEMPLATES[0](rng, W), 1, W), 3)
    b.analyze("wtop-analyze-expr", b.source(TEMPLATES[3](rng, W), 1, W), 16, 1000)
    return ("w00-analyze-expr0", "w00-ap-expr0", "w00-lift-expr")


def _jset_cases(b: Builder, T: int, kind: str, M: int = 2) -> tuple[int, list, int]:
    """(q, tables, a_max) for a jset on multiples(q) with the given outcome."""
    rng = b.rng
    if kind == "miss":
        # the two table sums differ by |H| (mod q) and q > T: never equal
        q = T + 1 + rng.randint(0, 3)
        return q, b.tables_offset(q, T, M), q + rng.randint(0, q)
    if kind == "late":
        # the sums agree only once |H| = q, near the end of the search order
        q = T - 2 - rng.randint(0, 1)
        return q, b.tables_offset(q, T, M), rng.randint(q // 2, q - 1)
    q = rng.randint(3, 6)
    return q, b.tables_random(q, T, M), rng.randint(q, 2 * q)


def _transfer_case(b: Builder, T: int, kind: str):
    """(q, pairs, b, l, a_max) for a transfer on multiples(q)."""
    rng = b.rng
    bstep, l = rng.randint(1, 3), rng.randint(1, 2)
    q = {"late": T - 3, "miss": T + 2}.get(kind) or rng.randint(3, 6)
    first = tuple(rng.randint(1, 3 * q) for _ in range(T))
    if kind == "early":
        second = tuple(rng.randint(1, 3 * q) for _ in range(T))
    else:  # second sums are congruent to (1 - b)|H|, so hits need q | |H|
        second = tuple((1 - bstep) % q + q * rng.randint(0, 2) or q for _ in range(T))
    a_max = rng.randint(q // 2, q - 1) if kind == "late" else q + rng.randint(0, q)
    return q, [(first, second)], bstep, l, a_max


def _cset_tower(b: Builder, oid: str, depth: int, T: int, n_fams: int, missing: bool) -> Op:
    rng = b.rng
    qs = _moduli(rng, depth)
    fams = [b.tables_random(qs[-1], T, 1 + j % 2) for j in range(n_fams)]
    if missing:  # sums agree only when q_deepest * 5 divides |H|: a miss there
        fams.append(b.tables_offset(qs[-1] * 5, T + 3, 2))
    a_max = qs[-1]
    hi = max(rng.randint(900, 1500), a_max + max(sum(t) for f in fams for t in f) + 1)
    N = rng.randint(1, depth)
    probe = (N, qs[N - 1] * rng.randint(1, 4), qs[N - 1] * rng.randint(1, 4))
    return b.tower(oid, qs, hi, rng.randint(32, 64), probe, families=fams, a_max=a_max)


# both sides of W(3;2)=9, W(4;2)=35 and W(3;3)=27. n=27 with 3 colours
# (about 8 s) is left out so that no op dominates a run.
VDW_CASES = (
    [(n, 2, 3) for n in range(3, 13)]
    + [(n, 2, 4) for n in (12, 18, 24, 28, 30, 31, 32, 33, 34, 35)]
    + [(n, 3, 3) for n in (6, 9, 12, 16, 20, 24, 25, 26)]
)


def _deep_search(b: Builder) -> tuple[str, ...]:
    rng = b.rng
    for n, c, k in VDW_CASES:
        b.vdw(f"vdw-{n}-{c}-{k}", n, c, k)
    # misses and late hits stop at T = 17 (about 0.25 s each): at T = 19 one
    # op took a quarter of a pass, too few passes fit in a run, and the
    # best-of-passes latencies stopped being steady
    for T in range(8, 20):
        for kind in ("miss", "late", "early") if T <= 17 else ("early",):
            b.jset(f"jset-{kind}-{T}", *_jset_cases(b, T, kind))
    for T in range(12, 18):
        b.jset(f"jset-late3-{T}", *_jset_cases(b, T, "late", M=3))
    for T in range(6, 15):
        for kind in ("late" if T % 2 == 0 else "miss", "early"):
            b.transfer(f"transfer-{kind}-{T}", *_transfer_case(b, T, kind))
    for j in range(16):
        _cset_tower(b, f"tower-cset-{j:02d}", 2 + j % 3, 6 + j % 7, 1 + j % 2, j % 4 == 3)
    rng.shuffle(b.ops)
    return ("vdw-9-2-3", "jset-early-10", "transfer-early-6")


def _verify_corpus(b: Builder) -> tuple[tuple[str, ...], list[Op], list]:
    """Emit certificates of all seven kinds during set-up, then verify them
    and one tampered copy of each in the timed loop."""
    rng = b.rng
    for i in (0, 2, 4, 6, 8, 10, 12, 14, 16):
        W = WIDTHS[i]
        b.ap(f"src-ap-expr-{i}", b.source(TEMPLATES[i % 5](rng, W), 1, W), 2)
    for i, form in ((1, "bitmap"), (5, "bitmap"), (9, "bitmap"), (3, "elements"), (7, "elements")):
        W = WIDTHS[i]
        tree = ("union", (("ap", 1, 7), TEMPLATES[(i + 1) % 5](rng, W)))
        b.ap(f"src-ap-{form}-{i}", b.source(tree, 1, W, form, f"ap-{i}"), 2)
    for i, form in ((1, "expr"), (3, "expr"), (5, "expr"), (7, "expr"), (9, "expr"),
                    (11, "expr"), (13, "expr"), (15, "expr"), (2, "bitmap"), (6, "bitmap"),
                    (4, "elements")):
        # templates without Bernoulli parts have no miss run of 64 or more
        # (the longest is a shift or a leading offset of at most 60), so
        # r >= 64 guarantees a witness and every source emits a certificate
        W = WIDTHS[i]
        tree = TEMPLATES[(0, 2, 3)[i % 3]](rng, W)
        if form == "elements":
            tree = ("union", (("ap", 1, 7), tree))
        src = b.source(tree, 1, W, form, f"pws-{i}")
        b.analyze(f"src-pws-{form}-{i}", src, rng.randint(64, 80), rng.randint(600, 2000))
    for i in (0, 4, 8, 12):
        W = WIDTHS[i]
        tree, box, r, L1 = _lift_case(rng, W)
        b.lift(f"src-pws2d-{i}", b.source(tree, 1, W), 2, box, r, r, L1, 8)
    for i in range(3):
        qs = _moduli(rng, 3 + i % 2)
        b.tower(f"src-chain-qc-{i}", qs, WIDTHS[i], 64, (1, qs[0], qs[0]),
                r=qs[-1], L=4 * qs[-1])
        _cset_tower(b, f"src-chain-cset-{i}", 2 + i, 8 + i, 1 + i % 2, False)
    for T, kind in ((10, "early"), (12, "early"), (11, "late"), (13, "late")):
        b.jset(f"src-jset-{kind}-{T}", *_jset_cases(b, T, kind))
        b.transfer(f"src-jset2d-{kind}-{T}", *_transfer_case(b, T - 2, kind))
    for n, c, k in ((8, 2, 3), (9, 2, 3), (20, 2, 4), (34, 2, 4), (35, 2, 4), (12, 3, 3), (26, 3, 3)):
        b.vdw(f"src-vdw-{n}-{c}-{k}", n, c, k)
    sources, b.ops = b.ops, []

    tampers = []
    for j, op in enumerate(sources):
        kind = _kind_of(op)
        b.verify(f"verify-{op.id}", op.out, kind, "none")
        # alternate the edits; a true vdw verdict has no digest-free weak spot
        # other than its null colouring, so it always gets the witness edit
        edit = "witness" if j % 2 or op.id in ("src-vdw-9-2-3", "src-vdw-35-2-4") else "digest"
        dst = f"certs/tampered-{op.id}.json"
        tampers.append((op.out, dst, edit))
        b.verify(f"verify-{edit}-{op.id}", dst, kind, edit)
    rng.shuffle(b.ops)
    return ("verify-src-vdw-8-2-3", "verify-src-ap-expr-0", "verify-src-jset-early-10"), sources, tampers


def _kind_of(op: Op) -> str:
    return {"ap": "ap", "analyze": "pws", "lift": "pws2d", "tower": "chain", "jset": "jset",
            "transfer": "jset2d", "vdw": "vdw"}[op.argv[0]]


def generate(name: str, seed: int) -> Plan:
    """The plan of one workload; pure function of (name, seed)."""
    b = Builder(name, seed)
    if name == "wide-window":
        return Plan(b.files, b.ops, _wide_window(b))
    if name == "deep-search":
        return Plan(b.files, b.ops, _deep_search(b))
    if name == "verify-corpus":
        cold, sources, tampers = _verify_corpus(b)
        return Plan(b.files, b.ops, cold, sources, tampers)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
