"""Outside-in spans around the public functions of each ``aplift`` layer.

The traced run replaces every binding of the listed functions (in the
defining module and in each module that imported it) with a timing wrapper,
and puts the originals back afterwards; nothing in ``src/`` is edited.
Because modules call their own functions through module globals, recursive
calls (``sets.evaluate``) and internal calls (``fileformats.read_chain`` ->
``read_intset``) are caught as nested spans. ``iter_bit_indices`` is a
generator and stays unwrapped.

A span is ``[name, tag, start, end, parent, op]``; spans stay in memory until
the run ends. Work counters are derived from call arguments and return
values only.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from math import comb
from time import perf_counter

from oracle import combination_rank

# module -> public functions whose spans the benchmark records
TARGETS = {
    "cli": ("run_command",),
    "dsl": ("parse_dsl", "print_expr"),
    "sets": ("evaluate",),
    "fileformats": ("read_intset", "write_intset", "read_chain", "write_chain",
                    "read_family", "read_family2d"),
    "_bitops": ("run_starts", "smear_right", "longest_run"),
    "largeness": ("find_pws_witness", "min_r_for_L", "longest_member_run",
                  "longest_miss_run", "vdw_check"),
    "lift": ("ap_search", "lift", "find_pws_witness_2d", "is_syndetic_2d", "verify_ap"),
    "jsets": ("jset_witness", "transfer_witness", "verify_jwitness", "verify_transfer_witness"),
    "towers": ("check_translate_property", "check_quasicentral", "check_cset",
               "translate_inclusion_holds", "ap_translate_level_search"),
    "certificates": ("build_certificate", "dumps_certificate", "inputs_for_set_text",
                     "verify_certificate"),
}
LAYERS = tuple(m.lstrip("_") for m in TARGETS)  # metric names start with a letter
SET_TYPES = ("Ap", "Interval", "Multiples", "IpSet", "ThickBlocks", "Bernoulli", "Shift",
             "Union", "Intersect", "Complement")


def _jset_subsets(F, wit) -> int:
    T = F.horizon
    if wit is None:
        return (1 << T) - 1
    k = len(wit.H)
    return sum(comb(T, j) for j in range(1, k)) + combination_rank(wit.H, T) + 1


# span name -> (args, result) -> {counter: increment}
COUNTERS = {
    "sets.evaluate": lambda a, r: {"bits": a[1].width},
    "fileformats.read_intset": lambda a, r: {"bits": r.window.width},
    "fileformats.write_intset": lambda a, r: {"bits": a[0].window.width},
    "largeness.find_pws_witness": lambda a, r: {"hits": r is not None},
    "largeness.vdw_check": lambda a, r: {"nodes": r.explored},
    "lift.ap_search": lambda a, r: {
        "hits": r is not None,
        "steps": r.d if r is not None else (a[0].window.width - 1) // a[1],
    },
    "lift.lift": lambda a, r: {"rows": a[2].d_width},
    "jsets.jset_witness": lambda a, r: {"hits": r is not None, "subsets": _jset_subsets(a[1], r)},
    "towers.check_translate_property": lambda a, r: {"probes": len(r.probes)},
    "certificates.dumps_certificate": lambda a, r: {"bytes": len(r)},
}


class Recorder:
    """Span stack and counters of one traced pass."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.op = None

    def wrap(self, name: str, fn, tagged: bool = False):
        count = COUNTERS.get(name)
        spans, stack, counts = self.spans, self.stack, self.counts
        calls = name + ".calls"
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, type(args[0]).__name__ if tagged else None, 0.0, 0.0,
                    stack[-1] if stack else -1, rec.op]
            stack.append(len(spans))
            spans.append(span)
            span[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                stack.pop()
                counts[calls] += 1
            if count is not None:
                for key, inc in count(args, result).items():
                    counts[f"{name}.{key}"] += inc
            return result

        return wrapper


class Installed:
    """Wrappers installed over every binding of the target functions."""

    def __init__(self, rec: Recorder):
        self.saved: list[tuple[object, str, object]] = []
        modules = [m for n, m in sys.modules.items() if n == "aplift" or n.startswith("aplift.")]
        for mod_name, funcs in TARGETS.items():
            home = sys.modules[f"aplift.{mod_name}"]
            for fname in funcs:
                orig = getattr(home, fname)
                wrapper = rec.wrap(f"{mod_name.lstrip('_')}.{fname}", orig,
                                   tagged=fname == "evaluate")
                for mod in modules:
                    for attr, val in list(vars(mod).items()):
                        if val is orig:
                            self.saved.append((mod, attr, orig))
                            setattr(mod, attr, wrapper)
        IntSet = sys.modules["aplift.sets"].IntSet
        orig = IntSet.__dict__["from_members"]
        self.saved.append((IntSet, "from_members", orig))
        IntSet.from_members = classmethod(rec.wrap("sets.IntSet.from_members", orig.__func__))

    def remove(self) -> None:
        for owner, attr, orig in reversed(self.saved):
            setattr(owner, attr, orig)
        self.saved.clear()


def self_times(spans: list[list]) -> dict[tuple[str, object], float]:
    """Self time per (name, tag): span duration minus its children's."""
    child = [0.0] * len(spans)
    for name, tag, start, end, parent, op in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[tuple[str, object], float] = defaultdict(float)
    for i, (name, tag, start, end, parent, op) in enumerate(spans):
        out[(name, tag)] += end - start - child[i]
    return out


def by_name(selfs: dict[tuple[str, object], float]) -> dict[str, float]:
    out: dict[str, float] = defaultdict(float)
    for (name, tag), s in selfs.items():
        out[name] += s
        if tag is not None:
            out[f"{name}.{tag}"] += s
    return out


def _fields(name: str, *fields: str) -> list[str]:
    return [f"{name}.{f}" for f in fields]


# per-layer metrics reported by the traced run, in BENCHMARK.json order
PER_LAYER: list[tuple[str, str]] = []
for _m in (
    _fields("cli.run_command", "calls", "self_s") + ["cli.import_s"]
    + _fields("dsl.parse_dsl", "calls", "self_s") + ["dsl.print_expr.self_s"]
    + _fields("sets.evaluate", "calls", "self_s", "bits", "ns_per_bit")
    + [f"sets.evaluate.{t}.self_s" for t in SET_TYPES] + ["sets.IntSet.from_members.self_s"]
    + _fields("fileformats.read_intset", "calls", "self_s", "bits", "ns_per_bit")
    + _fields("fileformats.write_intset", "calls", "self_s", "bits", "ns_per_bit")
    + [f"fileformats.{f}.self_s" for f in ("read_chain", "write_chain", "read_family", "read_family2d")]
    + [f"bitops.{f}.{x}" for f in ("run_starts", "smear_right", "longest_run") for x in ("calls", "self_s")]
    + _fields("largeness.find_pws_witness", "calls", "self_s", "hit_ratio")
    + [f"largeness.{f}.self_s" for f in ("min_r_for_L", "longest_member_run", "longest_miss_run")]
    + _fields("largeness.vdw_check", "calls", "self_s", "nodes", "nodes_per_s")
    + _fields("lift.ap_search", "calls", "self_s", "steps", "hit_ratio")
    + _fields("lift.lift", "self_s", "rows")
    + [f"lift.{f}.self_s" for f in ("find_pws_witness_2d", "is_syndetic_2d", "verify_ap")]
    + _fields("jsets.jset_witness", "calls", "self_s", "subsets", "subsets_per_s", "hit_ratio")
    + [f"jsets.{f}.self_s" for f in ("transfer_witness", "verify_jwitness", "verify_transfer_witness")]
    + _fields("towers.check_translate_property", "self_s", "probes")
    + [f"towers.{f}.self_s" for f in ("check_quasicentral", "check_cset")]
    + _fields("towers.translate_inclusion_holds", "calls", "self_s")
    + ["towers.ap_translate_level_search.self_s"]
    + _fields("certificates.build_certificate", "calls", "self_s")
    + _fields("certificates.dumps_certificate", "self_s", "bytes")
    + ["certificates.inputs_for_set_text.self_s"]
    + _fields("certificates.verify_certificate", "calls", "self_s")
    + ["trace.overhead_s"]
):
    _unit = {"calls": "count", "self_s": "s", "import_s": "s", "overhead_s": "s", "bits": "bits",
             "ns_per_bit": "ns/bit", "hit_ratio": "ratio", "nodes": "count", "nodes_per_s": "1/s",
             "steps": "count", "rows": "count", "subsets": "count", "subsets_per_s": "1/s",
             "probes": "count", "bytes": "bytes"}[_m.rsplit(".", 1)[1]]
    PER_LAYER.append((_m, _unit))


def layer_metrics(counts: dict[str, int], selfs: dict[str, float], extra: dict[str, float]) -> dict[str, float]:
    """Every per-layer metric from one pass's counters and self times."""
    out: dict[str, float] = {}
    for metric, _ in PER_LAYER:
        if metric in extra:
            out[metric] = extra[metric]
            continue
        base, field = metric.rsplit(".", 1)
        if field == "self_s":
            out[metric] = selfs.get(base, 0.0)
        elif field == "hit_ratio":
            calls = counts.get(f"{base}.calls", 0)
            out[metric] = counts.get(f"{base}.hits", 0) / calls if calls else 0.0
        elif field == "ns_per_bit":
            bits = counts.get(f"{base}.bits", 0)
            out[metric] = selfs.get(base, 0.0) * 1e9 / bits if bits else 0.0
        elif field.endswith("_per_s"):
            busy = selfs.get(base, 0.0)
            work = counts.get(f"{base}.{field.removesuffix('_per_s')}", 0)
            out[metric] = work / busy if busy else 0.0
        else:
            out[metric] = counts.get(metric, 0)
    return out


def layer_shares(selfs: dict[str, float], wall: float) -> dict[str, float]:
    """Each layer's self time as a share of the pass wall time."""
    shares = {layer: 0.0 for layer in LAYERS}
    for name, s in selfs.items():
        parts = name.split(".")
        if len(parts) == 2 or parts[1] == "IntSet":  # skip the per-type split
            shares[parts[0]] += s / wall
    return shares
