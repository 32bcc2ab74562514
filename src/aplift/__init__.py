"""Largeness detectors and progression-lift witnesses on integer windows.

Everything operates on finite windows [lo, hi] of positive integers. The
package detects structural largeness (syndetic, thick, blockwise-syndetic),
searches arithmetic progressions and simultaneous sum witnesses, lifts sets
to (start, step) pair spaces, checks decreasing chains for the translate
property, and emits tamper-evident JSON certificates for positive findings.
"""

from ._version import __version__
from .certificates import (
    CertificateError,
    DigestMismatch,
    MalformedPayload,
    UnknownKind,
    build_certificate,
    certify,
    chain_certificate,
    dumps_certificate,
    inputs_for_expr,
    inputs_for_set,
    inputs_for_set_text,
    verify_certificate,
)
from .dsl import DslError, DslProgram, parse_dsl, print_expr
from .fileformats import (
    read_chain,
    read_family,
    read_family2d,
    read_intset,
    read_set2d,
    write_chain,
    write_family,
    write_family2d,
    write_intset,
    write_set2d,
)
from .jsets import (
    FuncFamily,
    FuncFamily2D,
    JWitness,
    JWitness2D,
    build_transfer_family,
    jset_witness,
    transfer_witness,
    verify_jwitness,
    verify_transfer_witness,
)
from .largeness import (
    BUDGET_ENV_VAR,
    PwsWitness,
    VdwResult,
    find_pws_witness,
    is_syndetic_on,
    is_thick_on,
    longest_member_run,
    longest_miss_run,
    min_r_for_L,
    vdw_check,
    verify_pws_claim,
)
from .lift import (
    APWitness,
    Box2D,
    Set2D,
    ap_search,
    find_pws_witness_2d,
    induced_box,
    is_syndetic_2d,
    lift,
    verify_ap,
)
from .sets import (
    Ap,
    Bernoulli,
    Complement,
    IntSet,
    Intersect,
    Interval,
    IpSet,
    Multiples,
    SetExpr,
    Shift,
    ThickBlocks,
    Union,
    Window,
    bernoulli_member,
    evaluate,
    ip_set,
    shift_set,
)
from .towers import (
    KIND_C_SET,
    KIND_QUASI_CENTRAL,
    Chain,
    Chain2D,
    ChainReport,
    TranslateProbe,
    ap_translate_level_search,
    check_cset,
    check_quasicentral,
    check_translate_property,
    lift_chain,
    probe_points,
    translate_inclusion_holds,
    verify_chain_report,
    verify_lifted_translate,
)

__all__ = [
    "__version__",
    "Window", "IntSet", "SetExpr", "evaluate", "shift_set", "ip_set",
    "bernoulli_member",
    "Ap", "Interval", "Multiples", "IpSet", "ThickBlocks", "Bernoulli",
    "Shift", "Union", "Intersect", "Complement",
    "is_syndetic_on", "is_thick_on",
    "PwsWitness", "find_pws_witness", "verify_pws_claim", "min_r_for_L",
    "longest_member_run", "longest_miss_run",
    "VdwResult", "vdw_check", "BUDGET_ENV_VAR",
    "APWitness", "Box2D", "Set2D", "verify_ap", "ap_search", "lift",
    "induced_box", "is_syndetic_2d", "find_pws_witness_2d",
    "FuncFamily", "FuncFamily2D", "JWitness", "JWitness2D",
    "jset_witness", "verify_jwitness", "build_transfer_family",
    "transfer_witness", "verify_transfer_witness",
    "Chain", "Chain2D", "ChainReport", "TranslateProbe",
    "KIND_QUASI_CENTRAL", "KIND_C_SET",
    "probe_points", "translate_inclusion_holds", "check_translate_property",
    "check_quasicentral", "check_cset", "verify_chain_report", "lift_chain",
    "ap_translate_level_search", "verify_lifted_translate",
    "DslError", "DslProgram", "parse_dsl", "print_expr",
    "write_intset", "read_intset", "write_set2d", "read_set2d",
    "write_family", "read_family", "write_family2d", "read_family2d",
    "write_chain", "read_chain",
    "CertificateError", "DigestMismatch", "UnknownKind", "MalformedPayload",
    "build_certificate", "dumps_certificate", "verify_certificate",
    "inputs_for_expr", "inputs_for_set", "inputs_for_set_text",
    "certify", "chain_certificate",
]
