"""Closed-loop client: runs ops in-process, records outcomes, checks them.

One client, no threads: each op is ``aplift.cli.run_command(argv)`` with
stdout captured, issued after the previous one returned. Outcomes are kept
per op; the check against the oracle's expectations runs after the timed
region, so reference computations never count as program time.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Optional

from workloads import Op, Plan

_CREATED = re.compile(r'\n  "created": "[^"]*",')
# a fresh interpreter running the `aplift` console entry point
CLI_BOOT = "import sys\nfrom aplift.cli import main\nsys.argv[0] = 'aplift'\nmain()"
EXTRA_WITNESS_KEYS = {"vdw": {"explored"}}  # work counts, not part of the claim


@dataclass
class Outcome:
    runs: int = 0
    bad_runs: int = 0  # differ from the first run of the op
    rc: Optional[int] = None
    stdout: str = ""
    cert: Optional[str] = None  # first certificate text, "created" removed
    error: str = ""
    stderr: str = ""


@dataclass
class Runner:
    run_command: Callable[[list[str]], int]
    workdir: str
    outcomes: dict[str, Outcome] = field(default_factory=dict)

    def run(self, op: Op) -> float:
        """Run one op in-process; returns its wall time in seconds."""
        if op.out:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(op.out)
        out, err = io.StringIO(), io.StringIO()
        error = ""
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = perf_counter()
            try:
                rc = self.run_command(list(op.argv))
            except Exception as e:  # a traceback is a failed op, never a crash
                rc, error = None, f"{type(e).__name__}: {e}"
            dt = perf_counter() - t0
        self.record(op, rc, out.getvalue(), error, err.getvalue())
        return dt

    def run_cold(self, op: Op, env: dict) -> float:
        """Run one op in a fresh interpreter; returns its wall time."""
        if op.out:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(op.out)
        t0 = perf_counter()
        proc = subprocess.run([sys.executable, "-c", CLI_BOOT, *op.argv], cwd=self.workdir,
                              env=env, capture_output=True, text=True, timeout=120)
        dt = perf_counter() - t0
        crashed = "Traceback (most recent call last)" in proc.stderr
        self.record(op, proc.returncode, proc.stdout, proc.stderr if crashed else "", proc.stderr)
        return dt

    def record(self, op: Op, rc: Optional[int], stdout: str, error: str, stderr: str) -> None:
        cert = None
        if op.out and os.path.exists(op.out):
            with open(op.out) as fh:
                cert = _CREATED.sub("", fh.read())
        o = self.outcomes.setdefault(op.id, Outcome())
        o.runs += 1
        if o.runs == 1:
            o.rc, o.stdout, o.cert, o.error, o.stderr = rc, stdout, cert, error, stderr
        elif (rc, stdout, cert) != (o.rc, o.stdout, o.cert) or error:
            o.bad_runs += 1


def check(ops: list[Op], outcomes: dict[str, Outcome], verify_certificate=None) -> tuple[int, int, list[str]]:
    """Compare each op's outcome with its expectation.

    Returns (attempted, failed, messages). Every run of an op counts as one
    attempt; a wrong first run fails every run of that op, a later run that
    differs from the first fails on its own. With ``verify_certificate``
    given, each emitted certificate is also re-verified.
    """
    attempted = failed = 0
    msgs = []
    for op in ops:
        o = outcomes.get(op.id)
        if o is None:
            continue
        attempted += o.runs
        problem = _problem(op, o, verify_certificate)
        if problem:
            failed += o.runs
            msgs.append(f"{op.id}: {problem}")
        elif o.bad_runs:
            failed += o.bad_runs
            msgs.append(f"{op.id}: {o.bad_runs} of {o.runs} runs differ from the first")
    return attempted, failed, msgs


def _problem(op: Op, o: Outcome, verify_certificate) -> str:
    exp = op.expect
    if o.error:
        return f"raised {o.error}"
    if o.rc != exp.rc:
        return f"exit code {o.rc}, expected {exp.rc}: {o.stderr.strip()[:200]}"
    lines = o.stdout.splitlines()
    for line in exp.stdout:
        if line not in lines:
            return f"stdout lacks {line!r}"
    if exp.stdout_prefix and not (lines and lines[0].startswith(exp.stdout_prefix)):
        return f"stdout starts {lines[:1]!r}, expected {exp.stdout_prefix!r}"
    if exp.cert is None:
        return "unexpected certificate" if o.cert is not None else ""
    if o.cert is None:
        return "no certificate written"
    cert = json.loads(o.cert)
    for key in ("kind", "inputs", "params"):
        if cert.get(key) != exp.cert[key]:
            return f"certificate {key} differs from the expectation"
    witness = dict(cert.get("witness", {}))
    for key in EXTRA_WITNESS_KEYS.get(exp.cert["kind"], ()):
        witness.pop(key, None)
    if witness != exp.cert["witness"]:
        return f"certificate witness {witness} != expected {exp.cert['witness']}"
    if verify_certificate is not None:
        try:
            ok = verify_certificate(cert)
        except Exception as e:
            return f"re-verification raised {type(e).__name__}: {e}"
        if ok is not True:
            return "certificate does not re-verify"
    return ""


# --- verify corpus -----------------------------------------------------------------


def canonical_digest(cert: dict) -> str:
    """Digest over the whole body, as the certificate format defines it."""
    body = {k: v for k, v in cert.items() if k not in ("digest", "created")}
    text = json.dumps(body, sort_keys=True, separators=(",", ":"), ensure_ascii=True)
    return "sha256:" + hashlib.sha256(text.encode("utf-8")).hexdigest()


def tamper(cert: dict, edit: str) -> dict:
    """A copy that verify must reject: a digest edit, or a witness edit that
    makes the claim false, with the digest recomputed so only the re-check
    can catch it."""
    cert = json.loads(json.dumps(cert))
    if edit == "digest":
        last = cert["digest"][-1]
        cert["digest"] = cert["digest"][:-1] + ("0" if last != "0" else "1")
        return cert
    w, kind = cert["witness"], cert["kind"]
    if kind == "ap":
        w["a"] += 10**9  # every term leaves the window
    elif kind == "pws":
        w["start"] += 10**9
    elif kind == "pws2d":
        w["a0"] += 10**9  # the sub-box leaves the box
    elif kind == "jset":
        w["a"] = cert["params"]["a_max"] + 1
    elif kind == "jset2d":
        w["a2"] += 1  # breaks a2 = b * |H|
    elif kind == "chain":
        w["translate"] = w["translate"][:-1]  # a required probe goes missing
    elif kind == "vdw":
        w["coloring"] = [0] * cert["inputs"]["n"]  # monochromatic, or not null
    cert["digest"] = canonical_digest(cert)
    return cert


def build_corpus(plan: Plan, runner: Runner) -> None:
    for op in plan.sources:
        runner.run(op)
    for src, dst, edit in plan.tampers:
        if not os.path.exists(src):
            continue  # the verify op on dst then fails on its own
        with open(src) as fh:
            cert = json.load(fh)
        with open(dst, "w") as fh:
            fh.write(json.dumps(tamper(cert, edit), sort_keys=True, indent=2) + "\n")


def warm_up(plan: Plan, runner: Runner) -> None:
    """Run one op of each subcommand once, outside any measurement. The op
    is picked by id, not by the seed-shuffled order, so the cost is steady."""
    firsts = {}
    for op in sorted(plan.ops, key=lambda op: op.id):
        firsts.setdefault(op.argv[0], op)
    for op in firsts.values():
        runner.run(op)
        del runner.outcomes[op.id]
