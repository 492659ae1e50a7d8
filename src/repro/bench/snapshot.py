"""Per-PR benchmark snapshot (``BENCH_<n>.json``) + regression gate.

``collect`` runs every gated suite of the registry at CI scale; the
snapshot is ``{suite name: the doc its run returned}``.  The committed
snapshot (``BENCH_23.json`` at the repo root) is the previous PR's
baseline; CI regenerates the snapshot and ``compare``s it against the
committed file.  What is compared is what each suite *declares*
(:class:`~repro.bench.registry.Gate`), failing on:

* a declared lower-is-better *simulated* metric (seconds / bytes) more
  than 10% worse — simulated numbers are deterministic, so a fresh run
  matches the committed baseline exactly unless the code's behavior
  changed;
* a declared digest mismatch (results changed: the snapshot must be
  regenerated deliberately, with the diff reviewed) — this includes the
  sha256 of every Parcel file the kernel bench stores, so the on-disk
  format cannot drift silently;
* a declared invariant — a boolean the suite publishes, present in
  either snapshot — that is not true in the fresh one: join results
  identical across configs; speculation beating no-speculation on p99
  with digests and seeded replays identical; the cache sweep keeping
  digests, moving strictly fewer bytes as reuse rises and beating the
  zero-reuse p99; rewrite-off/on and semi-join digest parity with
  dynamic filters moving strictly fewer bytes;
* a declared floor: the fused wall-clock speedup below 1.5x — the only
  machine-dependent gate, expressed as a same-machine unfused/fused
  ratio so CI host speed cancels out (the baseline's speedup is recorded
  but not ratcheted: best-of-N jitter between reruns exceeds 10%).

Regenerate with ``python -m repro.bench snapshot --out BENCH_23.json``.
The committed file also carries, under ``kernels.formats.parent``, the
Parcel encode/decode wall seconds of the commit before the whole-chunk
kernels landed, measured on the same machine as its own.
"""

from __future__ import annotations

import json
from typing import List, Optional

from repro.bench.registry import SUITES, Doc, select
from repro.errors import ConfigError

__all__ = ["SNAPSHOT_VERSION", "collect", "compare", "render", "run"]

SNAPSHOT_VERSION = 23

#: Relative worsening tolerated on lower-is-better simulated metrics.
TOLERANCE = 0.10


def collect(scale: str) -> Doc:
    """Run every gated suite at ``scale``; returns the snapshot document."""
    doc: Doc = {"snapshot": SNAPSHOT_VERSION}
    for suite in SUITES.values():
        if suite.gate is not None:
            doc[suite.name] = suite.run(scale)
    return doc


def compare(baseline: Doc, current: Doc) -> List[str]:
    """Regression check; returns a list of violations (empty = pass)."""
    violations: List[str] = []
    for name, suite in SUITES.items():
        gate = suite.gate
        if gate is None:
            continue
        base, cur = baseline.get(name, {}), current.get(name, {})

        fresh = select(cur, gate.lower)
        for path, base_value in select(base, gate.lower).items():
            cur_value = fresh.get(path)
            if cur_value is None:
                violations.append(f"metric {name}.{path} missing from current snapshot")
            elif cur_value > base_value * (1.0 + TOLERANCE):
                violations.append(
                    f"regression: {name}.{path} = {cur_value:.6g} vs baseline "
                    f"{base_value:.6g} (>{TOLERANCE:.0%} worse)"
                )

        fresh = select(cur, gate.digests)
        for path, base_value in select(base, gate.digests).items():
            cur_value = fresh.get(path)
            if cur_value != base_value:
                violations.append(
                    f"result digest changed: {name}.{path} ({base_value[:16]} -> "
                    f"{str(cur_value)[:16]}); regenerate the snapshot if intended"
                )

        # An invariant binds once either side publishes it, so dropping
        # the key from the fresh doc fails like turning it false does.
        fresh = select(cur, gate.invariants)
        for path in sorted({*select(base, gate.invariants), *fresh}):
            if fresh.get(path) is not True:
                violations.append(
                    f"invariant broken: {name}.{path} is {fresh.get(path)!r}, "
                    f"must be true"
                )

        for path, floor in gate.floors:
            cur_value = select(cur, [path]).get(path, 0.0)
            if cur_value < floor:
                violations.append(
                    f"{name}.{path} = {cur_value:.2f} is below the {floor:.2f} "
                    f"floor (baseline {select(base, [path]).get(path, floor):.2f})"
                )
    return violations


def run(scale: str, out: Optional[str] = None, check: Optional[str] = None) -> Doc:
    if not out and not check:
        raise ConfigError("nothing to do: pass --out and/or --check")
    snapshot = collect(scale)
    if out:
        with open(out, "w") as fh:
            json.dump(snapshot, fh, indent=2, sort_keys=True)
            fh.write("\n")
    violations: List[str] = []
    if check:
        with open(check) as fh:
            violations = compare(json.load(fh), snapshot)
    return {
        "snapshot": snapshot,
        "out": out,
        "check": check,
        "violations": violations,
        "clean": not violations,
    }


def render(doc: Doc) -> str:
    lines = [f"snapshot written to {doc['out']}"] if doc["out"] else []
    lines += [f"FAIL: {violation}" for violation in doc["violations"]]
    if doc["check"] and doc["clean"]:
        lines.append(
            f"snapshot check vs {doc['check']}: clean (fused wall speedup "
            f"{doc['snapshot']['kernels']['wall_speedup']:.2f}x)"
        )
    return "\n".join(lines)
