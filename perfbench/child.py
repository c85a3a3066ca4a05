"""Run one benchmark operation in a fresh interpreter.

Usage: python3 child.py OP_JSON [SPANS_PATH]

``OP_JSON`` is an operation as built by `workloads.py`.  A CLI operation
calls ``dworklab.cli.main`` exactly as the installed ``dworklab`` script
does; a library operation prints its result as text.  With SPANS_PATH the
public functions of every ``dworklab`` module are traced and the spans are
written there at exit; nothing the program prints changes.

At exit the child writes its peak RSS in KiB (``VmHWM``) to the op's
``rss_path``.  The ``ru_maxrss`` that ``wait4`` reports cannot be used:
Linux carries the parent's high-water mark into the child at exec.
"""

from __future__ import annotations

import atexit
import importlib
import json
import sys
import time

# The module each kind of operation imports first; tracing patches the
# dworklab modules it loads, and an untraced run imports the same ones.
ENTRY_MODULE = {"cli": "dworklab.cli", "roundtrip": "dworklab.series", "lattice": "dworklab.groups"}


def _run(op: dict) -> int:
    if op["kind"] == "cli":
        import dworklab.cli

        return dworklab.cli.main(op["argv"])
    if op["kind"] == "roundtrip":
        from dworklab import series

        with open(op["input"], encoding="utf-8") as f:
            s, p = series.load_log_series(f.read())
        back = series.log_transform(series.exp_transform(s))
        sys.stdout.write(series.dump_log_series(back, p))
        return 0
    if op["kind"] == "lattice":
        from dworklab import groups

        t = groups.PartitionType(tuple(op["parts"]), op["p"])
        brute = groups.abelian_subgroup_counts_bruteforce(t)
        formula = groups.abelian_subgroup_counts(t)
        json.dump({"brute": brute.counts, "formula": formula.counts}, sys.stdout)
        sys.stdout.write("\n")
        return 0
    raise SystemExit(f"unknown operation kind {op['kind']!r}")


def _write_peak_rss(path: str) -> None:
    with open("/proc/self/status", encoding="ascii") as f:
        peak = next(line.split()[1] for line in f if line.startswith("VmHWM:"))
    with open(path, "w", encoding="ascii") as f:
        f.write(peak)


def main() -> int:
    op = json.loads(sys.argv[1])
    atexit.register(_write_peak_rss, op["rss_path"])
    if len(sys.argv) < 3:
        return _run(op)
    import tracer

    start = time.perf_counter()
    importlib.import_module(ENTRY_MODULE[op["kind"]])
    tracer.record_import(start, time.perf_counter())
    tracer.install()
    try:
        return _run(op)
    finally:
        sys.stdout.flush()
        tracer.write(sys.argv[2], op.get("id"))


if __name__ == "__main__":
    sys.exit(main())
