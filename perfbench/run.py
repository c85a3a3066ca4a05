#!/usr/bin/env python3
"""dworklab benchmark: seeded closed-loop runs of the CLI and library.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client runs one operation at a time, each in a fresh interpreter
(``child.py``), so no in-process cache (``groups._factor_hom_ints``,
``applications._HOM_Z_PLUS_ZP_CACHE``) carries over between operations,
as for real CLI users.  The run executes whole rounds of the workload
(see ``workloads.py``), stopping at the round boundary nearest to
``--seconds`` of operation wall time.  It checks every output with
``oracle.py`` and prints one JSON object as its last line.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs every
operation untraced and then traced, requires identical report bytes and
exit status, and reports the per-layer split from the traced runs, per
round, with the tracing overhead.  See ``NOTES.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import oracle
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
CHILD = HERE / "child.py"

SETUP_REPEATS = 5
RUN_DEADLINE_S = 170.0  # hard stop for the whole run, below the 180 s limit

TRACED_FUNCTIONS = (
    "kernels.vp_int",
    "exactcore.vp",
    "bounds.q_sequence",
    "bounds.verify_bounds",
    "bounds.verify_q_recurrence",
    "bounds.bound_value",
    "cli.main",
    "kernels.hall_exp",
    "kernels.hall_log",
    "series.exp_transform",
    "series.log_transform",
    "series.check_hypotheses",
    "kernels.hall_log_mod_residues",
    "kernels.hall_exp_mod",
    "groups.hom_count_ints_mod",
    "applications.periodicity_detect",
    "kernels.subgroup_lattice_sizes",
    "groups.abelian_subgroup_counts_bruteforce",
    "groups.abelian_subgroup_counts",
    "cli.cache_get_or_compute",
    "series.load",
    "series.dump_exp_series",
    "groups.hom_count_ints",
    "groups.difference_valuation_profile",
)
EXIT2_FAMILIES = tuple(cls.__name__ for cls in tracer.EXIT2_FAMILIES)


@dataclass
class Outcome:
    exit_code: int
    stdout: bytes
    stderr: bytes
    wall: float
    maxrss_kb: int


class Runner:
    """Starts children with the program's sources on the path and a run deadline."""

    def __init__(self, workdir: Path, deadline: float):
        self.workdir = workdir
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        )

    def run(self, argv: list[str], rss_path: Path | None = None) -> Outcome:
        """Run argv to completion; the peak RSS is read from ``rss_path`` if given."""
        out_path, err_path = self.workdir / "stdout", self.workdir / "stderr"
        if rss_path:
            rss_path.unlink(missing_ok=True)
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=ROOT)
            timer = threading.Timer(max(self.deadline - time.monotonic(), 0.1), proc.kill)
            timer.start()
            try:
                proc.wait()
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        maxrss_kb = int(rss_path.read_text(encoding="ascii")) if rss_path and rss_path.is_file() else 0
        return Outcome(proc.returncode, out_path.read_bytes(), err_path.read_bytes(), wall, maxrss_kb)

    def run_op(self, op: dict, spans: Path | None = None) -> Outcome:
        rss_path = self.workdir / "rss"
        child_op = {k: op[k] for k in ("id", "kind", "argv", "input", "parts", "p") if k in op}
        child_op["rss_path"] = str(rss_path)
        argv = [sys.executable, str(CHILD), json.dumps(child_op)]
        return self.run(argv + ([str(spans)] if spans else []), rss_path)


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

PROBE = """
import json, sys
import dworklab.cli
from dworklab import kernels
print(json.dumps({
    "kernels.BACKEND": kernels.BACKEND,
    "python": sys.version.split()[0],
    "int_max_str_digits": sys.get_int_max_str_digits(),
}))
"""


def build_once() -> None:
    """Build any compiled kernels in place, once per checkout.

    A failed build leaves the pure backend, which every result records.
    """
    marker = STATE / "build.done"
    if marker.exists() or not (ROOT / "setup.py").is_file():
        return
    STATE.mkdir(exist_ok=True)
    subprocess.run(
        [sys.executable, "setup.py", "-q", "build_ext", "--inplace"],
        cwd=ROOT,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        timeout=600,
        check=False,
    )
    marker.write_text("done\n", encoding="utf-8")


def set_up(workload: str, seed: int, n_rounds: int, workdir: Path, runner: Runner):
    """Generate the inputs, write series files and cache directories, and
    probe ``import dworklab.cli`` once.  Returns (rounds, environment)."""
    workdir.mkdir(parents=True)
    rounds = workloads.build_rounds(workload, seed, n_rounds, workdir)
    probe = runner.run([sys.executable, "-c", PROBE])
    if probe.exit_code != 0:
        sys.stderr.write(probe.stderr.decode(errors="replace"))
        raise SystemExit("benchmark: cannot import dworklab.cli from src/")
    return rounds, json.loads(probe.stdout)


# ---------------------------------------------------------------------------
# checking one operation
# ---------------------------------------------------------------------------


class Checker:
    """Verifies outputs; remembers verified h-valuations and uncached reports."""

    def __init__(self):
        self._valuations: dict[str, list] = {}
        self._uncached: dict[str, tuple[bytes, int]] = {}

    def __call__(self, op: dict, out: Outcome) -> tuple[int, str | None]:
        """(rows, reason): rows verified, and why the output is wrong or missing."""
        kind = op["check"]
        if kind == "lattice":
            if out.exit_code != 0:
                return 0, f"exit status {out.exit_code}"
            return oracle.check_lattice(out.stdout, op["p"], op["parts"])
        if kind == "roundtrip":
            if out.exit_code != 0:
                return 0, f"exit status {out.exit_code}"
            same = out.stdout == Path(op["input"]).read_bytes()
            return (workloads.DENSE_N, None) if same else (0, "round trip changed the series")
        doc, reason = oracle.parse_report(out.stdout, out.exit_code, op["argv"][0])
        if reason:
            return 0, reason
        rows = doc["rows"]
        if kind == "periodicity":
            reason = oracle.check_periodicity(
                doc, op["spec"], op["p"], op["n_max"], workloads.PERIODICITY_CONFIRM
            )
            return len(rows), reason
        if kind == "analyze-series":
            g = oracle.scaled_exp(op["s"], len(op["s"]) - 1)
            return len(rows), oracle.check_rows(rows, g, op["p"])
        # verify-group
        spec = op["argv"][op["argv"].index("--spec") + 1]
        if "cache" in op:
            expected = self._uncached.get(spec)
            if expected != (out.stdout, out.exit_code):
                return 0, "cached report differs from the uncached report"
            return len(rows), None
        valuations = [row["valuation"] for row in rows]
        if self._valuations.get(spec) == valuations:
            reason = oracle.check_rows(rows, None, op["p"])
        else:
            g = oracle.scaled_exp(oracle.subgroup_index_counts(spec), workloads.GROUP_N_MAX)
            reason = oracle.check_rows(rows, g, op["p"])
        if reason is None:
            self._valuations[spec] = valuations
            self._uncached[spec] = (out.stdout, out.exit_code)
        return len(rows), reason


# ---------------------------------------------------------------------------
# spans
# ---------------------------------------------------------------------------


class LayerTotals:
    """Per-layer counters summed over the traced operations of a run."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.raised = defaultdict(int)
        self.by_label = defaultdict(lambda: defaultdict(float))
        self.h_max_bits = 0
        self.precision = 0
        self.cache_found = 0
        self.cache_hits = 0
        self.exit2 = defaultdict(int)

    def add(self, path: Path, wall: float, exit_code: int, label: str) -> str | None:
        """Fold one operation's spans in; returns a reason if they do not nest."""
        doc = json.loads(path.read_text(encoding="utf-8"))
        spans = doc["spans"]
        imp_start, imp_end = doc["import"]
        child_time = [0.0] * len(spans)
        top = imp_end - imp_start
        for i, (name, start, end, parent, raised, info) in enumerate(spans):
            if end < start:
                return f"span {name} ends before it starts"
            if parent < 0:
                top += end - start
            else:
                p_start, p_end = spans[parent][1], spans[parent][2]
                if start < p_start or end > p_end:
                    return f"span {name} is outside its parent"
                child_time[parent] += end - start
        if top > wall:
            return "spans cover more than the operation's wall time"
        self._fold("process", wall - top, label)
        self._fold("import", imp_end - imp_start, label)
        for i, (name, start, end, parent, raised, info) in enumerate(spans):
            self.calls[name] += 1
            self._fold(name, end - start - child_time[i], label)
            if raised:
                self.raised[name] += 1
            if info:
                self.h_max_bits = max(self.h_max_bits, info.get("h_max_bits", 0))
                self.precision = max(self.precision, info.get("precision", 0))
                if info.get("found"):
                    self.cache_found += 1
                    self.cache_hits += not info["recomputed"]
        if exit_code == 2:
            self.exit2["total"] += 1
            main = [i for i, s in enumerate(spans) if s[0] == "cli.main"]
            families = [s[4] for s in spans if main and s[3] == main[0] and s[4]]
            if families:
                self.exit2[families[-1]] += 1
        return None

    def _fold(self, name: str, seconds: float, label: str) -> None:
        self.self_s[name] += seconds
        self.by_label[label][name] += seconds

    def metrics(self, rounds: int, traced_wall: float, untraced_wall: float) -> dict:
        out = {}
        for name in TRACED_FUNCTIONS:
            out[f"{name}.calls"] = (self.calls[name] / rounds, "count")
            out[f"{name}.self_s"] = (self.self_s[name] / rounds, "s")
            out[f"{name}.raised"] = (self.raised[name] / rounds, "count")
        for layer in tracer.MODULES:
            total = sum(v for k, v in self.self_s.items() if k.split(".")[0] == layer)
            out[f"{layer}.self_s"] = (total / rounds, "s")
        out["process.self_s"] = (self.self_s["process"] / rounds, "s")
        out["import.self_s"] = (self.self_s["import"] / rounds, "s")
        out["kernels.h_max_bits"] = (self.h_max_bits, "bits")
        out["kernels.residue_precision"] = (self.precision, "digits")
        out["cli.cache.found"] = (self.cache_found / rounds, "count")
        out["cli.cache.hits"] = (self.cache_hits / rounds, "count")
        ratio = self.cache_hits / self.cache_found if self.cache_found else 0.0
        out["cli.cache.hit_ratio"] = (ratio, "ratio")
        out["cli.exit2"] = (self.exit2["total"] / rounds, "count")
        for family in EXIT2_FAMILIES:
            out[f"cli.exit2.{family}"] = (self.exit2[family] / rounds, "count")
        out["trace.wall_s"] = (traced_wall / rounds, "s")
        out["trace.overhead_ratio"] = (traced_wall / untraced_wall, "ratio")
        return out

    def describe(self) -> list[str]:
        lines = []
        for label in sorted(self.by_label):
            parts = self.by_label[label]
            total = sum(parts.values())
            top = sorted(parts.items(), key=lambda kv: -kv[1])[:5]
            shares = ", ".join(f"{name} {100 * sec / total:.1f}%" for name, sec in top)
            lines.append(f"  {label}: {total:.2f} s traced; self-time shares: {shares}")
        return lines


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------


def _label(op: dict) -> str:
    if op["kind"] == "lattice":
        return f"lattice p={op['p']}"
    if op["kind"] == "roundtrip":
        return "roundtrip"
    label = f"{op['argv'][0]} p={op['p']}"
    if "n_max" in op:
        label += f" n_max={op['n_max']}"
    return label + (f" cache-{op['cache']}" if "cache" in op else "")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit so a running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    run_start = time.monotonic()
    if not (SRC / "dworklab" / "cli.py").is_file():
        print(f"benchmark: no dworklab sources under {SRC}", file=sys.stderr)
        return 2
    build_once()

    base = STATE / "work" / str(os.getpid())
    shutil.rmtree(base, ignore_errors=True)
    try:
        return _measure(args, base, run_start)
    finally:
        shutil.rmtree(base, ignore_errors=True)


def _measure(args, base: Path, run_start: float) -> int:
    runner = Runner(base, run_start + RUN_DEADLINE_S)
    n_rounds = max(4, int(args.seconds))

    setup_times = []
    for attempt in range(SETUP_REPEATS):
        workdir = base / f"setup-{attempt}"
        start = time.perf_counter()
        built = set_up(args.workload, args.seed, n_rounds, workdir, runner)
        setup_times.append(time.perf_counter() - start)
        if attempt == 0:
            rounds, env = built
        else:
            shutil.rmtree(workdir)
    env["nproc"] = len(os.sched_getaffinity(0))
    for key, value in env.items():
        print(f"env {key} = {value}")

    check = Checker()
    totals = LayerTotals()
    walls, rows_total, attempted, failed = [], 0, 0, 0
    untraced_wall = traced_wall = 0.0
    peak_rss_kb = 0
    correct = True
    rounds_done = 0
    for round_ops in rounds:
        # End at the round boundary nearest to --seconds.
        spent = untraced_wall + traced_wall
        if rounds_done and spent + spent / rounds_done / 2 >= args.seconds:
            break
        if time.monotonic() - run_start > RUN_DEADLINE_S:
            print("run deadline reached before the time budget was spent")
            break
        for op in round_ops:
            op_id = f"{rounds_done}.{attempted}"
            op["id"] = op_id
            out = runner.run_op(op)
            attempted += 1
            untraced_wall += out.wall
            peak_rss_kb = max(peak_rss_kb, out.maxrss_kb)
            rows, reason = check(op, out)
            if reason and out.exit_code in (0, 1):
                correct = False  # a report was produced, and it is wrong
            if reason:
                failed += 1
                walls.append(float("inf"))
                err = out.stderr.decode(errors="replace").strip().splitlines()
                print(f"failed {op_id} {_label(op)}: {reason}" + (f" ({err[-1]})" if err else ""))
            else:
                walls.append(out.wall)
                rows_total += rows
            print(f"op {op_id} {_label(op)}: {out.wall:.3f} s, exit {out.exit_code}, {rows} rows")
            if args.trace:
                spans = base / f"spans-{op_id}.json"
                traced = runner.run_op(op, spans)
                traced_wall += traced.wall
                if (traced.stdout, traced.exit_code) != (out.stdout, out.exit_code):
                    correct = False
                    print(f"tracing changed the report of {op_id} {_label(op)}")
                if not spans.is_file():
                    correct = False
                    print(f"no spans written for {op_id}")
                    continue
                reason = totals.add(spans, traced.wall, traced.exit_code, _label(op))
                if reason:
                    correct = False
                    print(f"bad spans for {op_id}: {reason}")
                spans.unlink()
        rounds_done += 1

    if attempted == 0:
        print("benchmark: no operation ran", file=sys.stderr)
        return 2
    print(f"rounds = {rounds_done}; operations = {attempted}; failed = {failed}")
    print(f"fail_ratio = {failed / attempted:.4f} (failed / attempted operations)")
    # op_p50_s is reported but not gated in BENCHMARK.json; see NOTES.md.
    op_p50_s = statistics.median(walls)
    print(f"op_p50_s = {op_p50_s:.6g} s over {len(walls)} operations (failed ones count as +inf)")
    metrics = {}
    if args.trace:
        metrics = totals.metrics(rounds_done, traced_wall, untraced_wall)
        print("per-operation-class self-time split (traced):")
        print("\n".join(totals.describe()))
    else:
        metrics["rows_per_s"] = (rows_total / untraced_wall, "rows/s")
        metrics["setup_s"] = (statistics.median(setup_times), "s")
        metrics["peak_rss_mb"] = (peak_rss_kb / 1024, "MB")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    results_dir = STATE / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    record = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                  seconds=args.seconds, rounds=rounds_done, op_p50_s=op_p50_s,
                  environment=env)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results_dir / name).write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
