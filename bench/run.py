"""citemetric benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload analyze_wide --seed 1 --seconds 30 --trace 0

Run from the repository root. The inputs are generated from the seed under
``.bench_work/`` and removed afterwards. With ``--trace 0`` every command runs
as its own ``python -m citemetric.cli`` child, one at a time, and the
end-to-end metrics are printed. With ``--trace 1`` the same command sequence
runs in this process through ``citemetric.cli.main(argv)``, alternating an
untraced pass with a traced pass, and the per-layer metrics are printed.
Both modes check every output. The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``; the lines above it
give per-command times, the error rate and a sha256 of every output.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

from spans import COUNTED, COUNTERS, ROOT, TIMED, Tracer
from workloads import WORKLOADS

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
GOLDEN_CORPUS = REPO / "fixtures" / "ciencias_table7.json"
GOLDEN_TABLE = REPO / "tests" / "data" / "table7_top2.md"
SETUP_SPAWNS = 7
PROBE_PERIOD_S = 0.015
#: probe unit time the end-to-end timings are scaled to (about its median on the
#: 2-vCPU host the baseline was measured on, so scaled and wall times are close)
PROBE_REF_S = 0.0008

#: end-to-end metrics, measured with tracing off: name -> unit
END_TO_END = {
    "setup_s": "s",
    "rows_per_s": "rows/s",
    "command_p50_s": "s",
    "peak_rss_mb": "MiB",
}


def per_layer_units() -> dict:
    """Per-layer metrics of the traced run: name -> unit."""
    units = {f"{name}_s": "s" for name in TIMED}
    units.update({f"{name}_calls": "count" for name in COUNTED})
    units.update({name: "count" for name in COUNTERS})
    units["ingest.corpus_json_bytes"] = "bytes"
    units["ingest.dedup_yield"] = "fraction"
    units["trace_overhead_s"] = "s"
    return units


_PROBE_A, _PROBE_B = "analisis de la produccion cientifica", "evaluacion del cultivo en la cuenca"


def _probe_unit() -> int:
    """Interpreter work like the program's, then fresh memory like a process start-up's.

    The edit distance of two fixed titles builds lists as dedup does; touching
    every page of a new 2 MiB buffer faults pages in as loading modules does.
    """
    previous = list(range(len(_PROBE_B) + 1))
    for i, ca in enumerate(_PROBE_A, start=1):
        current = [i]
        for j, cb in enumerate(_PROBE_B, start=1):
            current.append(min(previous[j] + 1, current[j - 1] + 1, previous[j - 1] + (ca != cb)))
        previous = current
    pages = bytearray(1 << 21)
    pages[::4096] = bytes(len(pages) // 4096)
    return previous[-1]


class SpeedProbe(threading.Thread):
    """Times a fixed pure-Python unit every PROBE_PERIOD_S while a child runs.

    The host this runs on is shared, and its speed swings by a third within
    seconds and drifts over minutes. The probe shares the child's CPU, so the
    median unit time over the child's life measures how fast that CPU ran for
    interpreter work; dividing it out turns a wall time into seconds at the
    reference speed PROBE_REF_S. The probe takes about 5% of the CPU, the
    same on every run. A tight integer loop tracked the program worse than
    this unit did, and the edit distance alone tracked start-up worse.
    """

    def __init__(self):
        super().__init__(daemon=True)
        self.samples: list = []
        self.done = threading.Event()

    def run(self) -> None:
        while True:
            began = perf_counter()
            _probe_unit()
            self.samples.append(perf_counter() - began)
            if self.done.wait(PROBE_PERIOD_S):
                return

    def scale(self) -> float:
        """Stop probing; return the factor that converts wall time to reference time."""
        self.done.set()
        self.join()
        return PROBE_REF_S / statistics.median(self.samples)


_LAUNCHER = """
import json, os, subprocess, sys
for line in sys.stdin:
    proc = subprocess.Popen(json.loads(line), stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    print(json.dumps([proc.returncode, usage.ru_maxrss]), flush=True)
"""


class Launcher:
    """A small helper process that starts each child and reports its exit code and ru_maxrss.

    A child's ru_maxrss starts from the resident size of the process it was
    forked from; forked straight from this one, after generating inputs and
    importing citemetric, small children would report this process's peak.
    """

    def __init__(self, env: dict, log):
        self.proc = subprocess.Popen(
            [sys.executable, "-c", _LAUNCHER], env=env, stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, stderr=log, text=True, start_new_session=True,
        )

    def run(self, argv: list) -> tuple:
        self.proc.stdin.write(json.dumps(argv) + "\n")
        self.proc.stdin.flush()
        code, maxrss_kb = json.loads(self.proc.stdout.readline())
        return code, maxrss_kb

    def close(self) -> None:
        """Stop the helper and any child it is running, and wait for the helper."""
        if self.proc.poll() is None:
            os.killpg(self.proc.pid, signal.SIGKILL)
        self.proc.wait()
        self.proc.stdin.close()
        self.proc.stdout.close()


class Run:
    """One run's bookkeeping: invocations, failures and output hashes."""

    def __init__(self, plan, commands, work: Path, launcher: Launcher):
        self.plan = plan
        self.commands = commands
        self.work = work
        self.launcher = launcher
        self.attempted = 0
        self.failed = 0
        self.messages: list = []
        self.reference: dict = {}  # label -> sha256 of the first output seen
        self.scales: list = []  # SpeedProbe factor of every child

    def record(self, label: str, code: int, argv: list) -> bool:
        """Count one invocation and check its output; True when it passed."""
        from checks import check_output  # imports citemetric, so only once src is on the path

        self.attempted += 1
        failures = [] if code == 0 else [f"exit code {code}"]
        if code == 0:
            data = Path(argv[argv.index("--out") + 1]).read_bytes()
            digest = hashlib.sha256(data).hexdigest()
            if label not in self.reference:
                self.reference[label] = digest
                failures = check_output(label, data, self.plan)
            elif digest != self.reference[label]:
                failures = ["output differs from the first pass"]
        if failures:
            self.failed += 1
            self.messages += [f"{label}: {f}" for f in failures]
        return not failures

    def child(self, args: list) -> tuple:
        """Run one child to completion.

        Returns (exit code, wall seconds scaled to the reference speed, max RSS in MiB).
        """
        probe = SpeedProbe()
        probe.start()
        start = perf_counter()
        try:
            code, maxrss_kb = self.launcher.run([sys.executable, *args])
        finally:
            wall = perf_counter() - start
            scale = probe.scale()
        self.scales.append(scale)
        return code, wall * scale, maxrss_kb / 1024

    def golden(self) -> None:
        out = self.work / "golden.md"
        argv = ["classify", "--corpus", str(GOLDEN_CORPUS), "--quartile-mode", "fixed",
                "--top", "2", "--format", "md", "--out", str(out)]
        code, _, _ = self.child(["-m", "citemetric.cli", *argv])
        self.attempted += 1
        if code != 0 or out.read_bytes() != GOLDEN_TABLE.read_bytes():
            self.failed += 1
            self.messages.append("golden: classify of the bundled corpus differs from table7_top2.md")


def _keep_going(start: float, seconds: float, passes: int) -> bool:
    """Start another pass only if one more pass as long as the average still fits."""
    elapsed = perf_counter() - start
    return passes == 0 or elapsed * (passes + 1) / passes <= seconds


def run_untraced(run: Run, seconds: float) -> dict:
    run.child(["-c", "import citemetric.cli"])  # compiles bytecode; not timed
    setup = [run.child(["-c", "import citemetric.cli"])[1] for _ in range(SETUP_SPAWNS)]
    run.golden()

    walls: dict = {label: [] for label, _ in run.commands}
    pass_times, peak = [], 0.0
    start = perf_counter()
    while _keep_going(start, seconds, len(pass_times)):
        total = 0.0
        for label, argv in run.commands:
            code, wall, rss = run.child(["-m", "citemetric.cli", *argv])
            run.record(label, code, argv)
            walls[label].append(wall)
            total += wall
            peak = max(peak, rss)
        pass_times.append(total)

    medians = {label: statistics.median(w) for label, w in walls.items()}
    by_command = {}  # compare_s sums the two compare calls
    for label, value in medians.items():
        name = label.split("_")[0] + "_s"
        by_command[name] = by_command.get(name, 0.0) + value
    print(f"passes {len(pass_times)}; input rows {run.plan.rows}; "
          f"median wall-to-reference factor {statistics.median(run.scales)!r}")
    for name, value in by_command.items():
        print(f"metric {name} {value!r} s")
    return {
        "setup_s": statistics.median(setup),
        "rows_per_s": run.plan.rows / statistics.median(pass_times),
        "command_p50_s": statistics.median(medians.values()),
        "peak_rss_mb": peak,
    }


def _call_main(main, argv: list) -> int:
    try:
        return main(argv)
    except SystemExit as stop:  # argparse usage errors
        return stop.code if isinstance(stop.code, int) else 2


def run_traced(run: Run, workload: str, seconds: float) -> dict:
    import citemetric.cli
    from checks import check_reports

    run.golden()
    tracer = Tracer(workload)
    main = citemetric.cli.main
    traced_main = tracer.wrap(ROOT, main)
    overheads, layers = [], []
    start = perf_counter()
    while _keep_going(start, seconds, len(overheads)):
        walls = {}
        order = ("plain", "traced") if len(overheads) % 2 == 0 else ("traced", "plain")
        for mode in order:
            walls[mode] = 0.0
            if mode == "traced":
                tracer.begin_pass()
                tracer.install()
            try:
                for label, argv in run.commands:
                    first, reports = len(tracer.spans), len(tracer.reports)
                    began = perf_counter()
                    code = _call_main(traced_main if mode == "traced" else main, argv)
                    wall = perf_counter() - began
                    walls[mode] += wall
                    if run.record(label, code, argv) and mode == "traced":
                        inside = tracer.self_total(first, len(tracer.spans))
                        failures = check_reports(tracer.reports[reports:])
                        if not inside <= wall <= inside * 1.01 + 0.002:
                            failures.append(f"layer self times sum to {inside}, traced wall {wall}")
                        if failures:
                            run.failed += 1
                            run.messages += [f"{label}: {f}" for f in failures]
            finally:
                tracer.uninstall()
        overheads.append(walls["traced"] - walls["plain"])
        layers.append(tracer.self_times(tracer.pass_index))

    metrics = {}
    for name in TIMED:
        metrics[f"{name}_s"] = statistics.median(p.get(name, (0.0, 0))[0] for p in layers)
    for name in COUNTED:
        metrics[f"{name}_calls"] = statistics.median(p.get(name, (0.0, 0))[1] for p in layers)
    for name in COUNTERS:
        metrics[name] = statistics.median(c[name] for c in tracer.counters)
    decided = metrics["ingest.dropped_duplicate"] + metrics["ingest.flagged_review"]
    pairs = metrics["ingest.dedup_pairs"]
    metrics["ingest.dedup_yield"] = decided / pairs if pairs else 0.0
    metrics["trace_overhead_s"] = statistics.median(overheads)
    print(f"traced passes {len(overheads)}; spans {len(tracer.spans)}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in (SRC / "citemetric" / "cli.py", GOLDEN_CORPUS, GOLDEN_TABLE)
               if not p.is_file()]
    if missing:
        print(f"bench: not a citemetric checkout, missing {missing[0]}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # on SIGTERM, unwind: the running child is killed and the inputs removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    # children inherit this: each shares one CPU with its SpeedProbe
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    work = REPO / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    # children reuse compiled bytecode, as an installed package would
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    log = open(work / "stderr.log", "wb")
    launcher = Launcher(env, log)  # before this process grows
    try:
        plan, commands = WORKLOADS[args.workload].prepare(args.seed, work)
        run = Run(plan, commands, work, launcher)
        if args.trace:
            metrics = run_traced(run, args.workload, args.seconds)
            units = per_layer_units()
        else:
            metrics = run_untraced(run, args.seconds)
            units = END_TO_END
        for label, digest in sorted(run.reference.items()):
            print(f"sha256 {label} {digest}")
    finally:
        launcher.close()
        log.close()
        # the children's diagnostics; empty when every command succeeded
        sys.stderr.write((work / "stderr.log").read_text(errors="replace"))
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run is using it
            pass

    for message in run.messages:
        print(f"FAILED {message}")
    print(f"metric error_rate {run.failed / run.attempted!r} fraction")
    print(
        json.dumps(
            {
                "correct": run.failed == 0,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
