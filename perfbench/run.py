"""Outside-in benchmark of the radgraph CLI.

    python3 perfbench/run.py --workload search --seed 1 --seconds 10 --trace 0

Run from the repository root.  With ``--trace 0`` the workload's invocations
run as ``python -m radgraph.cli`` child processes, one after another, in
passes until ``--seconds`` is used up (at least one pass), and the run
reports the end-to-end metrics.  With ``--trace 1`` it makes one such pass,
then runs the same argv lists in this process through a wrapped
``radgraph.cli.main`` and reports the per-layer metrics from the spans.

Every invocation's output is checked against values computed without
radgraph.  Stdout holds a readable report and, as its last line, the JSON
result.  The full report and the spans go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import shutil
import signal
import statistics
import sys
import threading
import time
import traceback
from pathlib import Path

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

#: Fresh ``bound`` launches per run whose median is setup_s.
SETUP_LAUNCHES = 9
#: Children still running this long after the run started are killed, so the
#: run ends within three minutes even if the program hangs.
RUN_LIMIT_S = 165
#: Flags whose value names a file the CLI reads.
INPUT_FLAGS = ("--graph", "--base", "--input")

END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("graphs_per_s", "1/s"),
    ("ops_ok_ratio", "ratio"),
]

#: Layer shares predicted when the workloads were chosen, printed next to the measured ones.
PREDICTED_SHARES = {
    "search": "search ~1.0; graph, io, geometry ~0",
    "incidence": "fields+geometry ~0.35, graph ~0.55, io ~0.10",
    "rings": "graph (metric kernel, BFS) and witness dominate",
    "stream": "graph and io dominate; cli grows with the input size",
}


def _out_of_time(signum, frame):
    raise TimeoutError(f"run exceeded {RUN_LIMIT_S} s")


def _kill_group(pid):
    with contextlib.suppress(ProcessLookupError):
        os.killpg(pid, signal.SIGKILL)


class Launcher:
    """Runs ``python -m radgraph.cli`` children one at a time and takes
    their wall time, user+system CPU and max-RSS from ``os.wait4``.  The
    CPU and RSS include pool workers, which the CLI joins before exiting."""

    def __init__(self, work: Path, deadline: float):
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.out, self.err = work / "stdout.txt", work / "stderr.txt"
        self.deadline = deadline

    def run(self, argv):
        flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        actions = [
            (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_OPEN, 1, str(self.out), flags, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, str(self.err), flags, 0o644),
        ]
        cmd = [sys.executable, "-m", "radgraph.cli", *argv]
        t0 = time.perf_counter()
        pid = os.posix_spawn(sys.executable, cmd, self.env, file_actions=actions, setsid=True)
        killer = threading.Timer(max(1.0, self.deadline - time.monotonic()), _kill_group, (pid,))
        killer.start()
        try:
            _, status, usage = os.wait4(pid, 0)
        finally:
            killer.cancel()
            killer.join()
        wall = time.perf_counter() - t0
        return {
            "wall": wall,
            "cpu": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024,
            "rc": os.waitstatus_to_exitcode(status),
            "stdout": self.out.read_text(errors="replace"),
            "stderr": self.err.read_text(errors="replace"),
        }


def judge(check, rc, stdout, stderr) -> str:
    """Why an invocation failed, or "" when it passed."""
    if "Traceback (most recent call last)" in stderr:
        return "traceback: " + stderr.strip().splitlines()[-1]
    if rc != 0:
        return f"exit code {rc}: {stderr.strip()[-200:]}"
    try:
        check(stdout)
    except workloads.CheckFailed as exc:
        return str(exc)
    except (ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
        return f"unreadable output: {exc!r}"
    return ""


def run_op(launcher, op):
    sample = launcher.run(op.argv)
    error = judge(op.check, sample["rc"], sample["stdout"], sample["stderr"])
    del sample["stdout"], sample["stderr"]
    return dict(sample, op=op.label, error=error)


def run_in_process(main, argv):
    """(rc, stdout, stderr, wall) of ``main(argv)`` with output captured."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # the CLI must not raise; report it like a child would
            traceback.print_exc()
            rc = 1
    return rc, out.getvalue(), err.getvalue(), time.perf_counter() - t0


def input_bytes(argv) -> int:
    """Size of the files the invocation reads (0 for one an earlier op failed to write)."""
    paths = [Path(argv[i + 1]) for i, a in enumerate(argv[:-1]) if a in INPUT_FLAGS]
    return sum(p.stat().st_size for p in paths if p.exists())


def provenance(seed):
    rev = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        import subprocess

        with contextlib.suppress(OSError, subprocess.SubprocessError):
            rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=30, check=True).stdout.strip()
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_revision": rev,
        "seed": seed,
        "loadavg_start": os.getloadavg(),
    }


def end_to_end(ops, samples, setup_walls):
    """The END_TO_END metrics and their sample counts."""
    by_op = {op.label: [s for s in samples if s["op"] == op.label] for op in ops}
    wall = {label: statistics.median(s["wall"] for s in ss) for label, ss in by_op.items()}
    cpu = {label: statistics.median(s["cpu"] for s in ss) for label, ss in by_op.items()}
    work = [op for op in ops if op.graphs]
    passed = sum(1 for s in samples if not s["error"])
    values = {
        "setup_s": statistics.median(setup_walls),
        "wall_s": sum(wall.values()),
        "cpu_s": sum(cpu.values()),
        "peak_rss_mb": max(s["rss_mb"] for s in samples),
        "graphs_per_s": sum(op.graphs for op in work) / sum(wall[op.label] for op in work),
        "ops_ok_ratio": passed / len(samples),
    }
    passes = len(samples) // len(ops)
    counts = {
        "setup_s": f"median of {len(setup_walls)} launches",
        "wall_s": f"sum over {len(ops)} invocations of the median of {passes} passes",
        "cpu_s": f"sum over {len(ops)} invocations of the median of {passes} passes",
        "peak_rss_mb": f"max over {len(samples)} invocations",
        "graphs_per_s": f"{sum(op.graphs for op in work)} graphs over {len(work)} invocations, "
                        f"median of {passes} passes",
        "ops_ok_ratio": f"{passed} passed of {len(samples)} attempted",
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}, counts


def traced_pass(ops, deadline):
    """Run ``ops`` in this process through a traced ``radgraph.cli.main``.

    Returns (tracer, samples, bytes of input read, wall time of the pass).
    """
    sys.path.insert(0, str(SRC))
    tracer = spans.Tracer()
    cli_main = tracer.install()
    signal.signal(signal.SIGALRM, _out_of_time)
    samples, read = [], 0
    t0 = time.perf_counter()
    for i, op in enumerate(ops):
        tracer.op = i
        left = deadline - time.monotonic()
        if left <= 0:
            samples.append({"op": op.label, "wall": 0.0, "traced": True, "error": "not run: out of time"})
            continue
        read += input_bytes(op.argv)
        signal.setitimer(signal.ITIMER_REAL, left)
        rc, out, err, wall = run_in_process(cli_main, op.argv)
        signal.setitimer(signal.ITIMER_REAL, 0)
        samples.append({"op": op.label, "wall": wall, "traced": True, "error": judge(op.check, rc, out, err)})
    traced_wall = time.perf_counter() - t0
    tracer.uninstall()
    return tracer, samples, read, traced_wall


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()

    if not (SRC / "radgraph" / "cli.py").is_file():
        sys.stderr.write(f"perfbench: no radgraph sources under {SRC}\n")
        return 2
    work = OUT / "work"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    prov = provenance(args.seed)
    launcher = Launcher(work, started + RUN_LIMIT_S)

    probe = launcher.run(workloads.SETUP_ARGV)  # also compiles the bytecode caches
    problem = judge(workloads.check_setup, probe["rc"], probe["stdout"], probe["stderr"])
    if problem:
        sys.stderr.write(f"perfbench: radgraph CLI does not start: {problem}\n")
        return 1
    ops = workloads.build(args.workload, args.seed, work)
    setup_op = workloads.Op("setup", workloads.SETUP_ARGV, workloads.check_setup)
    setup = [] if args.trace else [run_op(launcher, setup_op) for _ in range(SETUP_LAUNCHES)]

    samples = []
    window = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        samples.extend(run_op(launcher, op) for op in ops)
        last = time.perf_counter() - t0
        if args.trace or time.perf_counter() - window + last > args.seconds:
            break

    report = {"workload": args.workload, "trace": args.trace, "provenance": prov}
    if args.trace:
        tracer, traced, read, traced_wall = traced_pass(ops, started + RUN_LIMIT_S)
        untraced_wall = sum(s["wall"] for s in samples)
        samples += traced
        metrics = spans.per_layer_metrics(tracer.spans, read, traced_wall, untraced_wall)
        counts = {name: f"one traced pass of {len(ops)} invocations" for name in metrics}
        layers, report["functions"] = spans.rollup(tracer.spans)
        report["layers"] = layers
        with open(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl", "w", encoding="ascii") as fh:
            fh.writelines(json.dumps(s.to_json()) + "\n" for s in tracer.spans)
    else:
        metrics, counts = end_to_end(ops, samples, [s["wall"] for s in setup])

    defects = {op.label: op.defect for op in ops if op.defect}
    failed = [s for s in samples if s["error"]]
    known = [s for s in failed if s["op"] in defects and defects[s["op"]] in s["error"]]
    correct = not any(s["error"] for s in setup) and len(known) == len(failed)
    prov["loadavg_end"] = os.getloadavg()
    report.update(metrics=metrics, sample_counts=counts, setup=setup, samples=samples)
    (OUT / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1, default=str))
    shutil.rmtree(work, ignore_errors=True)

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"nproc={prov['nproc']} python={prov['python']} rev={prov['git_revision']} "
          f"loadavg {prov['loadavg_start'][0]:.2f} -> {prov['loadavg_end'][0]:.2f}")
    for name, m in metrics.items():
        print(f"  {name:<55} {m['value']:>14.6g} {m['unit']:<6} ({counts[name]})")
    if args.trace:
        total = sum(agg["self_s"] for agg in layers.values()) or 1.0
        shares = ", ".join(f"{layer} {agg['self_s'] / total:.2f}" for layer, agg in layers.items())
        print(f"  layer shares of traced self time: {shares}")
        print(f"  predicted: {PREDICTED_SHARES[args.workload]}")
        if any(a == "--jobs" and op.argv[i + 1] != "1" for op in ops for i, a in enumerate(op.argv)):
            print("  spans of --jobs 2 pool workers are not collected; the parent's "
                  "search.enumerate_extremal span covers their time")
    for s in failed:
        kind = "known defect" if s in known else "FAILED"
        print(f"  {kind}: {s['op']}: {s['error']}")
    print(json.dumps({"correct": correct, "attempted": len(samples), "failed": len(failed),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
