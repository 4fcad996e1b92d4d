"""Benchmark of smyth: the sweep, build and cli workloads.

    python3 bench/run.py --workload {sweep,build,cli} --seed N --seconds T --trace {0,1}
    python3 bench/run.py --check [--seconds T]

Run from the repository root.  Every timed run happens in a fresh
interpreter, because the construction, induced-map and poset caches
live for the whole process.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` --
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  The lines before it print every metric of the workload
by name, with its unit.  Times are in reference seconds, which cancel the
host's speed drift (bench/speed.py); wall figures are printed next to
them.  ``--check`` runs every workload on the default
seed and on a held-out seed and exits 1 unless all outputs are correct.
See bench/README.md for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed
import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CHILD = BENCH / "child.py"
OUT = BENCH / "out"
PINS = BENCH / "pins.json"

WORKLOADS = ("sweep", "build", "cli")
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("throughput_per_s", "1/s", "higher"),
    ("op_p50_ms", "ms", "lower"),
)
SETUP_SAMPLES = 5
DEFAULT_SEED = 0
HELD_OUT_SEED = 7919
RUN_BUDGET_S = 170.0
DEFAULT_SECONDS = 20


class BenchError(Exception):
    """The benchmark could not produce a result."""


class Run:
    """One benchmark invocation: its deadline and what it reports."""

    def __init__(self, workload: str, seed: int, seconds: int) -> None:
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
        self.env.pop("SPECTRAL_CAPACITY", None)
        self.lines: list[str] = []
        self.problems: list[str] = []
        self.attempted = self.failed = 0

    def remaining(self) -> float:
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError("the run went over its time budget")
        return left

    def spawn(self, args: list[str]) -> subprocess.CompletedProcess:
        return subprocess.run([sys.executable, *args], cwd=ROOT, env=self.env,
                              stdout=subprocess.PIPE, text=True,
                              timeout=self.remaining())

    def child(self, *args: str) -> dict:
        """Start child.py, return the JSON object it prints last."""
        argv = [str(CHILD), *args, "--seed", str(self.seed),
                "--seconds", str(self.seconds),
                "--spawn-ns", str(time.monotonic_ns())]
        proc = self.spawn(argv)
        if proc.returncode != 0 or not proc.stdout.strip():
            raise BenchError(f"child {' '.join(args)} exited {proc.returncode}")
        return json.loads(proc.stdout.splitlines()[-1])

    def show(self, name: str, value, unit: str, note: str = "") -> None:
        text = f"{value:.6g}" if isinstance(value, float) else str(value)
        self.lines.append(f"{self.workload:6} {name:44} {text:>14} {unit:6} {note}")


def _median_ms(seconds: list[float]) -> float:
    return statistics.median(seconds) * 1e3


def _tail_ms(run: Run, name: str, seconds: list[float], pct: int) -> None:
    """Show the ``pct`` percentile when at least ten samples lie beyond it."""
    beyond = len(seconds) * (100 - pct) / 100
    if beyond < 10:
        run.show(name, "n/a", "ms", f"needs {int(1000 / (100 - pct))} samples, "
                                    f"have {len(seconds)}")
        return
    value = statistics.quantiles(seconds, n=100)[pct - 1] * 1e3
    run.show(name, value, "ms", f"over {len(seconds)} samples")


def _setup_median(run: Run, workload: str, first: dict) -> float:
    """Median set-up time over fresh children, in reference seconds."""
    children = [first] + [run.child("setup", workload)
                          for _ in range(SETUP_SAMPLES - 1)]
    setup_s = statistics.median(c["setup_s"] * c["speed"] for c in children)
    wall = statistics.median(c["setup_s"] for c in children)
    run.show("setup_s", setup_s, "s",
             f"median of {len(children)} fresh set-ups; wall {wall:.4g} s")
    return setup_s


def _check_pin(run: Run, result: dict) -> None:
    pins = json.loads(PINS.read_text()) if PINS.is_file() else {}
    key = f"{run.seed}/{result['planned']}"
    pin = pins.get("sweep", {}).get(key)
    if pin is None or len(result["op_s"]) != result["planned"]:
        return
    if pin != {"verdicts": result["verdicts"], "digest": result["digest"]}:
        run.problems.append(f"verdicts or digest differ from the pin {key}")
    else:
        run.lines.append(f"sweep  verdicts and digest match the pin {key}")


def _in_process(run: Run, trace_out: str | None = None) -> dict:
    """Time one fresh sweep or build child; times in reference seconds."""
    extra = ["--trace-out", trace_out] if trace_out else []
    result = run.child("run", run.workload, *extra)
    result["attempted"] = len(result["op_s"])
    result["ref_timed_s"] = sum(result["ref_op_s"])
    if result["failed"]:
        run.problems.append(f"{result['failed']} operations failed their checks")
    if run.workload == "build":
        run.problems += result["problems"]
    return result


def _bucket_rate(built: list[int], seconds: list[float], buckets: list[int]) -> float:
    """Points per second: the geometric mean over the size buckets of each
    bucket's median build rate.

    Every bucket counts the same, so the few largest builds, which take
    half of the time and follow the speed probe least, do not set the
    figure.  A bucket's builds are alike in size and shape, so its median
    rate leaves out a build that the host slowed down.
    """
    return statistics.geometric_mean(
        statistics.median(p / t for p, t, b in zip(built, seconds, buckets) if b == k)
        for k in sorted(set(buckets)))


def sweep_or_build(run: Run) -> dict[str, float]:
    result = _in_process(run)
    ops, wall_ops = result["ref_op_s"], result["op_s"]
    setup_s = _setup_median(run, run.workload, result)
    run.show("speed_factor", result["speed"], "ratio", "reference s per wall s")
    run.show("peak_rss_mb", result["peak_rss_mb"], "MB", "child ru_maxrss")
    latency, wall_latency = ops, wall_ops
    if run.workload == "sweep":
        work, per_s, op_ms = result["reports"], "reports_per_s", "poset_p50_ms"
        what = f"{work} reports over {len(ops)} posets"
        throughput, wall_throughput = work / sum(ops), work / sum(wall_ops)
    else:
        per_s, op_ms = "points_per_s", "build_p50_ms"
        # Per construction: hat_powerdomain builds its space, then the
        # plain one (one point fewer) again.
        halves = [2 if b == "hat_powerdomain" else 1 for b in result["builders"]]
        built = [p * h - h + 1 for p, h in zip(result["points"], halves)]
        work = sum(built)
        what = f"{work} points over {len(ops)} builds"
        throughput = _bucket_rate(built, ops, result["buckets"])
        wall_throughput = _bucket_rate(built, wall_ops, result["buckets"])
        latency = [t / h for t, h in zip(ops, halves)]
        wall_latency = [t / h for t, h in zip(wall_ops, halves)]
    op_p50_ms = _median_ms(latency)
    run.show("throughput_per_s", throughput, "1/s", f"= {per_s}")
    run.show(per_s, throughput, "1/s", f"{what}; wall {wall_throughput:.5g}")
    run.show("op_p50_ms", op_p50_ms, "ms", f"= {op_ms}")
    run.show(op_ms, op_p50_ms, "ms",
             f"over {len(latency)} samples; wall {_median_ms(wall_latency):.5g}")
    if run.workload == "sweep":
        _tail_ms(run, "poset_p95_ms", ops, 95)
        run.lines.append(f"sweep  verdicts {json.dumps(result['verdicts'])} "
                         f"digest {result['digest']}")
        _check_pin(run, result)
    else:
        run.lines.append("build  bases " + " ".join(
            f"{b}:{p}" for b, p in zip(result["builders"], result["points"])))
    run.show("fail_ratio", result["failed"] / len(ops), "ratio",
             f"{result['failed']} failed of {len(ops)} attempted")
    run.attempted, run.failed = len(ops), result["failed"]
    return {"setup_s": setup_s, "peak_rss_mb": result["peak_rss_mb"],
            "throughput_per_s": throughput, "op_p50_ms": op_p50_ms}


def _cli_passes(run: Run, traced: bool) -> dict:
    """Run every pass; one fresh ``python -m smyth`` per command.

    The speed probe is sampled between commands, so ``ref_*`` times are
    in reference seconds; the others are wall seconds.  They are worked
    out after the last command, when the probe has samples on both sides
    of every command.
    """
    out = {"ref_light_s": [], "light_s": [],
           "attempted": 0, "failed": 0, "verdicts": {}, "snapshots": [],
           "startup_ms": []}
    probe = speed.SpeedProbe()
    rng = random.Random(run.seed)
    passes = workloads.cli_passes(run.seconds)
    timed = []  # (pass, start, wall seconds, light command?)
    for n in range(passes):
        order = workloads.cli_commands()
        rng.shuffle(order)
        for k, command in enumerate(order):
            if traced:
                span_file = OUT / f"trace-cli-{k:02d}.jsonl"
                argv = [str(CHILD), "cli", "--trace-out", str(span_file), "--", *command]
            else:
                argv = ["-m", "smyth", *command]
            probe.sample()
            start = time.perf_counter()
            proc = run.spawn(argv)
            took = time.perf_counter() - start
            probe.sample()
            timed.append((n, start, took, command != workloads.HEAVY_COMMAND))
            problems = workloads.cli_check(ROOT, command, proc.returncode,
                                           proc.stdout, out["verdicts"])
            out["attempted"] += 1
            if problems:
                out["failed"] += 1
                run.problems += [f"{' '.join(command)}: {p}" for p in problems]
            if traced:
                snap_file = Path(str(span_file) + ".json")
                if not snap_file.is_file():
                    raise BenchError(f"{' '.join(command)} left no trace")
                snap = json.loads(snap_file.read_text())
                snap_file.unlink()
                out["snapshots"].append(snap)
                main_ns = snap["spans"].get("cli.main", {}).get("busy_ns", 0)
                out["startup_ms"].append(took * 1e3 - main_ns / 1e6)
    out["pass_s"], out["ref_pass_s"] = [0.0] * passes, [0.0] * passes
    for n, start, took, light in timed:
        ref_took = took * probe.local_factor(start, start + took)
        out["pass_s"][n] += took
        out["ref_pass_s"][n] += ref_took
        if light:
            out["light_s"].append(took)
            out["ref_light_s"].append(ref_took)
    return out


def _import_setup_s(run: Run) -> tuple[float, float]:
    """Median ``python -c "import smyth"`` time: reference and wall seconds."""
    probe = speed.SpeedProbe()
    timed = []
    for _ in range(SETUP_SAMPLES):
        probe.sample()
        start = time.perf_counter()
        proc = run.spawn(["-c", "import smyth"])
        took = time.perf_counter() - start
        probe.sample()
        if proc.returncode != 0:
            raise BenchError("python -c 'import smyth' failed")
        timed.append((start, took))
    ref = [took * probe.local_factor(start, start + took) for start, took in timed]
    return statistics.median(ref), statistics.median(took for _, took in timed)


def cli(run: Run) -> dict[str, float]:
    setup_s, setup_wall = _import_setup_s(run)
    out = _cli_passes(run, traced=False)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    # Light commands only: the grid check's time moves with the host far
    # more than the speed probe does (see bench/README.md), and its maps
    # search is gated on ``sweep``.
    throughput = len(out["ref_light_s"]) / sum(out["ref_light_s"])
    light_p50 = _median_ms(out["ref_light_s"])
    run.show("setup_s", setup_s, "s",
             f"median of {SETUP_SAMPLES} fresh python -c 'import smyth'; "
             f"wall {setup_wall:.4g} s")
    run.show("peak_rss_mb", peak_rss_mb, "MB", "largest command's ru_maxrss")
    run.show("throughput_per_s", throughput, "1/s",
             f"light commands per second, over {len(out['light_s'])}; "
             f"wall {len(out['light_s']) / sum(out['light_s']):.5g}")
    run.show("pass_s", statistics.median(out["ref_pass_s"]), "s",
             f"median of {len(out['pass_s'])} passes, not gated; "
             f"wall {statistics.median(out['pass_s']):.5g}")
    run.show("op_p50_ms", light_p50, "ms", "= light_p50_ms")
    run.show("light_p50_ms", light_p50, "ms",
             f"over {len(out['light_s'])} commands; "
             f"wall {_median_ms(out['light_s']):.5g}")
    _tail_ms(run, "light_p90_ms", out["ref_light_s"], 90)
    run.show("fail_ratio", out["failed"] / out["attempted"], "ratio",
             f"{out['failed']} failed of {out['attempted']} attempted")
    run.lines.append(f"cli    check verdicts {json.dumps(out['verdicts'], sort_keys=True)}")
    run.attempted, run.failed = out["attempted"], out["failed"]
    return {"setup_s": setup_s, "peak_rss_mb": peak_rss_mb,
            "throughput_per_s": throughput, "op_p50_ms": light_p50}


def _overhead(traced_s: float, traced_ops: int, untraced_s: float,
              untraced_ops: int) -> dict[str, float]:
    """Traced minus untraced time, per operation scaled to the traced count."""
    baseline = untraced_s * traced_ops / untraced_ops
    return {"bench.traced_s": traced_s, "bench.untraced_s": untraced_s,
            "bench.trace_overhead_s": traced_s - baseline,
            "bench.trace_overhead_ratio": traced_s / baseline - 1}


def traced(run: Run) -> dict[str, float]:
    """Per-layer metrics from a traced fresh run, plus its overhead.

    Layer times are wall seconds; the overhead compares reference seconds.
    """
    OUT.mkdir(exist_ok=True)
    if run.workload == "cli":
        plain = _cli_passes(run, traced=False)
        out = _cli_passes(run, traced=True)
        snap = tracing.merge(out["snapshots"])
        bench = _overhead(sum(out["ref_pass_s"]), out["attempted"],
                          sum(plain["ref_pass_s"]), plain["attempted"])
        bench["cli.startup_ms"] = statistics.median(out["startup_ms"])
        bench["bench.speed_factor"] = sum(out["ref_pass_s"]) / sum(out["pass_s"])
    else:
        plain = _in_process(run)
        out = _in_process(run, str(OUT / f"trace-{run.workload}.jsonl"))
        snap = out["trace"]
        bench = _overhead(out["ref_timed_s"], out["attempted"],
                          plain["ref_timed_s"], plain["attempted"])
        bench["cli.startup_ms"] = 0.0
        bench["bench.speed_factor"] = out["speed"]
    bench["bench.spans"] = snap["span_total"]
    values = tracing.layer_values(snap, bench)
    for name, unit, _ in tracing.layer_metric_specs():
        run.show(name, values[name], unit)
    run.attempted = out["attempted"] + plain["attempted"]
    run.failed = out["failed"] + plain["failed"]
    return values


def measure(workload: str, seed: int, seconds: int, trace: bool) -> tuple[Run, dict]:
    run = Run(workload, seed, seconds)
    run.lines.append(f"# workload={workload} seed={seed} seconds={seconds} "
                     f"trace={int(trace)} python={platform.python_version()} "
                     f"nproc={os.cpu_count()}")
    if trace:
        values = traced(run)
        units = {name: unit for name, unit, _ in tracing.layer_metric_specs()}
    else:
        values = cli(run) if workload == "cli" else sweep_or_build(run)
        units = {name: unit for name, unit, _ in END_TO_END}
    for problem in run.problems:
        run.lines.append(f"PROBLEM {problem}")
    result = {
        "correct": not run.problems and run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }
    return run, result


def _manifest_problems() -> list[str]:
    """Differences between BENCHMARK.json and the metrics this file reports."""
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    if [w["name"] for w in manifest["workloads"]] != list(WORKLOADS):
        problems.append("workload names differ")
    if [(m["name"], m["unit"], m["better"]) for m in manifest["end_to_end"]] != list(END_TO_END):
        problems.append("end_to_end metrics differ")
    if [(m["name"], m["unit"], m["better"]) for m in manifest["per_layer"]] \
            != tracing.layer_metric_specs():
        problems.append("per_layer metrics differ")
    return problems


def check(seconds: int) -> int:
    """Every workload on the default and the held-out seed, as subprocesses."""
    problems = _manifest_problems()
    for workload in WORKLOADS:
        for seed in (DEFAULT_SEED, HELD_OUT_SEED):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]), flush=True)
            if proc.returncode != 0 or not lines or not json.loads(lines[-1])["correct"]:
                problems.append(f"{workload} seed {seed} is not correct")
    for problem in problems:
        print(f"PROBLEM {problem}")
    print("check: " + ("FAILED" if problems else "all outputs correct"))
    return 1 if problems else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--check", action="store_true",
                        help="run every workload on the default and held-out seeds")
    args = parser.parse_args()
    if not (ROOT / "src" / "smyth" / "__init__.py").is_file() \
            or not (ROOT / "fixtures").is_dir():
        print(f"error: no smyth sources under {ROOT}", file=sys.stderr)
        return 2
    if args.check:
        return check(args.seconds)
    if args.workload is None:
        parser.error("--workload is required")
    try:
        run, result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print("\n".join(run.lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
