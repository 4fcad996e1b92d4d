"""One fresh interpreter per measurement; started by run.py, not by hand.

``child.py setup|run sweep|build --seed S --seconds T --spawn-ns N``
sets the workload up (and, for ``run``, times it and checks the
outputs), then prints one JSON line.  ``--spawn-ns`` is the parent's
``time.monotonic_ns()`` just before it started this process, so the
set-up time covers interpreter start and import.

``child.py cli --trace-out PATH -- ARGS...`` runs one traced smyth
command line in-process and writes its trace to PATH.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import sys
import time
import traceback
from pathlib import Path

import speed
import tracing
import workloads

DEADLINE_S = 100.0
SETUP_PROBES = 5
SRC = Path(__file__).resolve().parent.parent / "src"


def _import_smyth() -> None:
    import smyth

    if not Path(smyth.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"smyth was imported from {smyth.__file__}, not {SRC}")


def _start_tracer(trace_out: str | None):
    if trace_out is None:
        return None
    tracer = tracing.Tracer()
    tracing.install(tracer)
    return tracer


def _finish_tracer(tracer, trace_out: str) -> dict:
    tracer.write_spans(trace_out)
    return tracer.snapshot()


def _run_workload(args) -> dict:
    _import_smyth()
    tracer = _start_tracer(args.trace_out)
    if args.workload == "sweep":
        ops = workloads.sweep_setup(args.seed, args.seconds)
        operation = workloads.sweep_operation
    else:
        ops = workloads.build_setup(args.seed, args.seconds)
        operation = workloads.build_operation
    setup_s = (time.monotonic_ns() - args.spawn_ns) / 1e9
    probe = speed.SpeedProbe()
    if args.mode == "setup":
        for _ in range(SETUP_PROBES):
            probe.sample()
        return {"setup_s": setup_s, "speed": probe.factor()}

    outputs, starts, times = [], [], []
    clock = time.perf_counter
    began = clock()
    for k, op in enumerate(ops):
        if clock() - began > DEADLINE_S:
            break
        probe.maybe_sample()
        if tracer is not None:
            tracer.op = k
        start = clock()
        try:
            out = operation(op)
        except Exception:  # one failed operation must not end the run
            traceback.print_exc()
            out = None
        starts.append(start)
        times.append(clock() - start)
        outputs.append(out)
    probe.sample()
    timed_s = clock() - began
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    ref_op_s = [t * probe.local_factor(s, s + t) for s, t in zip(starts, times)]
    result = {"setup_s": setup_s, "speed": probe.factor(),
              "timed_s": timed_s, "op_s": times, "ref_op_s": ref_op_s,
              "peak_rss_mb": peak_rss_mb, "planned": len(ops)}
    if args.workload == "sweep":
        ok, summary = workloads.sweep_check(outputs)
        result.update(summary)
        result["reports"] = sum(len(out) for out in outputs if out is not None)
    else:
        rng = random.Random(args.seed)
        problems = [workloads.build_check(op, out, rng)
                    for op, out in zip(ops, outputs)]
        ok = [not p for p in problems]
        result["problems"] = sorted({p for ps in problems for p in ps})
        result["points"] = [len(out.points) if out is not None else 0
                            for out in outputs]
        result["buckets"] = [bucket for bucket, _, _ in ops[:len(outputs)]]
        result["builders"] = [builder for _, builder, _ in ops[:len(outputs)]]
    result["failed"] = ok.count(False)
    if tracer is not None:
        result["trace"] = _finish_tracer(tracer, args.trace_out)
    return result


def _run_cli(args) -> int:
    _import_smyth()
    tracer = _start_tracer(args.trace_out)
    import smyth.cli

    try:
        code = smyth.cli.main(args.argv)
    finally:
        sys.stdout.flush()
        snapshot = _finish_tracer(tracer, args.trace_out)
        Path(args.trace_out + ".json").write_text(json.dumps(snapshot))
    return code


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "run", "cli"))
    parser.add_argument("workload", nargs="?", choices=("sweep", "build"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=1)
    parser.add_argument("--spawn-ns", type=int, default=None)
    parser.add_argument("--trace-out", default=None)
    argv = sys.argv[1:]
    command: list[str] = []
    if "--" in argv:
        cut = argv.index("--")
        argv, command = argv[:cut], argv[cut + 1:]
    args = parser.parse_args(argv)
    args.argv = command
    if args.mode == "cli":
        return _run_cli(args)
    print(json.dumps(_run_workload(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
