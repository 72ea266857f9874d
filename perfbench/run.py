"""twogridfem benchmark: one workload per run, metrics as JSON on the last line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload power11_chain --seed 0 --seconds 30 --trace 0

The program is imported from the checkout's ``src/``.  A run builds its
inputs ``SETUP_REPEATS`` times (``setup_s`` is the median), warms up on the
coarsest levels, makes the workload's one-off reference solve if it has one,
then repeats the workload's round while the next one is predicted to end
within ``--seconds`` (at least once) and reports medians.  With
``--trace 0`` the last line carries the end-to-end metrics; with
``--trace 1`` every public function of the program records spans and the
last line carries the per-layer metrics instead.  Spans, the per-layer
summary and the environment are written under ``perfbench/out/``.

The exit code is 0 when a result was printed, 2 when no result could be
produced (no sources, unknown workload).
"""

import argparse
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 5

# One BLAS thread, pinned before numpy is imported and recorded with every
# result.  OpenBLAS threads spin while they wait: with two threads on a
# two-core machine, one other busy process made a 1.6 s two-grid solve take
# 20 s.  The thread count also sets how the PCG dot products are summed, so
# iteration counts can differ by one from an unpinned run (636 against 635
# on the n = 256 level of power11_chain).
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class Timer:
    """Context manager timing its block; opens a span when tracing."""

    def __init__(self, name, tracer, unit):
        self.name, self.tracer, self.unit = name, tracer, unit
        self.seconds = None
        self.span = None

    def __enter__(self):
        if self.tracer is not None:
            self.span = self.tracer.open("bench." + self.name,
                                         info={"unit": self.unit})
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.seconds = time.perf_counter() - self.start
        if self.span is not None:
            self.tracer.close(self.span)
        return False


def _median(values):
    return statistics.median(values) if values else float("nan")


def execute(workload_name, seed, seconds, trace, size="full"):
    """Run one workload; return (result line dict, report dict)."""
    import environment
    import tracing
    from workloads import WORKLOADS

    workdir = OUT / f"{workload_name}-seed{seed}-trace{int(trace)}"
    if size != "full":
        workdir = workdir.with_name(f"{workdir.name}-{size}")
    workdir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[workload_name](seed, size, workdir)
    tracer = tracing.Tracer() if trace else None
    if tracer is not None:
        tracer.install()
    try:
        setup_times = []
        for k in range(SETUP_REPEATS):
            with Timer("setup", tracer, f"setup:{k}") as timer:
                workload.setup()
            setup_times.append(timer.seconds)
        workload.warm_up()

        prepared = workload.prepare(
            lambda name: Timer(name, tracer, "prepare:0"))
        deadline = time.perf_counter() + seconds
        rounds = []
        longest = 0.0
        while True:
            start = time.perf_counter()
            k = len(rounds)
            rounds.append(workload.run_round(
                lambda name: Timer(name, tracer, f"round:{k}")))
            longest = max(longest, time.perf_counter() - start)
            if time.perf_counter() + longest > deadline:
                break
    finally:
        if tracer is not None:
            tracer.uninstall()

    outcomes = [prepared] + rounds
    attempted = sum(r.attempted for r in outcomes)
    failures = [f for r in outcomes for f in r.failures]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    phase_medians = {
        name: _median([r.times[name] for r in outcomes if name in r.times])
        for name in sorted({n for r in outcomes for n in r.times})}
    end_to_end = {
        "setup_s": _median(setup_times),
        "solve_s": phase_medians.get("solve", float("nan")),
        "peak_rss_mb": peak_rss_mb,
    }
    report = {
        "workload": workload_name,
        "seed": seed,
        "trace": int(trace),
        "size": size,
        "environment": environment.describe(BLAS_THREADS),
        "inputs": workload.describe(),
        "rounds": len(rounds),
        "setup_times_s": setup_times,
        "phase_times_s": {name: [r.times[name] for r in outcomes
                                 if name in r.times]
                          for name in phase_medians},
        "phase_medians_s": phase_medians,
        "prepare_info": prepared.info,
        "round_info": [r.info for r in rounds],
        "attempted": attempted,
        "failed": len(failures),
        "failed_share": len(failures) / attempted,
        "failures": failures,
        "end_to_end": end_to_end,
    }
    if tracer is None:
        values = end_to_end
    else:
        layer = tracing.layer_metrics(tracer, tracing.calibrate_overhead())
        layer["trace.solve_s"] = end_to_end["solve_s"]
        rows, phase_time = tracing.summary_rows(tracer)
        report["per_layer"] = layer
        report["summary"] = rows
        report["phase_totals_s"] = phase_time
        spans_path = workdir / "spans.jsonl"
        tracer.write(spans_path)
        report["spans_file"] = str(spans_path.relative_to(ROOT))
        values = layer
    declared = _declared("per_layer" if trace else "end_to_end")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}
    (workdir / "result.json").write_text(json.dumps(report, indent=1))
    line = {"correct": not failures, "attempted": attempted,
            "failed": len(failures), "metrics": metrics}
    return line, report


def _declared(kind):
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)[kind]


def _print_report(report):
    env = report["environment"]
    print(f"# twogridfem benchmark: workload={report['workload']} "
          f"seed={report['seed']} trace={report['trace']} "
          f"rounds={report['rounds']}")
    print("# environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    print("# inputs: " + json.dumps(report["inputs"]))
    if report["prepare_info"]:
        print("# prepare: " + json.dumps(report["prepare_info"]))
    for k, info in enumerate(report["round_info"]):
        print(f"# round {k}: " + json.dumps(info))
    print(f"# {'metric':<24} {'value':>14}  unit")
    named = dict(report["end_to_end"])
    named.update({f"{name}_s": v for name, v in
                  report["phase_medians_s"].items() if name != "solve"})
    for key in ("tg_gap_rel", "err_energy", "err_l2"):
        values = [i[key] for i in report["round_info"] if key in i]
        if values:
            named[key] = _median(values)
    named["failed_share"] = report["failed_share"]
    for key, value in named.items():
        unit = ("s" if key.endswith("_s") else
                "MB" if key.endswith("_mb") else "1")
        print(f"# {key:<24} {value:>14.6g}  {unit}")
    for failure in report["failures"]:
        print(f"# FAILED {failure}")
    if "summary" in report:
        phases = sorted(report["phase_totals_s"])
        print("# per-layer calls and self time per set-up plus round, "
              "and share of each phase:")
        print(f"# {'function':<40} {'calls':>7} {'self_s':>9} "
              + " ".join(f"{p:>8}" for p in phases))
        for row in report["summary"]:
            shares = " ".join(f"{row['share'].get(p, 0.0):>8.1%}"
                              for p in phases)
            print(f"# {row['name']:<40} {row['calls']:>7.4g} "
                  f"{row['self_s']:>9.3f} {shares}")
        print(f"# spans written to {report['spans_file']}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "twogridfem" / "__init__.py").is_file():
        print(f"perfbench: no twogridfem sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    line, report = execute(args.workload, args.seed, args.seconds,
                           bool(args.trace))
    _print_report(report)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
