"""Drowsy-DC simulator benchmark.

Runs one workload (see ``workloads.py``) closed-loop: one simulation at
a time in this process, the next built when the previous returns,
until ``--seconds`` are used.  With ``--trace 0`` it reports the
end-to-end metrics (untraced runs); with ``--trace 1`` it alternates
untraced and traced runs and reports the per-layer metrics of the
traced ones (``tracing.py``).  End-to-end timings are medians scaled
for the host's speed at the time (``host_ref_s``).  Every run passes a
correctness gate first; the last stdout line is one JSON object::

    python3 perfbench/run.py --workload paper-hourly --seed 7 \\
        --seconds 55 --trace 0 [--out result.json]
    python3 perfbench/run.py --workload all          # every workload,
                                                     # both modes
    python3 perfbench/run.py --compare BEFORE AFTER  # files or dirs of
                                                     # --out results

Run it from the repository root; the program is imported from
``src/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import fields
from pathlib import Path

from tracing import RUN_SPAN, SETUP_SPAN, Tracer, layer_metrics, traced

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"

#: BLAS/OpenMP thread caps, set before numpy loads; never above nproc.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
NPROC = len(os.sched_getaffinity(0))
for _var in THREAD_VARS:
    os.environ[_var] = str(min(int(os.environ.get(_var, "1") or 1), NPROC))

#: Timing samples of set-up collected at least, per invocation, and
#: the wall time the extra set-ups may take to reach more (small
#: workloads build in milliseconds, so their median gets many samples).
MIN_SETUP_SAMPLES = 7
SETUP_BUDGET_S = 1.5
MAX_SETUP_SAMPLES = 101
#: Horizon of the untimed warm-up run (lazy imports, first-call paths).
WARMUP_HOURS = 2
#: The host-speed reference kernel's time on the host the end-to-end
#: timings are reported for (see ``host_ref_s``).
REF_NOMINAL_S = 0.2
#: The reference kernel, run by ``host_ref_s`` in a child process so
#: that its table (about 15 MB) never adds to this process's peak.
REF_KERNEL = '''
import random, time
def kernel():
    table = [{"a": i, "b": [i, i + 1]} for i in range(50_000)]
    random.Random(1).shuffle(table)
    t0 = time.perf_counter()
    total = 0
    for _ in range(4):
        for item in table:
            total += item["b"][1] - item["a"]
    counts = {}
    for i in range(100_000):
        counts[i % 5003] = counts.get(i % 5003, 0.0) + i * 0.5
    return time.perf_counter() - t0
print(kernel())
'''


def _import_program():
    """Import the simulator from this checkout's ``src/``, never from
    anywhere else; exit non-zero without a result if it is missing."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import repro
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import the simulator from {src}: {exc}")
    if not Path(repro.__file__).resolve().is_relative_to(src.resolve()):
        sys.exit(f"perfbench: repro resolved outside {src}")


# ----------------------------------------------------------------------
# run descriptor
# ----------------------------------------------------------------------
def _git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def descriptor() -> dict:
    import numpy

    return {"nproc": NPROC, "cpu_model": _cpu_model(),
            "python": sys.version.split()[0], "numpy": numpy.__version__,
            "git_sha": _git_sha(),
            "thread_caps": {v: os.environ[v] for v in THREAD_VARS}}


# ----------------------------------------------------------------------
# one repetition
# ----------------------------------------------------------------------
class HourClock:
    """Observer timing each simulated hour of a run and counting the
    VM-hours it simulated.  Reads the wall clock only; feeds nothing
    back into the simulation."""

    wants_sim_time = True

    def __init__(self, dc, tracer=None) -> None:
        self.dc = dc
        self.tracer = tracer
        self.marks: list[tuple[int, float, float]] = []
        self.vm_hours = 0
        self._last = 0.0

    def on_run_start(self, sim, start_hour, n_hours) -> None:
        self._last = time.perf_counter()

    def on_hour(self, t, now) -> None:
        stamp = time.perf_counter()
        self.marks.append((t, self._last, stamp))
        self._last = stamp
        self.vm_hours += sum(len(h.vms) for h in self.dc.hosts)
        if self.tracer is not None:
            self.tracer.hour = t + 1

    def on_run_end(self, result) -> None:
        self.dc = None  # keep no simulation alive past its run

    @property
    def hour_ms(self) -> list[float]:
        return [(end - start) * 1e3 for _, start, end in self.marks]


def _attach(sim, observer) -> None:
    """Join ``observer`` to an already-built simulation (the engines
    read their hour hooks at run time)."""
    from repro.api.observers import hour_hook

    sim.observers += (observer,)
    sim.engine.hour_hooks = tuple(sim.engine.hour_hooks) + (
        hour_hook(observer),)


def outcome_digest(result) -> str:
    """Digest of every simulated outcome (the fields ``==`` compares)."""
    text = repr([(f.name, getattr(result, f.name))
                 for f in fields(result) if f.compare])
    return hashlib.blake2b(text.encode(), digest_size=8).hexdigest()


def outcomes(result) -> dict:
    summary = result.request_summary or {}
    return {
        "energy_kwh": result.total_energy_kwh,
        "suspended_fraction": result.global_suspended_fraction,
        "migrations": result.migrations,
        "wol_sent": result.wol_sent,
        "sla_fraction": summary.get("sla_fraction"),
        "p99_sojourn_s": summary.get("p99_s"),
        "requests": summary.get("requests"),
        "wake_requests": summary.get("wake_requests"),
        "resumes": (sum(result.resume_cycles_by_host.values())
                    if result.resume_cycles_by_host is not None else None),
        "events_processed": result.events_processed,
    }


def gate(result, sim, workload, reference) -> list[str]:
    """Correctness checks for one finished run; returns the failures."""
    problems = []
    if reference is not None and result != reference:
        problems.append("result differs from the first run at this seed "
                        f"({outcome_digest(result)} != "
                        f"{outcome_digest(reference)})")
    try:
        sim.dc.check_invariants()
    except Exception as exc:  # any violation fails the run
        problems.append(f"check_invariants: {exc!r}")
    energy = result.total_energy_kwh
    if not (math.isfinite(energy) and energy > 0):
        problems.append(f"energy {energy!r} is not finite and positive")
    if workload.backend == "event" and not (
            (result.request_summary or {}).get("requests", 0) > 0):
        problems.append("event run served no requests")
    return problems


class Rep:
    """One repetition: build, run, check."""

    def __init__(self, workload, seed: int, reference, tracer=None) -> None:
        from repro.obs import TelemetryConfig, TelemetryRuntime

        self.problems: list[str] = []
        self.result = None
        gc.collect()
        t0 = time.perf_counter()
        try:
            if tracer is None:
                sim = workload.build(seed, workload.hours)
                t1 = time.perf_counter()
                clock = HourClock(sim.dc)
                _attach(sim, clock)
                t2 = time.perf_counter()
                result = sim.run(workload.hours)
                t3 = time.perf_counter()
            else:
                with traced(tracer):
                    with tracer.span(SETUP_SPAN):
                        sim = workload.build(seed, workload.hours)
                    t1 = time.perf_counter()
                    clock = HourClock(sim.dc, tracer)
                    _attach(sim, clock)
                    # Counters for the per-layer table; telemetry never
                    # changes results (RunResult excludes it from ==).
                    runtime = TelemetryRuntime(TelemetryConfig(metrics=True))
                    _attach(sim, runtime)
                    t2 = time.perf_counter()
                    with tracer.span(RUN_SPAN):
                        result = sim.run(workload.hours)
                    t3 = time.perf_counter()
                self.telemetry = result.telemetry
            self.result = result
            self.problems = gate(result, sim, workload, reference)
        except Exception:  # the rep fails; the benchmark reports it
            self.problems = [traceback.format_exc()]
            t1 = t2 = t3 = time.perf_counter()
            clock = None
        self.setup_s = t1 - t0
        self.run_s = t3 - t2
        self.clock = clock
        #: Host-speed factor for this repetition's timings (``measure``).
        self.scale = 1.0
        self.wall_s = time.perf_counter() - t0

    @property
    def failed(self) -> bool:
        return bool(self.problems)


# ----------------------------------------------------------------------
# measurement
# ----------------------------------------------------------------------
def host_ref_s() -> float:
    """Time of a fixed pure-Python kernel (``REF_KERNEL``): four passes
    of dict and list lookups over a shuffled table of 50k small objects,
    then 100k dict updates.  It never touches the simulator.

    The benchmark shares its cores and caches with other tenants whose
    load slows everything here by up to half for minutes at a time, and
    this kernel slows with the simulator.  So every timing is scaled by
    ``REF_NOMINAL_S`` over the kernel's time next to it and reads as on
    a host where the kernel takes ``REF_NOMINAL_S``.  The kernel runs
    between repetitions, when no simulation is alive.
    """
    out = subprocess.run([sys.executable, "-I", "-c", REF_KERNEL],
                         capture_output=True, text=True, check=True,
                         timeout=60)
    return float(out.stdout)


def _p90(values: list[float]) -> float:
    return values[0] if len(values) < 2 else statistics.quantiles(
        values, n=10)[8]


def _setup_samples(workload, seed: int, samples: list[float],
                   scale: float) -> None:
    stop = time.perf_counter() + SETUP_BUDGET_S
    while len(samples) < MIN_SETUP_SAMPLES or (
            len(samples) < MAX_SETUP_SAMPLES and time.perf_counter() < stop):
        gc.collect()
        t0 = time.perf_counter()
        sim = workload.build(seed, workload.hours)
        samples.append((time.perf_counter() - t0) * scale)
        del sim


def measure(workload, seed: int, seconds: float, trace: bool) -> dict:
    """Run repetitions until the next one would end after ``seconds``
    (at least one untraced, and one traced with ``trace``)."""
    deadline = time.perf_counter() + seconds
    try:
        workload.build(seed, WARMUP_HOURS).run(WARMUP_HOURS)
    except Exception:  # the first timed repetition records the failure
        traceback.print_exc()
    plain: list[Rep] = []
    traced_reps: list[tuple[Rep, Tracer]] = []
    reference = None
    refs = [host_ref_s()]
    while True:
        if trace and len(traced_reps) < len(plain):
            tracer = Tracer()
            rep = Rep(workload, seed, reference, tracer)
            traced_reps.append((rep, tracer))
        else:
            rep = Rep(workload, seed, reference)
            plain.append(rep)
        refs.append(host_ref_s())
        # The kernel's time around the repetition gives its host speed.
        rep.scale = REF_NOMINAL_S / ((refs[-2] + refs[-1]) / 2)
        rep.wall_s += refs[-1]
        if reference is None and not rep.failed:
            reference = rep.result
        for problem in rep.problems:
            print(f"FAILED {workload.name} seed {seed}: {problem}",
                  file=sys.stderr)
        if rep.failed and reference is None:
            break  # nothing to compare against; do not spin
        next_traced = trace and len(traced_reps) < len(plain)
        if next_traced and not traced_reps:
            continue
        next_s = (traced_reps[-1][0] if next_traced else plain[-1]).wall_s
        if time.perf_counter() + next_s > deadline:
            break

    ok_plain = [r for r in plain if not r.failed]
    setup = [r.setup_s * r.scale for r in ok_plain]
    if reference is not None:
        _setup_samples(workload, seed, setup, REF_NOMINAL_S / refs[-1])
    record = {
        "workload": workload.name, "seed": seed, "seconds": seconds,
        "trace": int(trace), "descriptor": descriptor(),
        "attempted": len(plain) + len(traced_reps),
        "failed": sum(r.failed for r in plain)
        + sum(r.failed for r, _ in traced_reps),
        "outcome_digest": outcome_digest(reference) if reference else None,
        "outcomes": outcomes(reference) if reference else None,
        "samples": {
            "setup_s": setup,
            "host_ref_s": refs,
            "run_s": [r.run_s for r in ok_plain],
            "hour_ms": [r.clock.hour_ms for r in ok_plain],
            "vm_hours_per_s": [r.clock.vm_hours / r.run_s for r in ok_plain],
            "requests_per_s": [
                r.result.request_summary["requests"] / r.run_s
                for r in ok_plain if r.result.request_summary],
        },
    }
    hour_ms = [ms for r in ok_plain for ms in r.clock.hour_ms]
    if ok_plain:
        scaled_hour_ms = [ms * r.scale
                          for r in ok_plain for ms in r.clock.hour_ms]
        record["metrics"] = {
            "setup_s": (statistics.median(setup), "s"),
            "vm_hours_per_s": (statistics.median(
                r.clock.vm_hours / (r.run_s * r.scale)
                for r in ok_plain), "VM.h/s"),
            "hour_ms_p50": (statistics.median(scaled_hour_ms), "ms"),
            "peak_rss_mb": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "MB"),
        }
        record["sample_counts"] = {"runs": len(ok_plain),
                                   "hours": len(hour_ms),
                                   "setups": len(setup)}
        rps = record["samples"]["requests_per_s"]
        record["requests_per_s"] = statistics.median(rps) if rps else 0.0
        # Printed, not gated: the same medians unscaled, the kernel's
        # time, and the p90 hour, whose top decile depends on the seed
        # (relocate-week's relocation hours are bimodal).
        record["diagnostics"] = {
            "hour_ms_p90": (_p90(scaled_hour_ms), "ms"),
            "vm_hours_per_s_unscaled":
                (statistics.median(record["samples"]["vm_hours_per_s"]),
                 "VM.h/s"),
            "hour_ms_p50_unscaled": (statistics.median(hour_ms), "ms"),
            "host_ref_s": (statistics.median(refs), "s"),
        }
        if rps:
            record["diagnostics"]["requests_per_s_unscaled"] = (
                record["requests_per_s"], "1/s")
    ok_traced = [(r, t) for r, t in traced_reps if not r.failed]
    if trace and ok_traced and ok_plain:
        untraced_s = statistics.median(r.run_s for r in ok_plain)
        per_rep = [layer_metrics(
            t, r.result, r.telemetry.totals, r.telemetry.series,
            r.run_s, untraced_s, record["requests_per_s"])
            for r, t in ok_traced]
        record["layers"] = {
            name: (statistics.median(m[name][0] for m in per_rep), unit)
            for name, (_, unit) in per_rep[0].items()}
        rep, tracer = ok_traced[-1]
        path = OUT_DIR / f"trace-{workload.name}-seed{seed}.json"
        tracer.write_chrome(path, rep.clock.marks)
        record["trace_file"] = str(path.relative_to(ROOT))
        record["self_time"] = {name: tracer.self_s[name]
                               for name in sorted(tracer.self_s)}
        record["run_wall_s"] = tracer.total_s.get(RUN_SPAN, 0.0)
    record["correct"] = (record["failed"] == 0 and reference is not None
                         and "metrics" in record
                         and (not trace or "layers" in record))
    return record


# ----------------------------------------------------------------------
# reporting
# ----------------------------------------------------------------------
def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def report(record: dict) -> None:
    name = record["workload"]
    d = record["descriptor"]
    print(f"== {name}  seed {record['seed']}  trace {record['trace']}  "
          f"{record['seconds']} s")
    print(f"descriptor: nproc={d['nproc']} cpu={d['cpu_model']!r} "
          f"python={d['python']} numpy={d['numpy']} git={d['git_sha']} "
          f"threads={d['thread_caps']}")
    print(f"runs attempted {record['attempted']}, failed {record['failed']}"
          f", failed_run_fraction "
          f"{record['failed'] / max(record['attempted'], 1):.3f}")
    if record.get("outcomes"):
        print(f"outcome_digest {record['outcome_digest']}  " + "  ".join(
            f"{k}={_fmt(v)}" for k, v in record["outcomes"].items()
            if v is not None))
    if "metrics" in record:
        n = record["sample_counts"]
        print(f"end-to-end (medians of {n['runs']} untraced runs, "
              f"{n['hours']} hour samples, {n['setups']} set-ups; timings "
              f"scaled to a host where the reference kernel takes "
              f"{REF_NOMINAL_S} s):")
        for metric, (value, unit) in record["metrics"].items():
            print(f"  {metric:<28} {_fmt(value):>14} {unit}")
        print(f"printed, not gated ({n['hours'] // 10} hours above "
              "hour_ms_p90):")
        for metric, (value, unit) in record["diagnostics"].items():
            print(f"  {metric:<28} {_fmt(value):>14} {unit}")
    if "layers" in record:
        run_wall = record["run_wall_s"]
        print(f"self time of the last traced run ({_fmt(run_wall)} s of "
              f"run(); trace: {record['trace_file']}):")
        ranked = sorted(record["self_time"].items(), key=lambda kv: -kv[1])
        for span, secs in ranked:
            if not span.startswith(SETUP_SPAN):  # outside run()
                print(f"  {span:<28} {secs:>10.4f} s  "
                      f"{100 * secs / run_wall if run_wall else 0:5.1f} %")
        print("per-layer (median of traced runs):")
        for metric, (value, unit) in record["layers"].items():
            print(f"  {metric:<34} {_fmt(value):>14} {unit}")


def result_line(record: dict) -> dict:
    table = record.get("layers" if record["trace"] else "metrics", {})
    return {"correct": record["correct"], "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in table.items()}}


def run_all(args) -> int:
    """Every workload in both modes, each in its own process (so peak
    RSS is per workload); prints one combined result line."""
    from workloads import WORKLOADS

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    records = []
    for name in WORKLOADS:
        for trace in (0, 1):
            out = OUT_DIR / f"all-{name}-trace{trace}.json"
            subprocess.run(
                [sys.executable, str(Path(__file__)), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace), "--out", str(out)], check=False)
            if out.exists():
                records.append(json.loads(out.read_text()))
                out.unlink()
            else:
                records.append({"workload": name, "trace": trace,
                                "correct": False, "attempted": 1,
                                "failed": 1})
    if args.out:
        Path(args.out).write_text(json.dumps(records, indent=1))
    line = {"correct": all(r["correct"] for r in records),
            "attempted": sum(r["attempted"] for r in records),
            "failed": sum(r["failed"] for r in records), "metrics": {}}
    for r in records:
        for k, (v, u) in r.get("layers" if r["trace"] else "metrics",
                               {}).items():
            line["metrics"][f"{r['workload']}/{k}"] = {"value": v, "unit": u}
    print(json.dumps(line))
    return 0 if line["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default workloads.DEFAULT_SEED; "
                             "claims must also hold on HELD_OUT_SEED)")
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the full result record here")
    parser.add_argument("--compare", nargs=2, metavar=("BEFORE", "AFTER"),
                        help="compare two result files or directories")
    args = parser.parse_args(argv)
    if args.compare:
        from compare import compare

        return compare(*args.compare)
    _import_program()
    from workloads import DEFAULT_SEED, WORKLOADS

    if args.seed is None:
        args.seed = DEFAULT_SEED
    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; expected one of "
                     f"{', '.join(WORKLOADS)} or all")
    record = measure(WORKLOADS[args.workload], args.seed, args.seconds,
                     bool(args.trace))
    report(record)
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1))
    print(json.dumps(result_line(record)), flush=True)
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
