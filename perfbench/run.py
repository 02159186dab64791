"""Run one workload of the quiverstab benchmark and print its metrics.

    python3 perfbench/run.py --workload king-large --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 45 --trace 0

Run it from the root of a checkout; it imports quiverstab from ``src/`` there
and from nowhere else.  One process per workload, one caller in a closed
loop, no threads; each round of an end-to-end run runs in a forked copy of
that process, which reports the round's peak RSS.  End-to-end times are
adjusted for the machine's speed; see ``REFERENCE_S``.  The last line of
standard output is one JSON object: ``--trace 0`` gives the end-to-end
metrics, ``--trace 1`` the per-layer ones.
See ``perfbench/README.md`` for the workloads and the metric definitions.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pickle
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

from tracing import Tracer, direct

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".perfbench-out"

WORKLOAD_NAMES = ("king-large", "cli")
# A workload sets ``SETUP_PER_ROUND``, the fresh set-up processes timed
# before each round of an end-to-end run.  Spread over the whole run, they
# meet the machine at the same speeds as the ops.
#
# The tail is read at the workload's ``TAIL_PERCENTILE``, fixed so that a 45 s
# run leaves at least ``TAIL_BEYOND`` samples beyond it at any of the
# measuring machine's speeds: 90 for cli (about 170 to 350 ops a run), 75 for
# king-large (about 65 to 130).  A percentile that changed with the sample
# count would jump between latency classes when the machine's speed changes.
# Runs too short for that report their slowest op.
TAIL_BEYOND = 10
MAX_REPORTED_ERRORS = 5

# The measuring machine's speed drifts: other tenants of its host share its
# cores, and from one five-minute stretch to the next every op, set-up and
# plain Python loop took up to two thirds longer.  No choice of statistic
# over a 45 s run steadies a drift that slow, so the end-to-end times are
# adjusted to a reference speed.  A fixed pure-Python loop that uses no
# quiverstab code is timed before every op and every set-up sample, and each
# time metric is scaled by ``REFERENCE_S`` over the loop's mean time in the
# run (``ops_per_s`` by its inverse).  ``REFERENCE_S`` is about the loop's
# time at the measuring machine's full speed, so the adjusted times read as
# wall times there.  The output prints the unadjusted values too.
REFERENCE_S = 0.85e-3
REFERENCE_PAIRS = tuple((i, (5 * i + 3) % 9) for i in range(9)) * 2

# span name -> unit of its per-call metric
LAYERS = {
    "quiver.derive": "ms",
    "catalog.build": "ms",
    "catalog.taut_point": "us",
    "catalog.sample": "us",
    "helix.extend": "ms",
    "points.relation_check": "ms",
    "points.torus_act": "us",
    "stability.report": "ms",
    "stability.supports": "ms",
    "stability.cone": "ms",
    "stability.certify": "us",
    "invariants.enumerate": "ms",
    "invariants.vector": "ms",
    "invariants.separate": "ms",
    "cli.import": "ms",
    "cli.catalog": "ms",
    "cli.check": "ms",
    "cli.certify": "ms",
    "cli.character": "ms",
    "cli.supports": "ms",
    "cli.cone": "ms",
    "cli.cycles": "ms",
    "cli.separate": "ms",
    "cli.extend": "ms",
}
SCALE = {"ms": 1e3, "us": 1e6}


@dataclass
class Record:
    """One op as it ran; ``check_records`` fills in a wrong output as ``error``."""

    label: str
    kind: str
    seconds: float
    result: object = None
    span: object = None
    error: str | None = None
    reference: float = 0.0  # time of ``reference_loop`` just before the op

    @property
    def ok(self) -> bool:
        return self.error is None


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def reference_loop() -> int:
    """The fixed loop whose time measures the machine's speed: the subsets of
    nine nodes, each tested for arrows leaving it, the way the 2^n support
    enumeration runs, but without quiverstab, so that no change to the
    program changes it."""
    closed = 0
    for bits in range(1 << 9):
        s = frozenset(i for i in range(9) if bits >> i & 1)
        closed += all(not (a in s and b not in s) for a, b in REFERENCE_PAIRS)
    return closed


def time_reference() -> float:
    start = time.perf_counter()
    reference_loop()
    return time.perf_counter() - start


def run_ops(ops, tracer, prefix: str) -> list[Record]:
    """Run and time the ops; their outputs are checked later, by ``check_records``."""
    records = []
    reference_loop()  # warm-up: in a forked copy its first run pays copy-on-write faults
    for i, op in enumerate(ops):
        span = tracer.begin_op(f"op.{op.kind}", f"{prefix}.{i}") if tracer else None
        record = Record(f"{prefix}.{i}", op.kind, 0.0, span=span, reference=time_reference())
        start = time.perf_counter()
        try:
            record.result = op.run()
        except Exception:  # an op that raises is a failed op; the run goes on
            record.error = traceback.format_exc()
        record.seconds = time.perf_counter() - start
        if tracer:
            tracer.end_op(span)
        records.append(record)
    return records


def replay(workload_class, seed: int, rounds: int):
    """The ops of the first ``rounds`` rounds once more, built afresh from the
    seed.  A run keeps only its ops' outputs, not the ops and their inputs,
    so that these do not add to its memory; the checks take the inputs from
    here."""
    workload = workload_class(seed, direct)
    for r in range(rounds):
        yield from workload.round(r)


def check_records(records, ops, errors: list):
    """Check every op's output against the oracle, with ``ops`` the same ops
    rebuilt from the seed.  This runs after the whole run, so that neither
    the oracle's time nor its memory shows in the op metrics; each output is
    dropped once checked."""
    for record, op in zip(records, ops, strict=True):
        if record.ok:
            try:
                if op.kind != record.kind:
                    raise RuntimeError(f"the rebuilt op is a {op.kind} op; the seed gave other inputs")
                counts = op.check(record.result) or {}
                if record.span:
                    record.span.counts = counts
            except Exception:
                record.error = traceback.format_exc()
        record.result = None
        if not record.ok:
            errors.append(f"op {record.label} ({record.kind}):\n{record.error}")


def run_forked(ops, prefix: str, who) -> tuple[list[Record], int]:
    """``run_ops`` in a forked copy of this process.  Returns the records and
    the copy's peak RSS in KiB, or with ``who = RUSAGE_CHILDREN`` that of
    the largest process it started.  The copy shares this process's heap,
    so its peak counts the memory the workload holds as well as the ops';
    shared library pages count only once the copy touches them.  The
    round's ops are built here, in this process, so that the seeded inputs
    of later rounds follow on from them."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_fd)
        status = 1
        try:
            records = run_ops(ops, None, prefix)
            with os.fdopen(write_fd, "wb") as out:
                pickle.dump((records, resource.getrusage(who).ru_maxrss), out)
            status = 0
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(status)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as pipe:
        data = pipe.read()
    _, status = os.waitpid(pid, 0)
    if status != 0:
        raise RuntimeError(f"the process that ran round {prefix} ended with wait status {status}")
    return pickle.loads(data)


def run_rounds(sides, budget, before_round=None, runner=run_ops):
    """Run whole rounds on each (workload, tracer) side, as many as fit in
    ``budget`` seconds judged by the length of the round before, and at
    least one.  With two sides, each round runs on both, and the side that
    goes first swaps every round, so that warm-up and drift in the machine's
    speed fall on both alike.  ``before_round`` runs before each round,
    outside the budget; ``runner`` runs a round's ops, as ``run_ops`` does.
    Returns each side's records and the round count."""
    records = [[] for _ in sides]
    r, last = 0, 0.0
    start = time.perf_counter()
    while r == 0 or time.perf_counter() - start + last <= budget:
        if before_round:
            paused = time.perf_counter()
            before_round()
            start += time.perf_counter() - paused
        begun = time.perf_counter()
        order = range(len(sides)) if r % 2 == 0 else reversed(range(len(sides)))
        for i in order:
            workload, tracer = sides[i]
            if tracer:
                tracer.op_id = "inputs"
            records[i] += runner(workload.round(r), tracer, str(r))
        last = time.perf_counter() - begun
        r += 1
    return records, r


def percentile(sorted_values, p: float) -> float:
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(p / 100 * len(sorted_values)) - 1)]


def tail(latencies, p: float):
    """(value, percentile, samples beyond it) at percentile ``p`` when at least
    ``TAIL_BEYOND`` samples lie beyond it; the maximum for shorter runs."""
    xs = sorted(latencies)
    beyond = len(xs) - math.ceil(p / 100 * len(xs))
    if beyond >= TAIL_BEYOND:
        return percentile(xs, p), p, beyond
    return xs[-1], 100.0, 0


def ops_per_s(records) -> float:
    return sum(r.ok for r in records) / sum(r.seconds for r in records)


def setup_sampler(workload: str, seed: int, count: int, times: list, references: list):
    """A function that times ``count`` fresh processes that set the workload
    up and exit, and appends their wall times to ``times``, each after a
    ``reference_loop`` time to ``references``."""
    if workload == "cli":
        cmd = [sys.executable, "-c", "import quiverstab.cli"]
    else:
        cmd = [sys.executable, __file__, "--workload", workload, "--seed", str(seed), "--setup-only"]

    def sample():
        for _ in range(count):
            references.append(time_reference())
            start = time.perf_counter()
            subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
            times.append(time.perf_counter() - start)

    return sample


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(args, workloads) -> dict:
    setup, setup_references, errors, peaks = [], [], [], []
    workload = workloads.WORKLOADS[args.workload]
    sample_setup = setup_sampler(
        args.workload, args.seed, workload.SETUP_PER_ROUND, setup, setup_references
    )
    who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF

    def forked(ops, tracer, prefix):
        records, peak = run_forked(ops, prefix, who)
        peaks.append(peak)
        return records

    (records,), rounds = run_rounds(
        [(workload(args.seed, direct), None)], args.seconds, sample_setup, forked
    )
    check_records(records, replay(workload, args.seed, rounds), errors)
    latencies = [r.seconds for r in records]
    tail_value, tail_p, beyond = tail(latencies, workload.TAIL_PERCENTILE)
    failed = sum(not r.ok for r in records)
    measured = {
        "setup_s": statistics.median(setup),
        "ops_per_s": ops_per_s(records),
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_tail_ms": tail_value * 1e3,
    }
    references = [r.reference for r in records] + setup_references
    slowdown = statistics.fmean(references) / REFERENCE_S
    metrics = {
        name: metric(value * slowdown if name == "ops_per_s" else value / slowdown, unit)
        for (name, value), unit in zip(measured.items(), ("s", "1/s", "ms", "ms"))
    }
    metrics["peak_rss_mb"] = metric(statistics.median(peaks) / 1024, "MB")
    print(f"workload {args.workload}, seed {args.seed}: {rounds} rounds, {len(records)} ops "
          f"in {sum(latencies):.3f} s of timed ops; one caller, closed loop")
    print(f"  {'':<12} {'':<12} {'':<5} unadjusted")
    for name, m in metrics.items():
        print(f"  {name:<12} {m['value']:<12.6g} {m['unit']:<5} {measured.get(name, m['value']):.6g}")
    print(f"  {'':<12} times are adjusted by the reference loop's mean of {len(references)} "
          f"samples, {statistics.fmean(references) * 1e3:.4f} ms, {slowdown:.4f} times {REFERENCE_S * 1e3:g} ms")
    print(f"  {'':<12} op_tail_ms is p{tail_p:g} of {len(records)} samples, {beyond} beyond it")
    q1, _, q3 = statistics.quantiles(setup, n=4) if len(setup) > 1 else (setup[0],) * 3
    print(f"  {'':<12} setup_s is the median of {len(setup)} fresh processes, {workload.SETUP_PER_ROUND} "
          f"before each round; quartiles {q1:.4f} and {q3:.4f} s")
    print(f"  {'':<12} peak_rss_mb is the median over rounds of the peak RSS of the forked process "
          f"that ran the round{', of its largest CLI process' if args.workload == 'cli' else ''}; "
          f"largest {max(peaks) / 1024:.4g} MB")
    print(f"  {'fail_ratio':<12} {failed / len(records):<12.6g} ratio ({failed} of {len(records)} ops)")
    print_errors(errors)
    return {"correct": failed == 0, "attempted": len(records), "failed": failed, "metrics": metrics}


def layer_table(tracer) -> dict:
    """Per span name: (source, [(span, self time)]).

    A layer's spans come from the workload (set-up, inputs and ops) when it
    calls that layer, and from the census otherwise."""
    groups = {}
    for span, self_s in zip(tracer.spans, tracer.self_times()):
        source = "census" if span.op_id.startswith("census") else "workload"
        groups.setdefault(span.name, {}).setdefault(source, []).append((span, self_s))
    table = {}
    for name, by_source in groups.items():
        source = "workload" if "workload" in by_source else "census"
        table[name] = (source, by_source[source])
    return table


def counts(tracer, name: str) -> list:
    """A count recorded on op spans: the workload's values, or the census's
    when no workload op records it."""
    ops = [s for s in tracer.spans if s.name.startswith("op.") and name in s.counts]
    own = [s.counts[name] for s in ops if not s.op_id.startswith("census")]
    return own or [s.counts[name] for s in ops]


def per_layer(args, workloads) -> dict:
    workload = workloads.WORKLOADS[args.workload]
    errors = []
    tracer = Tracer()
    sides = [(workload(args.seed, direct), None), (workload(args.seed, tracer.call), tracer)]
    (plain, traced), rounds = run_rounds(sides, args.seconds)
    tracer.op_id = "census"
    census = run_ops(workloads.census(args.seed, tracer.call, workload), tracer, "census")
    for side in (plain, traced):
        check_records(side, replay(workload, args.seed, rounds), errors)
    check_records(census, workloads.census(args.seed, direct, workload), errors)
    tracer.write(TRACE_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl")

    table = layer_table(tracer)
    metrics = {}
    print(f"workload {args.workload}, seed {args.seed}, traced: {rounds} rounds, each run untraced "
          f"and traced in alternating order, then {len(census)} census ops")
    print(f"  {'span':<24} {'calls':>6} {'busy_s':>10} {'per call':>12} {'self/call':>12}  source")
    for name, unit in LAYERS.items():
        source, spans = table.get(name, ("none", []))
        busy = sum(s.duration for s, _ in spans)
        self_s = sum(t for _, t in spans)
        calls = len(spans)
        per_call = busy / calls * SCALE[unit] if calls else 0.0
        metrics[f"{name}_{unit}"] = metric(per_call, unit)
        metrics[f"{name}_busy_s"] = metric(busy, "s")
        metrics[f"{name}_calls"] = metric(calls, "count")
        self_call = self_s / calls * SCALE[unit] if calls else 0.0
        print(f"  {name:<24} {calls:>6} {busy:>10.4f} {per_call:>9.4g} {unit:<2} {self_call:>9.4g} {unit:<2}  {source}")
    for name, (source, spans) in sorted(table.items()):
        if name.startswith("op.") and source == "workload":
            per_op = sum(t for _, t in spans) / len(spans) * 1e3
            print(f"  {name:<24} {len(spans):>6} {sum(s.duration for s, _ in spans):>10.4f} "
                  f"{'':>12} {per_op:>9.4g} ms  self time = op time outside layer calls")
    op_self = [t for name, (src, spans) in table.items() if name.startswith("op.") and src == "workload" for _, t in spans]

    relations, terms = counts(tracer, "quiver.relations"), counts(tracer, "points.relation_terms")
    found, subsets = counts(tracer, "stability.supports_found"), counts(tracer, "stability.subsets")
    cycles = counts(tracer, "invariants.cycles")
    mean = lambda xs: statistics.fmean(xs) if xs else 0.0
    yield_ = sum(found) / sum(subsets) if subsets else 0.0
    metrics["quiver.relations"] = metric(sum(relations), "count")
    metrics["points.relation_terms"] = metric(mean(terms), "count")
    metrics["stability.supports_found"] = metric(mean(found), "count")
    metrics["stability.support_yield"] = metric(yield_, "ratio")
    metrics["invariants.cycles"] = metric(mean(cycles), "count")
    print(f"  quiver.relations {sum(relations)} (summed over derive calls), "
          f"points.relation_terms {mean(terms):.6g} (per relation check, computed), "
          f"stability.supports_found {mean(found):.6g} (per stability op, computed), "
          f"stability.support_yield {yield_:.6g} (supports over 2^n subsets, computed), "
          f"invariants.cycles {mean(cycles):.6g} (per separation experiment)")

    untraced, with_trace = ops_per_s(plain), ops_per_s(traced)
    metrics["trace.ops_per_s_untraced"] = metric(untraced, "1/s")
    metrics["trace.ops_per_s_traced"] = metric(with_trace, "1/s")
    metrics["trace.overhead_share"] = metric((untraced - with_trace) / untraced, "ratio")
    metrics["trace.op_self_ms"] = metric(statistics.fmean(op_self) * 1e3 if op_self else 0.0, "ms")
    metrics["trace.spans"] = metric(len(tracer.spans), "count")
    print(f"  tracing overhead: {untraced:.6g} ops/s untraced, {with_trace:.6g} ops/s traced "
          f"({metrics['trace.overhead_share']['value']:.3%}); "
          f"trace.op_self_ms {metrics['trace.op_self_ms']['value']:.4g} ms per op outside layer calls")
    print("  wait time: not applicable; one process, one caller, no queues")
    if table.get("stability.report", ("",))[0] == "census":
        print("  stability.report comes from catalog-sweep ops and includes the relation check "
              "that subrep_supports(warn=True) runs inside it")

    records = plain + traced + census
    failed = sum(not r.ok for r in records)
    print(f"  {'fail_ratio':<12} {failed / len(records):<12.6g} ratio ({failed} of {len(records)} ops)")
    print_errors(errors)
    return {"correct": failed == 0, "attempted": len(records), "failed": failed, "metrics": metrics}


def print_errors(errors):
    for e in errors[:MAX_REPORTED_ERRORS]:
        print(e, file=sys.stderr)
    if len(errors) > MAX_REPORTED_ERRORS:
        print(f"... and {len(errors) - MAX_REPORTED_ERRORS} more failed ops", file=sys.stderr)


def run_all(args) -> dict:
    """Each workload in its own process, one after another."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
        lines = proc.stdout.rstrip("\n").splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        total["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOAD_NAMES, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "quiverstab" / "__init__.py").is_file():
        return fail(f"no quiverstab sources under {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    import quiverstab

    if Path(quiverstab.__file__).resolve().parent != SRC / "quiverstab":
        return fail(f"imported quiverstab from {quiverstab.__file__}, not from {SRC}")
    if args.workload == "all":
        result = run_all(args)
    else:
        import workloads

        if args.setup_only:
            workloads.WORKLOADS[args.workload](args.seed, direct).round(0)
            return 0
        result = (per_layer if args.trace else end_to_end)(args, workloads)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
