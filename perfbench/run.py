"""paleysync benchmark: one workload per process, closed loop, one client.

    python3 perfbench/run.py --workload scan-729 --seed 1 --seconds 50 --trace 0

Run from the repository root.  The run sets up the workload (import,
instance generation, golden answers), times that set-up again at even
intervals through the run, and runs whole passes over the workload's
operation list, in an order drawn from --seed.  The pass count is
--seconds divided by the workload's nominal pass time, rounded, and at
least one.  Every answer is checked against the golden answers and must
repeat across passes.

--trace 0 prints the end-to-end metrics.  --trace 1 runs each pass twice,
untraced and then traced, prints the per-layer metrics and writes the spans
of the last traced pass under perfbench/out/.  The last line of stdout is
the result: {"correct", "attempted", "failed", "metrics"}; the line before
it is the run record.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import importlib.metadata
import json
import os
import random
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

from tracer import LAYERS, Tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = HERE / "golden"
OUT = HERE / "out"
SETUP_SAMPLES = 16
REPEAT_S = 0.05
MAX_REPEATS = 20
TAIL_BEYOND = 10
clock = time.perf_counter

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("op_p50_s", "s"),
    ("op_tail_s", "s"),
    ("decided_frac", "ratio"),
    ("peak_rss_mb", "MB"),
)

# Per-layer metrics: (traced function, counter) pairs, then layer totals.
TRACED_COUNTERS = (
    ("gf.build_field", ("calls", "self_s")),
    ("gf.subgroup_coset", ("self_s",)),
    ("paley.build_paley", ("self_s",)),
    ("paley.union_graph", ("calls", "self_s")),
    ("paley.complement", ("self_s",)),
    ("paley.orbital_family", ("self_s",)),
    ("spectral.gauss_periods", ("calls", "self_s")),
    ("spectral.theta_pair", ("self_s",)),
    ("spectral.feasible_clique_sizes", ("self_s",)),
    ("invariants.k_colorable", ("calls", "self_s", "nodes", "nodes_per_s", "decided_ratio")),
    ("invariants.clique_number", ("calls", "self_s", "nodes", "nodes_per_s", "exact_ratio")),
    ("invariants.chromatic_number", ("self_s",)),
    ("invariants.paley_certificate", ("self_s",)),
    ("invariants.verify_certificate", ("self_s",)),
    ("classify.classify", ("calls", "self_s", "nodes_per_budget")),
    ("classify.fast_paths", ("self_s", "hit_ratio")),
    ("classify.exhaustive_decision", ("self_s", "unions")),
    ("cli.run", ("self_s",)),
)
COUNTER_UNITS = {
    "calls": "count",
    "self_s": "s",
    "nodes": "count",
    "nodes_per_s": "1/s",
    "decided_ratio": "ratio",
    "exact_ratio": "ratio",
    "hit_ratio": "ratio",
    "nodes_per_budget": "ratio",
    "unions": "count",
}
RUN_METRICS = (
    ("trace_overhead_frac", "ratio"),
    ("trace_self_frac", "ratio"),
    ("undecided_frac", "ratio"),
)


def per_layer_names() -> list[tuple[str, str]]:
    names = [
        (f"{fn}.{counter}", COUNTER_UNITS[counter])
        for fn, counters in TRACED_COUNTERS
        for counter in counters
    ]
    names += [(f"{layer}.self_s", "s") for layer in LAYERS]
    return names + list(RUN_METRICS)


def _fail(message: str) -> None:
    sys.stderr.write(f"perfbench: {message}\n")
    sys.exit(2)


def _import_fresh():
    for name in [n for n in sys.modules if n == "paleysync" or n.startswith("paleysync.")]:
        del sys.modules[name]
    for layer in LAYERS:  # the package does not import cli itself
        importlib.import_module(f"paleysync.{layer}")
    return sys.modules["paleysync"]


def setup(workload, seed: int):
    """Import paleysync afresh, build the operation list in seed order and
    load the golden answers.  Returns (seconds, ps, ops, golden)."""
    t0 = clock()
    ps = _import_fresh()
    ops = workload.ops(ps, OUT)
    random.Random(seed).shuffle(ops)
    golden = json.loads((GOLDEN / f"{workload.name}.json").read_text(encoding="utf-8"))
    return clock() - t0, ps, ops, golden["answers"]


def run_pass(ops, tracer, between=None):
    """One pass over ops, calling `between()` after each.  Returns
    ({key: latency}, {key: answer}); an op that raised has no latency and
    the answer None.

    Untraced, an op is called again (after its prepare step) until
    REPEAT_S of it has been measured, at most MAX_REPEATS times, and its
    latency is the mean: one call of a few milliseconds is too short to
    average out the machine's speed changes.  Traced ops run once, so that
    call and node counts stay exact."""
    latencies, answers = {}, {}
    scope = tracer if tracer is not None else contextlib.nullcontext()
    for op in ops:
        gc.collect()  # every op starts from the same collector state
        try:
            times = []
            while not times or (
                tracer is None and sum(times) < REPEAT_S and len(times) < MAX_REPEATS
            ):
                op.prepare()
                with scope:
                    t0 = clock()
                    raw = op.call()
                    times.append(clock() - t0)
                if len(times) == 1:
                    answers[op.key] = op.answer(raw)
            latencies[op.key] = sum(times) / len(times)
        except Exception:  # one failed op must not hide the others' results
            traceback.print_exc()
            answers[op.key] = None
        if between is not None:
            between()
    return latencies, answers


def check_answers(workload, golden, answers) -> list[str]:
    errors: list[str] = []
    if answers.keys() != golden.keys():
        errors.append("operation set differs from the golden answers")
        return errors
    for key, gold in golden.items():
        if answers[key] is not None:
            workload.check(key, gold, answers[key], errors)
    return errors


def tail(latencies):
    """Latency at the highest percentile with TAIL_BEYOND samples beyond it:
    (value, percentile, samples beyond, samples).  With too few samples the
    maximum is reported, with 0 samples beyond."""
    s = sorted(latencies)
    n = len(s)
    idx = n - 1 - TAIL_BEYOND if n > TAIL_BEYOND else n - 1
    return s[idx], 100.0 * (idx + 1) / n, n - 1 - idx, n


def layer_metrics(snapshots, plain_s, traced_s, undecided_frac) -> dict:
    n = len(snapshots)

    def total(fn, attr):
        return sum(getattr(snap[fn], attr) for snap in snapshots)

    def ratio(a, b):
        return a / b if b else 0.0

    out = {}
    for fn, counters in TRACED_COUNTERS:
        for counter in counters:
            if counter in ("calls", "self_s", "nodes", "unions"):
                value = total(fn, counter) / n
            elif counter == "nodes_per_s":
                value = ratio(total(fn, "nodes"), total(fn, "self_s"))
            elif counter == "nodes_per_budget":
                value = max(snap[fn].max_nodes_per_budget for snap in snapshots)
            else:  # decided_ratio, exact_ratio, hit_ratio
                value = ratio(total(fn, "good"), total(fn, "calls"))
            out[f"{fn}.{counter}"] = value
    fns = snapshots[0].keys()
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(total(fn, "self_s") for fn in fns if fn.startswith(layer + ".")) / n
    traced_pass = statistics.median(traced_s)
    out["trace_overhead_frac"] = (traced_pass - statistics.median(plain_s)) / statistics.median(plain_s)
    out["trace_self_frac"] = sum(total(fn, "self_s") for fn in fns) / sum(traced_s)
    out["undecided_frac"] = undecided_frac
    return out


def _commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref = (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None  # not a git checkout (or a packed ref); src_sha256 still names the code


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def run_record(workload, args, **extra) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "paleysync").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "workload": workload.name,
        "why": workload.why,
        "inputs": workload.inputs(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": _commit(),
        "src_sha256": digest.hexdigest(),
        "python": sys.version.split()[0],
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "loop": "closed, 1 client, single thread",
        **extra,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "paleysync" / "__init__.py").is_file():
        _fail(f"no paleysync sources under {SRC}")
    workload = WORKLOADS[args.workload]
    os.environ.pop("PALEY_BUDGET", None)  # the scan op must use the CLI default budget
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)

    dt, ps, ops, golden = setup(workload, args.seed)
    setup_times = [dt]
    if Path(ps.__file__).resolve().parent != (SRC / "paleysync").resolve():
        _fail(f"imported paleysync from {ps.__file__}, not from {SRC}")

    # attempted/failed count answers (a scan op answers one per row); an
    # answer is failed when its op raised.
    answers_per_pass = sum(workload.count(gold)[0] for gold in golden.values())
    tracer = Tracer() if args.trace else None
    plain, traced, snapshots = [], [], []  # per pass: {op key: latency}
    first = None  # answers of the first pass; every later pass must repeat them
    failed = mismatched = 0
    # Set-up is timed again at even intervals through the run, and the
    # working modules are put back after each sample: the machine's speed
    # changes within a second, so samples taken together would all share it.
    setup_every = args.seconds / SETUP_SAMPLES
    next_setup = clock() + setup_every

    def sample_setup():
        nonlocal next_setup
        if clock() < next_setup:
            return
        live = {n: m for n, m in sys.modules.items() if n == "paleysync" or n.startswith("paleysync.")}
        setup_times.append(setup(workload, args.seed)[0])
        sys.modules.update(live)
        next_setup = clock() + setup_every

    # A fixed pass count, so every run of a workload does the same work and
    # yields the same number of samples whatever the machine's speed.
    per_unit = workload.pass_s * (2 if tracer else 1)
    for _ in range(max(1, round(args.seconds / per_unit))):
        for store, scope in [(plain, None)] + ([(traced, tracer)] if tracer else []):
            if scope is not None:
                scope.reset()
            latencies, answers = run_pass(ops, scope, sample_setup if tracer is None else None)
            store.append(latencies)
            if scope is not None:
                snapshots.append(dict(scope.stats))
            failed += sum(workload.count(golden[k])[0] for k, a in answers.items() if a is None)
            if first is None:
                first = answers
            elif answers != first:
                mismatched += 1

    errors = check_answers(workload, golden, first)
    if mismatched:
        errors.append(f"{mismatched} passes (traced or untraced) differ from the first pass")
    undecided_per_pass = sum(
        workload.count(answer)[1] if answer is not None else workload.count(golden[key])[0]
        for key, answer in first.items()
    )
    undecided_frac = undecided_per_pass / answers_per_pass
    latencies = [dt for p in plain for dt in p.values()]
    pass_s = [sum(p.values()) for p in plain]
    tail_value, tail_pct, tail_beyond, samples = tail(latencies)

    if tracer is None:
        metrics = {
            "setup_s": statistics.median(setup_times),
            "wall_s": statistics.median(pass_s),
            "op_p50_s": statistics.median(latencies),
            "op_tail_s": tail_value,
            "decided_frac": 1.0 - undecided_frac,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = dict(END_TO_END)
        spans_file = None
    else:
        traced_s = [sum(p.values()) for p in traced]
        metrics = layer_metrics(snapshots, pass_s, traced_s, undecided_frac)
        units = dict(per_layer_names())
        spans_file = OUT / f"spans-{workload.name}-seed{args.seed}.jsonl"
        t0 = tracer.spans[0][1] if tracer.spans else 0.0
        with open(spans_file, "w", encoding="utf-8") as fh:
            for name, start, end, parent in tracer.spans:
                fh.write(json.dumps([name, start - t0, end - t0, parent]) + "\n")

    for err in errors[:20]:
        sys.stderr.write(f"perfbench: wrong answer: {err}\n")
    record = run_record(
        workload,
        args,
        passes=len(plain),
        pass_s=pass_s,
        traced_passes=len(traced),
        ops_per_pass=len(ops),
        answers_per_pass=answers_per_pass,
        undecided_per_pass=undecided_per_pass,
        op_median_s={key: statistics.median(p[key] for p in plain if key in p) for key in plain[0]},
        op_samples=samples,
        op_tail_percentile=tail_pct,
        op_tail_samples_beyond=tail_beyond,
        setup_s_samples=setup_times,
        spans_file=str(spans_file.relative_to(ROOT)) if spans_file else None,
        errors=len(errors),
    )
    print(json.dumps({"run_record": record}))
    result = {
        "correct": not errors and failed == 0,
        "attempted": answers_per_pass * (len(plain) + len(traced)),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
