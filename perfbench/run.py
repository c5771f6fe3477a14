"""Run one workload of the dicekit benchmark and print its metrics.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout and imports ``dicekit`` from
``src/``.  One client, one process, no threads: each operation starts when
the previous one has returned (a closed loop), and every output is checked.

``--trace 0`` measures the end-to-end metrics: a timed loop of ``--seconds``
seconds, with a set-up in a fresh interpreter at every tenth of it, then the
chain reach sweep.  Other tenants of a shared host change its speed by tens
of percent, for seconds within a run and for minutes between runs.  So the
loop runs in windows of about `WINDOW_S` seconds, each bracketed by a short,
fixed calibration kernel (`CALIBRATION`) timed in a helper interpreter on the
same CPU, and every timing is scaled to the reference speed at which that
kernel takes `REF_CAL_S` seconds.  The unscaled figures are printed too.

``--trace 1`` measures the per-layer metrics instead: it runs a fixed number
of operations untraced and then the same operations with the outside-in
tracer installed, so that counts repeat exactly and the tracer's overhead is
measured.  Spans are written to ``.perfbench/`` when the run ends.

Every line but the last is for people; the last is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, ROOT)

from perfbench import tracer as tracing  # noqa: E402
from perfbench import workloads  # noqa: E402

#: the seed for routine runs, and one kept back to confirm a claimed gain
DEFAULT_SEED = 1
HELD_OUT_SEED = 20260417

#: fresh-interpreter set-ups per timed loop, spread evenly through it
SETUPS = 9
#: the loop is timed in windows of about this many seconds, each bracketed by
#: calibrations; an operation longer than this is a window of its own
WINDOW_S = 1.0
#: each calibration kernel's time at the reference speed (about its median on
#: the 2-vCPU virtual machine the baseline in README.md was measured on)
REF_CAL_S = {"interpreter_work": 0.011, "bignum_work": 0.017}
#: a tail percentile needs at least this many samples beyond it
TAIL_SAMPLES = 10
#: chain reach sweep: lengths 3..REACH_CAP, each within REACH_BUDGET_S seconds
REACH_CAP = 7
REACH_BUDGET_S = 3.0
#: operations per traced run (and per untraced run it is compared with)
TRACE_OPS = {"corpus": 3, "chain": 3, "rulesys": 2 * workloads.RULESYS_POOL}

LAYERS = ("formulas", "satcore", "kb", "engine", "axioms", "sdrs", "scenario", "runner")
#: public helpers cheaper than a span; their time stays in their caller's self time
LEAF_HELPERS = ("children", "sat_atomic", "conjuncts", "conj", "render_value")
#: KnowledgeBase methods that do work (the plain accessors are left alone)
KB_METHODS = (
    "assert_fact", "retract_fact", "add_hard_rule", "with_default", "with_constants",
    "entails", "consistent_with", "jointly_consistent_with", "nested_view",
)

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "ok_frac": "ratio",
    "peak_rss_mb": "MB",
    "reach_n": "utterances",
}


def _timed(name, kinds=("calls", "self_s")):
    units = {"calls": "count", "self_s": "s", "total_s": "s"}
    return {f"{name}.{k}": units[k] for k in kinds}


PER_LAYER = {
    **_timed("formulas.print_formula"),
    **_timed("formulas.is_ground"),
    **_timed("formulas.metavariables"),
    **_timed("formulas.free_variables"),
    "formulas.match.calls": "count",
    "formulas.instantiate.calls": "count",
    **_timed("satcore.satisfiable"),
    "satcore.atom_index.self_s": "s",
    **_timed("satcore.compile_program"),
    "satcore.vars_per_call.p50": "vars",
    "satcore.vars_per_call.max": "vars",
    "satcore.too_large": "count",
    **_timed("kb.assert_fact"),
    "kb.mirror_ratio": "ratio",
    "kb.entails.calls": "count",
    "kb.consistent_with.calls": "count",
    "kb.queries_per_store": "ratio",
    **_timed("engine.defeasible_closure"),
    "engine.rule_instances.calls": "count",
    "engine.candidate_instances": "count",
    "engine.fired_steps": "count",
    "engine.fire_ratio": "ratio",
    **_timed("engine.specificity"),
    "engine.holds.calls": "count",
    **_timed("engine.nonmon_yields", ("calls", "total_s")),
    **_timed("engine.abduce", ("calls", "total_s")),
    **_timed("axioms.isupport_holds", ("calls", "total_s")),
    "axioms.apply_support_relation.total_s": "s",
    "axioms.plan_apprehension.calls": "count",
    "sdrs.open_attachment_sites.calls": "count",
    "sdrs.attach.calls": "count",
    "sdrs.coherent.total_s": "s",
    "scenario.loads.total_s": "s",
    **_timed("runner.run_scenario"),
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.ops": "count",
    "trace.wall_s": "s",
    "trace.overhead_frac": "ratio",
}


# ---------------------------------------------------------------------- setup


def setup_once(name: str, seed: int, **kw):
    t0 = time.perf_counter()
    wl = workloads.setup(name, seed, ROOT, **kw)
    return wl, time.perf_counter() - t0


def setup_in_child(name: str, seed: int) -> float:
    """Set-up time in a fresh interpreter, so the import is measured again;
    it inherits this process's CPU pin."""
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--setup-only",
         "--workload", name, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(out.stdout.strip().splitlines()[-1])


# ------------------------------------------------------------------ execution


class Outcomes:
    """Attempted, correct and failed operations, with the reasons for failure."""

    def __init__(self):
        self.attempted = 0
        self.correct = 0
        self.reasons: dict[str, int] = {}

    def record(self, ok: bool, reason: str = "wrong output") -> None:
        self.attempted += 1
        if ok:
            self.correct += 1
        else:
            self.reasons[reason] = self.reasons.get(reason, 0) + 1

    @property
    def failed(self) -> int:
        return self.attempted - self.correct


def run_op(wl, check, k: int, outcomes: Outcomes) -> tuple[float, bool]:
    """Run input k (mod the pool), check the output outside the timed span."""
    idx = k % len(wl.inputs)
    t0 = time.perf_counter()
    try:
        out = wl.run(wl.inputs[idx])
    except Exception as exc:  # a failed operation is counted, not fatal
        dt = time.perf_counter() - t0
        outcomes.record(False, type(exc).__name__)
        return dt, False
    dt = time.perf_counter() - t0
    ok = bool(check(idx, out))
    outcomes.record(ok)
    return dt, ok


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples): the highest percentile that leaves at
    least TAIL_SAMPLES samples above it, or the maximum if there are fewer."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= TAIL_SAMPLES:
        return xs[-1], 100.0, n
    return xs[n - 1 - TAIL_SAMPLES], 100.0 * (n - TAIL_SAMPLES) / n, n


class BudgetExceeded(Exception):
    pass


def _alarm(signum, frame):
    raise BudgetExceeded()


def reach_sweep(seed: int, dicekit) -> tuple[int, str, float]:
    """(reach_n, what stopped the sweep, seconds the stopping probe took)."""
    previous = signal.signal(signal.SIGALRM, _alarm)
    try:
        for n in range(3, REACH_CAP + 1):
            scn = dicekit.loads(workloads.chain_texts(seed, 1, n)[0], f"reach{n}")
            t0 = time.perf_counter()
            signal.setitimer(signal.ITIMER_REAL, REACH_BUDGET_S)
            try:
                report = dicekit.run_scenario(scn)
                stop = None if workloads.check_chain(scn, report) else "wrong output"
            except BudgetExceeded:
                stop = f"over {REACH_BUDGET_S:g} s budget"
            except Exception as exc:  # the probe that fails ends the sweep
                stop = type(exc).__name__
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            if stop is not None:
                return n - 1, f"N={n}: {stop}", time.perf_counter() - t0
        return REACH_CAP, "cap reached", 0.0
    finally:
        signal.signal(signal.SIGALRM, previous)


def environment(dicekit) -> str:
    satcore = dicekit.satcore
    backend = getattr(satcore, "backend_name", None)
    kernel = backend() if callable(backend) else "single kernel"
    return f"python {platform.python_version()}, sat kernel: {kernel}"


def pin_to_current_cpu() -> int:
    """Pin this process to the CPU it runs on (field 39 of /proc/self/stat),
    so that the set-up interpreters it starts inherit the loop's CPU."""
    with open("/proc/self/stat", encoding="ascii") as fh:
        cpu = int(fh.read().rsplit(")", 1)[1].split()[36])
    os.sched_setaffinity(0, {cpu})
    return cpu


def interpreter_work() -> None:
    """Tuple keys, string formatting, small sorts and dict updates."""
    table: dict = {}
    for i in range(6000):
        key = ("p", i % 97, (i * 31) % 89)
        table[key] = table.get(key, 0) + len("(%s %d %d)" % key)
        triple = tuple(sorted((key[1], key[2], i % 5)))
        table[triple] = table.get(triple, 0) + 1


def bignum_work() -> None:
    """The bitwise arithmetic of a 22-variable truth table: 512-KiB integers,
    built one variable at a time so that only a few are alive at once."""
    n = 22
    width = 1 << n
    full = (1 << width) - 1
    acc, prev = full, None
    for i in range(n):
        unit = 1 << i
        mask = ((1 << unit) - 1) << unit
        span = unit << 1
        while span < width:
            mask |= mask << span
            span <<= 1
        if prev is not None:
            acc &= (full ^ prev) | mask
        prev = mask


#: calibration kernel per workload: the kind of work its operations spend most
#: of their time on (see the per-layer split in README.md)
CALIBRATION = {"corpus": interpreter_work, "chain": bignum_work, "rulesys": interpreter_work}
KERNELS = {k.__name__: k for k in (interpreter_work, bignum_work)}


def calibrate(kernel) -> float:
    """Seconds that kernel() takes; it never calls dicekit."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def serve_calibrations() -> int:
    """The helper's loop: time the kernel named on each line read, until EOF."""
    for line in sys.stdin:
        print(calibrate(KERNELS[line.strip()]), flush=True)
    return 0


class Calibrator:
    """A helper interpreter that times a calibration kernel on request.  It
    inherits this process's CPU pin, so it sees the host's speed on the loop's
    CPU, and it holds none of dicekit's objects, so nothing a change to
    dicekit does to the heap or caches of the measured process changes its
    timings."""

    def __init__(self, kernel):
        self.request = kernel.__name__ + "\n"
        self.proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--calibrator"],
            cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def __call__(self) -> float:
        self.proc.stdin.write(self.request)
        self.proc.stdin.flush()
        return float(self.proc.stdout.readline())

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def window_speed(ref: float, cal_before: float, cal_after: float) -> float:
    """The factor that scales a window's timings to the reference speed, at
    which the calibration takes ref seconds."""
    return ref / ((cal_before + cal_after) / 2)


def timed_loop(wl, check, seconds: float, outcomes: Outcomes, calibration, ref: float,
               between) -> tuple[list, list]:
    """Run operations for `seconds` seconds in windows bracketed by calls of
    calibration(), whose time at the reference speed is ref.  Returns
    (speed, latency, ok) per operation and the calibration times;
    between(speed) runs, untimed, SETUPS times at even intervals."""
    samples, cals = [], [calibration()]
    start = time.perf_counter()
    end = start + seconds
    setups_done = 0
    k = 1  # input 0 was the warm-up
    while True:
        window_end = time.perf_counter() + WINDOW_S
        window = []
        while True:
            window.append(run_op(wl, check, k, outcomes))
            k += 1
            if time.perf_counter() >= window_end:
                break
        cals.append(calibration())
        speed = window_speed(ref, cals[-2], cals[-1])
        samples += [(speed, dt, ok) for dt, ok in window]
        now = time.perf_counter()
        if now >= end:
            return samples, cals
        if setups_done < SETUPS and now >= start + (setups_done + 1) * seconds / (SETUPS + 1):
            between(ref / cals[-1])
            setups_done += 1


def end_to_end(args) -> tuple[Outcomes, dict]:
    wl, own_setup = setup_once(args.workload, args.seed)
    dicekit = sys.modules["dicekit"]
    check = wl.checker()
    outcomes = Outcomes()
    run_op(wl, check, 0, outcomes)  # warm-up: checked, not timed
    setups = []  # (speed, seconds)

    def measure_setup(speed):
        setups.append((speed, setup_in_child(args.workload, args.seed)))

    kernel = CALIBRATION[args.workload]
    ref = REF_CAL_S[kernel.__name__]
    with Calibrator(kernel) as calibrator:
        samples, cals = timed_loop(wl, check, args.seconds, outcomes, calibrator, ref, measure_setup)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    reach_n, stopped, probe_s = reach_sweep(args.seed, dicekit)

    scaled = [dt * speed for speed, dt, _ in samples]
    raw = [dt for _, dt, _ in samples]
    good = sum(ok for _, _, ok in samples)
    tail_ms, tail_pct, n = tail(scaled)
    metrics = {
        "setup_s": statistics.median(t * speed for speed, t in setups),
        "ops_per_s": good / sum(scaled),
        "latency_p50_ms": statistics.median(scaled) * 1e3,
        "latency_tail_ms": tail_ms * 1e3,
        "ok_frac": outcomes.correct / outcomes.attempted,
        "peak_rss_mb": peak_rss_mb,
        "reach_n": reach_n,
    }
    print(f"# {environment(dicekit)}")
    print(f"# workload {args.workload}, seed {args.seed} (default {DEFAULT_SEED},"
          f" held out {HELD_OUT_SEED}), closed loop, one client")
    print(f"# {n} timed operations; tail is p{tail_pct:.1f} with {min(n, TAIL_SAMPLES)}"
          f" samples above it; {len(cals)} calibrations by {kernel.__name__}:"
          f" median {statistics.median(cals) * 1e3:.2f} ms (reference {ref * 1e3:g} ms),"
          f" range {min(cals) * 1e3:.2f}-{max(cals) * 1e3:.2f} ms")
    print(f"# unscaled: p50 {statistics.median(raw) * 1e3:.3f} ms, tail {tail(raw)[0] * 1e3:.3f} ms,"
          f" {good / sum(raw):.4f} ops/s; set-up {own_setup:.4f} s in this process, unscaled in"
          f" fresh ones {', '.join(f'{t:.4f}' for _, t in setups)} s")
    print(f"# reach sweep stopped at {stopped} after {probe_s:.2f} s")
    if outcomes.reasons:
        print(f"# failures: {outcomes.reasons}")
    return outcomes, {k: (v, END_TO_END[k]) for k, v in metrics.items()}


# -------------------------------------------------------------------- tracing


class LayerCounters:
    """Counts taken from wrapped calls' arguments and results."""

    def __init__(self):
        self.vars_per_call: list[int] = []
        self.candidates = 0
        self.fired = 0
        self.outer_asserts = 0
        self.literals_stored = 0
        self.store_queries = 0
        self.stores: dict[int, object] = {}  # id -> store, kept alive so ids stay unique

    def observers(self) -> dict:
        def atom_index(args, kwargs, result, outermost):
            self.vars_per_call.append(len(result))

        def rule_instances(args, kwargs, result, outermost):
            self.candidates += len(result)

        def closure(args, kwargs, result, outermost):
            self.fired += len(result.steps)

        def assert_fact(args, kwargs, result, outermost):
            if outermost:
                self.outer_asserts += 1
                self.literals_stored += _facts(result) - _facts(args[0])

        def query(args, kwargs, result, outermost):
            self._queried(args[0].store_at(args[1]))

        def joint(args, kwargs, result, outermost):
            kb = args[0]
            for path in ((),) + tuple(kb.root_consistency_paths):
                self._queried(kb.store_at(path))

        return {
            "satcore.atom_index": atom_index,
            "engine.rule_instances": rule_instances,
            "engine.defeasible_closure": closure,
            "kb.assert_fact": assert_fact,
            "kb.entails": query,
            "kb.consistent_with": query,
            "kb.jointly_consistent_with": joint,
        }

    def _queried(self, store) -> None:
        self.store_queries += 1
        self.stores.setdefault(id(store), store)


def _facts(kb) -> int:
    return sum(len(s.facts) for s in kb.stores.values())


def bind_layers(tracer: tracing.Tracer, dicekit, counters: LayerCounters) -> None:
    functions = {}
    for layer in LAYERS:
        functions.update(tracing.public_functions(getattr(dicekit, layer), LEAF_HELPERS))
    kb_cls = dicekit.KnowledgeBase
    methods = {f"kb.{m}": (kb_cls, m) for m in KB_METHODS if m in kb_cls.__dict__}
    tracer.bind("dicekit", functions, methods, counters.observers())


def per_layer(args) -> tuple[Outcomes, dict]:
    counters = LayerCounters()
    tracer = tracing.Tracer()

    def hook(dicekit):
        bind_layers(tracer, dicekit, counters)
        tracer.install()

    try:
        wl, _ = setup_once(args.workload, args.seed, tracer_hook=hook)
    finally:
        tracer.uninstall()
    check = wl.checker()
    outcomes = Outcomes()
    run_op(wl, check, 0, outcomes)  # warm-up
    n_ops = TRACE_OPS[args.workload]
    untraced = sum(run_op(wl, check, k, outcomes)[0] for k in range(1, n_ops + 1))
    with tracer:
        traced = sum(run_op(wl, check, k, outcomes)[0] for k in range(1, n_ops + 1))

    stats = tracer.stats
    values = {}
    for metric in PER_LAYER:
        name, _, field = metric.rpartition(".")
        if field in ("calls", "self_s", "total_s") and name in stats:
            values[metric] = getattr(stats[name], field)
    for layer in LAYERS:
        values[f"{layer}.self_s"] = sum(
            s.self_s for n, s in stats.items() if n.startswith(layer + "."))
    candidates = counters.candidates
    values.update({
        "satcore.vars_per_call.p50": statistics.median(counters.vars_per_call or [0]),
        "satcore.vars_per_call.max": max(counters.vars_per_call, default=0),
        "satcore.too_large": sum(
            s.errors.get("SatTooLarge", 0) for n, s in stats.items() if n.startswith("satcore.")),
        "kb.mirror_ratio": counters.literals_stored / max(1, counters.outer_asserts),
        "kb.queries_per_store": counters.store_queries / max(1, len(counters.stores)),
        "engine.candidate_instances": candidates,
        "engine.fired_steps": counters.fired,
        "engine.fire_ratio": counters.fired / max(1, candidates),
        "trace.ops": n_ops,
        "trace.wall_s": traced,
        "trace.overhead_frac": traced / untraced - 1.0,
    })
    os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
    spans_path = os.path.join(ROOT, ".perfbench", f"spans-{args.workload}-{args.seed}.json.gz")
    tracer.write_spans(spans_path)
    print(f"# {environment(sys.modules['dicekit'])}")
    print(f"# workload {args.workload}, seed {args.seed}: set-up parsing plus {n_ops} operations"
          f" traced ({len(tracer.span_id)} spans, {os.path.relpath(spans_path, ROOT)});"
          f" untraced {untraced:.3f} s, traced {traced:.3f} s")
    if outcomes.reasons:
        print(f"# failures: {outcomes.reasons}")
    return outcomes, {m: (values.get(m, 0), unit) for m, unit in PER_LAYER.items()}


# ----------------------------------------------------------------------- main


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="print this interpreter's set-up time and exit")
    argv = sys.argv[1:] if argv is None else argv
    if argv == ["--calibrator"]:  # the helper that `Calibrator` starts
        return serve_calibrations()
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "dicekit", "__init__.py")):
        print(f"no dicekit sources under {src}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, src)

    if args.setup_only:
        print(setup_once(args.workload, args.seed)[1])
        return 0
    nproc = len(os.sched_getaffinity(0))
    print(f"# nproc {nproc}; pinned to CPU {pin_to_current_cpu()}")
    outcomes, metrics = per_layer(args) if args.trace else end_to_end(args)
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:8s} {name:40s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": outcomes.failed == 0,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
