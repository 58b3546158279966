"""The genlambda benchmark: one workload per run, outputs checked by an
independent oracle, one JSON result object on the last line of stdout.

    python3 perfbench/run.py --workload build-n7 --seed 1 --seconds 10 --trace 0

Each workload has a main phase, which does nearly all of its work, and two
small probe phases, so that every run reports every end-to-end metric:

  workload     main phase (metric)                      probes
  build-n7     cold minpoly.build_F(7) (build_s)        certify F(4), values
  certify-n7   parse F(7), 16 certificates (certify_s)  build F(4), values
  values       eval_lambda_numeric over the transver-   build F(4), certify F(4)
               sals of N = 3, 4, 5, 7, 8, 9 at CM and
               seeded points, unit_circle_check
               (evals_per_s)

Everything is single-process (threads=1), with no disk cache. Every build
and certify main round starts from cold caches. The main phase runs whole
rounds until --seconds of measured time have passed (at least one round,
six for values); probe rounds interrupt it on a timer and run after it
(see Probes).
With --trace 0 the run reports the end-to-end metrics; with --trace 1 it
wraps genlambda's public functions (tracer.py), reports the per-layer
metrics and writes the spans under perfbench/results/. Exit code 0 with a
result line; 2 on a usage error; 1 when genlambda's sources are missing.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import gzip
import json
import os
import random
import resource
import signal
import statistics
import sys
import time

_T0 = time.perf_counter()
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
DATA = os.path.join(HERE, "data")

# Set in main(): genlambda's modules by short name, and the benchmark's own
# modules, which are imported after the set-up time is taken.
PROGRAM: dict = {}
checks = oracle = tracer = None


def process_age() -> float:
    """Seconds since this process started, from the kernel's start time
    (10 ms resolution); time since this file began to run where /proc is
    not available."""
    try:
        with open("/proc/self/stat", encoding="ascii") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        start = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        return time.clock_gettime(time.CLOCK_BOOTTIME) - start
    except (OSError, ValueError, IndexError):
        return time.perf_counter() - _T0


def import_program() -> dict:
    """genlambda from this checkout's sources, never from an installed copy."""
    if not os.path.isdir(os.path.join(SRC, "genlambda")):
        sys.exit(f"run.py: no genlambda sources under {SRC}")
    sys.path.insert(0, SRC)
    os.environ.pop("GENLAMBDA_CACHE_DIR", None)
    import genlambda
    from genlambda import cmval, cyclotomic, forms, lam, minpoly, modgroup, polyk, qseries

    if not os.path.abspath(genlambda.__file__).startswith(SRC + os.sep):
        sys.exit(f"run.py: genlambda imported from {genlambda.__file__}, not {SRC}")
    return {
        "cmval": cmval, "cyclotomic": cyclotomic, "forms": forms, "lam": lam,
        "minpoly": minpoly, "modgroup": modgroup, "polyk": polyk, "qseries": qseries,
    }


def cold():
    """Empty the program's in-process memo and function caches, so that
    every round does the work of a fresh process."""
    for module in PROGRAM.values():
        for value in list(vars(module).values()):
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()
    clear_memo()


def clear_memo():
    """Forget built polynomials, so that build_F builds again."""
    getattr(PROGRAM["minpoly"], "_MEMO", {}).clear()


MAIN_LEVEL = 7
PROBE_LEVEL = 4
VALUE_LEVELS = (3, 4, 5, 7, 8, 9)
PROBE_VALUE_LEVELS = (3, 4, 5)
# main-phase seconds between two probe rounds, so that each probe gets 20 to
# 30 rounds in a run and the probes add about a fifth to a run's time
PROBE_GAP_S = {"build-n7": 1.0, "certify-n7": 0.3, "values": 0.4}
PROBE_MIN_ROUNDS = 5  # rounds of each probe in every run
RANDOM_POINTS = 16  # random tau per values round, one per stratum of Im tau
VALUE_MIN_ROUNDS = 6  # a values round takes 3-4 s; 6 span the host's speed states
UNIT_ANGLES = 4  # angles per level for unit_circle_check


class Run:
    """State of one benchmark run: operation counts and check outcome."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.rng = random.Random(f"{workload}:{seed}")
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.notes: list[str] = []

    def require(self, ok: bool, what: str):
        if not ok:
            self.problems.append(what)

    def attempt(self, what: str, call, ops: int = 1):
        """Count `ops` operations; a call that raises counts them as failed."""
        self.attempted += ops
        try:
            return call()
        except Exception as exc:  # a failed operation is counted, not fatal
            self.failed += ops
            self.notes.append(f"{what} raised {exc!r}")
            return None


class Phase:
    """A unit of work measured in whole rounds, with the check of its output.

    `one_round()` returns the round's output and the number of operations
    it attempted. `check(output)` checks the output of the first round.
    """

    def __init__(self, metric: str, one_round, check, reset=cold, min_rounds=1):
        self.metric = metric
        self.one_round = one_round
        self.check = check
        self.reset = reset  # runs before every round, untimed
        self.min_rounds = min_rounds
        self.round_s: list[float] = []
        self.round_ops: list[int] = []
        self.first = None

    def measure(self, seconds: float = 0.0, probes: "Probes | None" = None):
        """Run rounds until `seconds` of measured time and `min_rounds`
        rounds. With `probes`, probe rounds interrupt every round on a
        timer, and their time is not counted in it."""
        while True:
            self.reset()
            spent = probes.spent if probes else 0.0
            with probes.timer() if probes else contextlib.nullcontext():
                t0 = time.perf_counter()
                out, ops = self.one_round()
            elapsed = time.perf_counter() - t0
            self.round_s.append(elapsed - ((probes.spent - spent) if probes else 0.0))
            self.round_ops.append(ops)
            if self.first is None:
                self.first = out
            if sum(self.round_s) >= seconds and len(self.round_s) >= self.min_rounds:
                return

    def value(self) -> float:
        """The mean of the middle half of the rounds: round times, or
        evaluations per second for evals_per_s. Rounds spread over the whole
        run, so the mean follows the share of the run that the host spent in
        each speed state, where a median would jump to one state's figure."""
        if self.metric == "evals_per_s":
            return middle_mean([n / t for n, t in zip(self.round_ops, self.round_s)])
        return middle_mean(self.round_s)


def middle_mean(values: list[float]) -> float:
    """Mean of the values between the first and the third quartile, ends
    included: a quarter of the values is dropped from each end."""
    values = sorted(values)
    k = len(values) // 4
    return statistics.fmean(values[k:len(values) - k])


class Probes:
    """The probe rounds of a run, spread evenly over its main phase.

    Host speed on the reference machine drifts by up to 1.5 times within
    seconds, so a probe timed in one short window, or at the few places
    where the program's calls return, would inherit whatever speed that
    window had. Instead a timer (SIGALRM) interrupts the main phase after
    every `gap` seconds of its own time. The handler runs the next probe
    round, taking the probes in turn, between two bytecodes of the main
    phase, and sets the timer again. The main phase's clock excludes the
    probe rounds (`spent`). After the main phase, each probe runs until it
    has PROBE_MIN_ROUNDS rounds.

    Probe rounds only forget built polynomials: clearing the series caches
    could change the work of a main round they interrupt. So each probe
    first runs one untimed round that fills its caches, and every timed
    round starts warm. Probe rounds run with the cyclic garbage collector
    off: a collection over the main phase's live objects takes about as
    long as a probe round.
    """

    def __init__(self, probes: list[Phase], gap: float, on_phase=None):
        self.probes = probes
        self.gap = gap
        self.on_phase = on_phase or (lambda name: None)
        self.turn = 0
        self.armed = False
        self.busy = False
        self.spent = 0.0  # seconds of probe rounds run from the timer

    def run_one(self, phase: Phase):
        self.busy = True
        self.on_phase("probe")
        collecting = gc.isenabled()
        gc.disable()
        try:
            if not phase.round_s:  # the untimed round that fills the caches
                phase.reset()
                phase.first, _ = phase.one_round()
            phase.measure()
        finally:
            if collecting:
                gc.enable()
            self.on_phase("main")
            self.busy = False

    def _tick(self, signum, frame):
        if self.armed and not self.busy:
            t = time.perf_counter()
            self.run_one(self.probes[self.turn % len(self.probes)])
            self.turn += 1
            self.spent += time.perf_counter() - t
            if self.armed:
                signal.setitimer(signal.ITIMER_REAL, self.gap)

    @contextlib.contextmanager
    def timer(self):
        """Run a probe round after every `gap` seconds of the block's own
        time. A tick that arrives after the block has ended runs nothing."""
        previous = signal.signal(signal.SIGALRM, self._tick)
        self.armed = True
        signal.setitimer(signal.ITIMER_REAL, self.gap)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            self.armed = False
            signal.signal(signal.SIGALRM, previous)

    def finish(self):
        for phase in self.probes:
            while len(phase.round_s) < PROBE_MIN_ROUNDS:
                self.run_one(phase)


# ---------------------------------------------------------------------------
# phases
# ---------------------------------------------------------------------------


def read_input(n: int) -> str:
    with gzip.open(os.path.join(DATA, f"F{n}.json.gz"), "rt", encoding="utf-8") as fh:
        return fh.read()


def build_phase(run: Run, n: int, reset=cold) -> Phase:
    """One build_F(n), self-check included; the oracle checks F."""
    minpoly = PROGRAM["minpoly"]

    def one_round():
        return run.attempt(f"build_F({n})", lambda: minpoly.build_F(n, threads=1)), 1

    def check(F):
        if F is not None:
            checks.check_F(run, oracle.BivariateF(F.to_json_obj()), n, f"built F({n})")

    return Phase("build_s", one_round, check, reset)


def certify_phase(run: Run, n: int, reset=cold) -> Phase:
    """Parse F(n) from its committed JSON and run the 16 certificates. The
    input passes the oracle's check of F before any timing."""
    minpoly = PROGRAM["minpoly"]
    text = read_input(n)
    input_F = oracle.BivariateF(json.loads(text))
    checks.check_F(run, input_F, n, f"input F({n})")
    y_values = [0, 1728] + [y for (_, y) in checks.CM_POINTS]

    def one_round():
        F = run.attempt(f"parse F({n})", lambda: minpoly.BivarPoly.from_json_obj(json.loads(text)),
                        ops=0)
        calls = [
            ("check_root_identity", lambda: minpoly.check_root_identity(F)),
            ("verify_theorem1", lambda: minpoly.verify_theorem1(F)),
            ("q0_structure", lambda: minpoly.q0_structure(F)),
        ] + [(f"specialize y={y}", lambda y=y: minpoly.specialize_and_factor(F, y))
             for y in y_values]
        outputs = {}
        for name, call in calls:
            out = run.attempt(name, call)
            if out is not None:
                outputs[name] = out
        return outputs, len(calls)

    def check(outputs):
        checks.check_certificates(run, input_F, outputs, y_values)

    return Phase("certify_s", one_round, check, reset)


def cm_points() -> list[tuple[str, complex]]:
    pts = [(f"(1+sqrt(-{m}))/2", complex(0.5, m**0.5 / 2)) for m in (3, 7, 11, 19, 43, 67, 163)]
    return pts + [("i", 1j), ("sqrt(-2)", complex(0, 2**0.5))]


def random_points(rng: random.Random) -> list[tuple[str, complex]]:
    """One random tau per stratum of Im tau in [0.8, 1.5], so that every
    seed costs about the same."""
    width = 0.7 / RANDOM_POINTS
    return [(f"random {k}", complex(rng.uniform(-0.5, 0.5), 0.8 + width * (k + rng.random())))
            for k in range(RANDOM_POINTS)]


def values_phase(run: Run, points, levels, unit_circle: bool, reset=cold,
                 min_rounds=1) -> Phase:
    """eval_lambda_numeric for every A in transversal(N), N in `levels`, at
    every point; with `unit_circle`, also unit_circle_check for each N."""
    cmval, modgroup = PROGRAM["cmval"], PROGRAM["modgroup"]
    mats = {n: [r.matrix for r in modgroup.transversal(n)] for n in levels}
    angles = {n: sorted(run.rng.uniform(0.93, 2.21) for _ in range(UNIT_ANGLES))
              for n in levels} if unit_circle else {}

    def one_round():
        values, reports, ops = {}, {}, 0
        for label, tau in points:
            for n in levels:
                values[(label, n)] = [
                    run.attempt(f"eval at {label}, N={n}",
                                lambda m=m: cmval.eval_lambda_numeric(m, n, tau))
                    for m in mats[n]]
                ops += len(mats[n])
        for n, thetas in angles.items():
            reports[n] = run.attempt(f"unit_circle_check({n})",
                                     lambda: cmval.unit_circle_check(n, thetas), ops=len(thetas))
            ops += len(thetas)
        return (values, reports), ops

    def evaluate_identity(n, tau):
        return cmval.eval_lambda_numeric(modgroup.SL2Mat.identity(n), n, tau)

    def check(output):
        values, reports = output
        checks.check_values(run, points, mats, values)
        checks.check_unit_circle(run, evaluate_identity, angles, reports)

    return Phase("evals_per_s", one_round, check, reset, min_rounds)


def workload_phases(run: Run) -> tuple[Phase, list[Phase]]:
    """The main phase and the probes."""
    def build():
        return build_phase(run, PROBE_LEVEL, reset=clear_memo)

    def certify():
        return certify_phase(run, PROBE_LEVEL, reset=clear_memo)

    def values():
        return values_phase(run, cm_points(), PROBE_VALUE_LEVELS, False, reset=clear_memo)

    if run.workload == "build-n7":
        return build_phase(run, MAIN_LEVEL), [certify(), values()]
    if run.workload == "certify-n7":
        return certify_phase(run, MAIN_LEVEL), [build(), values()]
    # the numeric layer keeps no caches, so its rounds need only forget built
    # polynomials, and the probes' caches stay warm between them
    main = values_phase(run, cm_points() + random_points(run.rng), VALUE_LEVELS, True,
                        reset=clear_memo, min_rounds=VALUE_MIN_ROUNDS)
    return main, [build(), certify()]


WORKLOADS = ("build-n7", "certify-n7", "values")


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def _metric(value, unit):
    return {"value": value, "unit": unit}


UNITS = {"build_s": "s", "certify_s": "s", "evals_per_s": "1/s"}


def end_to_end(phases: list[Phase], setup_s: float, peak_kib: int) -> dict:
    out = {"setup_s": _metric(setup_s, "s")}
    for phase in sorted(phases, key=lambda p: p.metric):
        out[phase.metric] = _metric(phase.value(), UNITS[phase.metric])
    out["peak_rss_mb"] = _metric(peak_kib / 1024, "MiB")
    return out


def _untraced_log(workload: str) -> str:
    return os.path.join(RESULTS, f"{workload}.untraced.jsonl")


def untraced_reference(run: Run, main: Phase) -> float:
    """Median untraced round time of the main phase: from this checkout's
    untraced runs of the workload if there are any, else from an untraced
    main phase run here first."""
    try:
        with open(_untraced_log(run.workload), encoding="utf-8") as fh:
            times = [json.loads(line)["round_s"] for line in fh if line.strip()]
    except (OSError, ValueError, KeyError):
        times = []
    if times:
        run.notes.append(f"untraced reference: median of {len(times)} earlier runs")
        return statistics.median(times)
    run.notes.append("untraced reference: an untraced main phase in this process")
    saved = (run.attempted, run.failed)
    main.measure()
    run.attempted, run.failed = saved
    ref = statistics.median(main.round_s)
    main.round_s, main.round_ops = [], []
    return ref


PER_LAYER_SPANS = [
    ("qseries.xpoly_mul.leaf", ("calls", "s", "pairs")),
    ("qseries.xpoly_mul.tree", ("calls", "s", "pairs")),
    ("qseries.xpoly_mul.series", ("calls", "s", "pairs")),
    ("qseries.inverse", ("calls", "s")),
    ("qseries.twist", ("calls", "s")),
    ("lam.lambda_series", ("calls", "s")),
    ("forms.e_series", ("calls", "s")),
    ("forms.j_series", ("calls", "s")),
    ("minpoly.check_root_identity", ("s",)),
    ("minpoly.build_F", ("self_s",)),
    ("minpoly.verify_theorem1", ("s",)),
    ("minpoly.q0_structure", ("s",)),
    ("minpoly.specialize.power", ("s",)),
    ("minpoly.specialize.squarefree", ("s",)),
    ("polyk.nth_root_monic", ("calls", "s")),
    ("polyk.ppow", ("calls", "s")),
    ("polyk.peval", ("calls", "s")),
    ("polyk.squarefree_certificate", ("calls", "s")),
    ("cmval.eval_lambda_numeric", ("calls", "s")),
]
PER_LAYER_COUNTERS = ["cyclotomic.mul", "cyclotomic.inv", "cmval.eval_e_numeric"]


def _traced_name(metric_name: str) -> str:
    """The tracer.SPANS or tracer.COUNTERS key that a layer name belongs to."""
    for key in (*tracer.SPANS, *tracer.COUNTERS):
        if metric_name == key or metric_name.startswith(key + "."):
            return key
    return metric_name


def per_layer(rec, overhead: float) -> tuple[dict, list[str]]:
    """The per-layer metrics over the whole traced run, and the layers that
    the main phase never called. Metrics of absent functions are left out."""
    absent = set(rec.absent)
    totals, main_totals = rec.totals(), rec.totals("main")
    out, idle = {}, []
    for name, fields in PER_LAYER_SPANS:
        if _traced_name(name) in absent:
            continue
        calls, incl, self_s = totals.get(name, (0, 0.0, 0.0))
        if name not in main_totals:
            idle.append(name)
        for f in fields:
            if f == "calls":
                out[f"{name}.calls"] = _metric(calls, "count")
            elif f == "s":
                out[f"{name}.s"] = _metric(incl, "s")
            elif f == "self_s":
                out[f"{name}.self_s"] = _metric(self_s, "s")
            else:
                out[f"{name}.pairs"] = _metric(rec.count(f"{name}.pairs"), "count")
    if "qseries.xpoly_mul" not in absent:
        out["qseries.xpoly_mul.max_operand_bits"] = _metric(rec.max_bits, "bits")
    for name in PER_LAYER_COUNTERS:
        if name in absent:
            continue
        if rec.count(f"{name}.calls", "main") == 0:
            idle.append(name)
        out[f"{name}.calls"] = _metric(rec.count(f"{name}.calls"), "count")
    out["trace.overhead_s"] = _metric(overhead, "s")
    return out, idle


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return ap.parse_args(argv)


def main(argv=None) -> int:
    global checks, oracle, tracer
    args = parse_args(argv)
    PROGRAM.update(import_program())
    setup_s = process_age()
    sys.path.insert(0, HERE)
    import checks
    import oracle
    import tracer

    run = Run(args.workload, args.seed)
    main_phase, probes = workload_phases(run)
    phases = [main_phase] + probes
    os.makedirs(RESULTS, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    rec = tracer.Recorder() if args.trace else None
    schedule = Probes(probes, PROBE_GAP_S[args.workload], on_phase=(lambda name: setattr(rec, "phase", name)) if rec else None)
    if rec is not None:
        reference = untraced_reference(run, main_phase)
    with rec.installed(PROGRAM) if rec is not None else contextlib.nullcontext():
        # a traced main phase runs no probe rounds inside it, so that they
        # never run inside its spans
        main_phase.measure(args.seconds, probes=None if rec else schedule)
        schedule.finish()
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    for phase in phases:
        phase.check(phase.first)
    main_round_s = statistics.median(main_phase.round_s)
    if rec is not None:
        metrics, idle = per_layer(rec, main_round_s - reference)
        rec.write(os.path.join(RESULTS, f"trace-{tag}.jsonl"),
                  {"workload": args.workload, "seed": args.seed, "absent": rec.absent,
                   "missing_bindings": rec.missing, "idle_in_main_phase": idle,
                   "main_round_s": main_phase.round_s, "untraced_round_s": reference})
        print(f"functions absent from the program: {', '.join(rec.absent) or 'none'}")
        print(f"layers the main phase never called: {', '.join(idle) or 'none'}")
    else:
        metrics = end_to_end(phases, setup_s, peak_kib)
        with open(_untraced_log(args.workload), "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"seed": args.seed, "round_s": main_round_s}) + "\n")

    for note in run.notes:
        print(f"note: {note}")
    for problem in run.problems:
        print(f"CHECK FAILED: {problem}")
    result = {"correct": not run.problems, "attempted": run.attempted,
              "failed": run.failed, "metrics": metrics}
    with open(os.path.join(RESULTS, f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump({"main_round_s": main_phase.round_s,
                   "probe_round_s": {p.metric: p.round_s for p in probes}, **result}, fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
