"""ionqsim benchmark: one workload per run, end-to-end or traced.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root; the library is imported from ./src.
Workloads (why each exists is in BENCHMARK.json):

  estimate-self    mean_fidelity_experiment, self-learning, N = 12
  chain-long       spin_spin_couplings for N in 10, 40, 60, 100, 150, 200
  cli-readme       the README CLI examples, one process per call

With --trace 0 the last line of standard output is a JSON object whose
metrics are the `end_to_end` entries of BENCHMARK.json.  Their times are
given at a nominal host speed: a fixed calibration kernel (calib.py) is
timed between ops and after each set-up, and each time is scaled by it,
so that the drift of a shared host cancels; the raw wall-clock figures
are in the report and the record.  With --trace 1
they are the `per_layer` entries, measured by wrapping the library's
public functions in spans (spans.py).  Earlier lines give a readable
report.  The full record (host, checks, digests, start-up breakdown) is
written to perfbench/results/.
"""

import argparse
import json
import os
import platform
import re
import signal
import statistics
import subprocess
import sys
import time

BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "GOTO_NUM_THREADS")
# One BLAS thread in this process and every worker and CLI child: on a
# small shared host, extra BLAS threads spin and contend, and make op
# times erratic (N = 100 chain solves took 2-3.5x longer with two).
os.environ.update(dict.fromkeys(BLAS_ENV, "1"))

import calib  # noqa: E402  (numpy reads the thread count when it loads)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
WORKER = os.path.join(HERE, "worker.py")

SETUP_SAMPLES = 3          # set-ups per run; setup_s is their median
IMPORT_SAMPLES = 3         # `python -X importtime` runs per traced run
WINDOW_S = 2.0             # end-to-end figures are medians over windows this long
DEADLINE_S = 170.0         # a run must end within 180 s

# Spans or per-layer metrics that must be nonzero in a traced run of each
# workload; a zero means a rename or move made the wrappers miss calls.
COVERAGE = {
    "estimate-self": [
        "estimation.mean_fidelity_experiment", "estimation.run_estimation",
        "estimation.uniform_prior", "estimation.bayes_update",
        "estimation.optimal_next_direction", "estimation.moments",
        "sphere.maximize_on_sphere", "sphere.fibonacci_sphere",
        "sphere.maximize_on_sphere.dirs_evaluated", "sphere.grid_nodes"],
    "chain-long": [
        "ionchain.spin_spin_couplings", "ionchain.equilibrium_positions",
        "ionchain.normal_modes", "ionchain.couplings"] + [
        f"ionchain.equilibrium_positions.n{n}_ms" for n in (10, 40, 60, 100, 150, 200)],
    "cli-readme": [
        "cli.main", "cli.run", "bloch.rabi_excitation_probability",
        "bloch.ramsey_probability", "zeno.simulate_fractionated_pi",
        "zeno.simulate_alternating", "zeno.run_length_distribution",
        "channels.channel_from_spec", "channels.tomography_sampled",
        "ionchain.spin_spin_couplings", "ionchain.equilibrium_positions",
        "ionchain.normal_modes", "ionchain.couplings",
        "zeno.simulate_alternating.pairs", "cli.artifact_bytes",
        "ionchain.equilibrium_positions.n10_ms"],
}
# Per-layer metrics that are counters kept by the span hooks, per round.
COUNTERS = ("sphere.maximize_on_sphere.dirs_evaluated", "zeno.simulate_alternating.pairs",
            "cli.artifact_bytes")


class BenchError(RuntimeError):
    pass


def child_env():
    paths = [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(paths))


def remaining(start):
    left = DEADLINE_S - (time.perf_counter() - start)
    if left <= 1.0:
        raise BenchError("out of time")
    return left


def run_worker(args, mode, start):
    command = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--mode", mode,
               "--run-id", f"{args.workload}-seed{args.seed}"]
    with subprocess.Popen(command, env=child_env(), stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True) as proc:
        try:
            stdout, stderr = proc.communicate(timeout=remaining(start))
        except BaseException:
            # SIGTERM first, so the worker stops its own CLI child and
            # removes its scratch directory before it exits.
            proc.terminate()
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
            raise
    if proc.returncode != 0:
        raise BenchError(f"worker ({mode}) exited {proc.returncode}: {stderr[-2000:]}")
    return json.loads(stdout.strip().splitlines()[-1])


def cli_version_seconds(start):
    """Wall time of one `python -m ionqsim.cli --version`, at nominal host speed."""
    before = calib.median_sample(calib.STEP_SAMPLES)
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "ionqsim.cli", "--version"], env=child_env(),
                          capture_output=True, text=True, timeout=remaining(start))
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0 or not proc.stdout.startswith("ionqsim"):
        raise BenchError(f"--version failed ({proc.returncode}): {proc.stderr[-2000:]}")
    return elapsed * calib.scale(before, calib.median_sample(calib.STEP_SAMPLES))


def import_breakdown(start):
    """Median cumulative import time (ms) per module of `import ionqsim.cli`.

    `scipy` sums every scipy import whose importer is not itself a scipy
    module (scipy loads `scipy.stats` lazily, so it has no single line).
    """
    samples = []
    for _ in range(IMPORT_SAMPLES):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import ionqsim.cli"],
                              env=child_env(), capture_output=True, text=True,
                              timeout=remaining(start))
        if proc.returncode != 0:
            raise BenchError(f"import ionqsim.cli failed: {proc.stderr[-2000:]}")
        lines = []
        for line in proc.stderr.splitlines():
            match = re.match(r"import time:\s+\d+ \|\s+(\d+) \|( +)(\S+)", line)
            if match:
                lines.append((len(match.group(2)), int(match.group(1)) / 1e3, match.group(3)))
        cumulative = {name: ms for _, ms, name in lines}
        # Children are printed before their importer: walking backwards, a
        # line's importer is the nearest earlier-seen line with less indent.
        ancestors, scipy_ms = [], 0.0
        for indent, ms, name in reversed(lines):
            while ancestors and ancestors[-1][0] >= indent:
                ancestors.pop()
            importer = ancestors[-1][1] if ancestors else ""
            if name.split(".")[0] == "scipy" and importer.split(".")[0] != "scipy":
                scipy_ms += ms
            ancestors.append((indent, name))
        cumulative["scipy (all)"] = scipy_ms
        samples.append(cumulative)
    keep = ["numpy", "scipy (all)", "ionqsim.cli"] + sorted(
        name for name in samples[0] if name.startswith("ionqsim."))
    return {name: statistics.median(s.get(name, 0.0) for s in samples)
            for name in dict.fromkeys(keep)}


def git_commit():
    """The checked-out commit, read from .git without leaving the repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def steal_seconds():
    """CPU time the hypervisor gave to other guests, summed over CPUs."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def host_record(args, worker_host, steal_at_start):
    steal = steal_seconds()
    return dict(worker_host, nproc=os.cpu_count(), cpus_usable=len(os.sched_getaffinity(0)),
                python=sys.version.split()[0], platform=platform.platform(),
                blas_env={k: os.environ.get(k) for k in BLAS_ENV},
                steal_s_during_run=None if steal is None or steal_at_start is None
                else steal - steal_at_start,
                seed=args.seed, seconds=args.seconds, trace=args.trace, commit=git_commit())


def windows(rounds):
    """Consecutive whole rounds grouped into windows of at least WINDOW_S of op time."""
    left = op_seconds(rounds)
    current = []
    for record in rounds:
        current.append(record)
        left -= op_seconds([record])
        if op_seconds(current) >= WINDOW_S and left >= WINDOW_S:
            yield current
            current = []
    if current:
        yield current


def op_seconds(rounds):
    return sum(op[0] for r in rounds for op in r["ops"])


def p90(values):
    return statistics.quantiles(values, n=10, method="inclusive")[8] if len(values) > 1 \
        else values[0]


def phase_figures(phase):
    """Completed ops per second (median over windows), p50 and p90 latency.

    Each op's latency is scaled to the nominal host speed by the
    calibration samples taken just before and just after it (calib.py),
    so the host's drift cancels; calibration time is not op time.  The
    median over windows keeps a short slow spell from moving the rate.
    """
    cal = phase["cal"]
    rates, raw_rates, done = [], [], []
    for rounds in windows(phase["rounds"]):
        ops = [(latency * calib.scale(cal[i], cal[i + 1]), latency, ok)
               for r in rounds for latency, ok, i in r["ops"]]
        completed = [nominal for nominal, _, ok in ops if ok]
        done.extend(completed)
        rates.append(len(completed) / sum(nominal for nominal, _, _ in ops))
        raw_rates.append(len(completed) / sum(latency for _, latency, _ in ops))
    if not done:
        raise BenchError("no op completed")
    return {"ops_per_s": statistics.median(rates), "p50_s": statistics.median(done),
            "p90_s": p90(done), "window_rates": rates, "window_rates_wall": raw_rates,
            "host_slowness": [c / (calib.REFERENCE_MS * 1e-3) for c in cal]}


def op_counts(phase):
    ops = [ok for r in phase["rounds"] for _, ok, _ in r["ops"]]
    return len(ops), sum(ops)


def end_to_end(result, setup):
    phase = result["phases"][0]
    figures = phase_figures(phase)
    attempted, completed = op_counts(phase)
    ok = completed - result["failed_checks"]
    values = {
        "setup_s": statistics.median(setup),
        "ops_per_s": figures["ops_per_s"],
        "op_p50_ms": figures["p50_s"] * 1e3,
        "op_p90_ms": figures["p90_s"] * 1e3,
        "ok_ops_frac": ok / attempted,
        "reference_gap": result["reference_gap"],
        "peak_rss_mb": result["peak_rss_mb"],
    }
    notes = {"ops_attempted": attempted, "ops_ok": ok, "rounds": len(phase["rounds"]),
             "window_ops_per_s": figures["window_rates"],
             "window_ops_per_s_wall": figures["window_rates_wall"],
             "host_slowness_quartiles": statistics.quantiles(figures["host_slowness"], n=4)
             if len(figures["host_slowness"]) > 1 else figures["host_slowness"],
             "timed_wall_s": sum(r["wall"] for r in phase["rounds"]),
             "setup_samples_s": setup}
    return values, attempted, attempted - ok, notes


def per_layer(result, imports):
    plain, traced = result["phases"]
    rounds = len(traced["rounds"])
    summary, counters, sizes = result["summary"], result["counters"], result["chain_sizes"]
    rates = [phase_figures(p)["ops_per_s"] for p in (plain, traced)]

    def value(name):
        if name == "bloch.import_ms":
            return imports["ionqsim.bloch"]
        if name == "cli.import_ms":
            return imports["ionqsim.cli"]
        if name == "trace.overhead_pct":
            return 100.0 * (1.0 - rates[1] / rates[0])
        if name == "sphere.grid_nodes":
            return float(counters.get(name, 0.0))
        if name in COUNTERS:
            return counters.get(name, 0.0) / rounds
        match = re.fullmatch(r"ionchain\.equilibrium_positions\.n(\d+)_ms", name)
        if match:
            times = sizes.get(match.group(1))
            return statistics.median(times) * 1e3 if times else 0.0
        span, stat = name.rsplit(".", 1)
        return summary.get(span, {}).get(stat, 0) / rounds

    notes = {"rounds_traced": rounds, "ops_per_s_untraced": rates[0],
             "ops_per_s_traced": rates[1], "import_breakdown_ms": imports,
             "spans": summary}
    return value, notes


def coverage(workload, summary, value):
    missing = []
    for name in COVERAGE[workload] + ["bloch.import_ms", "cli.import_ms"]:
        calls = summary[name]["calls"] if name in summary else value(name)
        if not calls:
            missing.append(name)
    return missing


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(COVERAGE))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    start = time.perf_counter()
    steal_at_start = steal_seconds()

    if not os.path.isfile(os.path.join(SRC, "ionqsim", "__init__.py")):
        print(f"error: no ionqsim package under {SRC}", file=sys.stderr)
        return 1
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)

    mode = "traced" if args.trace else "run"
    try:
        if args.workload == "cli-readme":
            setup = [cli_version_seconds(start) for _ in range(SETUP_SAMPLES)]
            result = run_worker(args, mode, start)
        else:
            setup = []
            for step in ["setup"] * (SETUP_SAMPLES - 1) + [mode]:
                before = calib.median_sample(calib.STEP_SAMPLES)
                result = run_worker(args, step, start)
                setup.append(result["setup_s"] * calib.scale(before, result["setup_cal"]))
        if args.trace:
            value, notes = per_layer(result, import_breakdown(start))
            specs = bench["per_layer"]
            counts = [op_counts(p) for p in result["phases"]]
            attempted = sum(a for a, _ in counts)
            failed = attempted - sum(c for _, c in counts) + result["failed_checks"]
            missing = coverage(args.workload, result["summary"], value)
            values = {spec["name"]: value(spec["name"]) for spec in specs}
        else:
            values, attempted, failed, notes = end_to_end(result, setup)
            specs = bench["end_to_end"]
            missing = []
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    checks = result["checks"]
    if missing:
        checks.append({"name": "trace coverage", "passed": False,
                       "detail": "no calls recorded for " + ", ".join(missing)})
    correct = all(c["passed"] for c in checks)
    host = host_record(args, result["host"], steal_at_start)
    metrics = {spec["name"]: {"value": values[spec["name"]], "unit": spec["unit"]}
               for spec in specs}

    print(f"ionqsim benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    print("host: " + json.dumps(host, sort_keys=True))
    for name, info in sorted(notes.items()):
        if name != "spans":
            print(f"  {name}: {json.dumps(info, sort_keys=True)}")
    for check in checks:
        print(f"  check {'PASS' if check['passed'] else 'FAIL'}: {check['name']}"
              + (f" ({check['detail']})" if check["detail"] else ""))
    for error in result["errors"]:
        print(f"  failed op: {error}")
    for name, digest in sorted(result["digests"].items()):
        print(f"  digest {name}: {digest}")
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")

    record = {"workload": args.workload, "host": host, "metrics": metrics, "checks": checks,
              "digests": result["digests"], "errors": result["errors"], "notes": notes,
              "correct": correct, "attempted": attempted, "failed": failed}
    os.makedirs(RESULTS, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(RESULTS, name), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    if missing:
        print("TRACE COVERAGE FAILURE: " + ", ".join(missing), file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 1 if missing else 0


if __name__ == "__main__":
    # A terminated run unwinds, so subprocess.run kills and reaps its child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    sys.exit(main())
