"""One workload in a fresh interpreter: set-up, timed phase, output checks.

Started by run.py as `python worker.py --workload W --seed S --mode M`.
Mode `setup` only times the set-up and exits; `run` also runs the timed
phase untraced; `traced` runs half of the time untraced and half with
spans around the library's public functions.  The last line of standard
output is one JSON object for run.py.

Between ops (at most every CALIBRATE_EVERY seconds) and after set-up the
worker times the host-speed kernel of calib.py; run.py scales times by it.

Load model: closed loop, one client.  One op runs at a time in this
process (cli-readme: one child process at a time), and BLAS runs one
thread (run.py sets the thread-count variables).
"""

import argparse
import hashlib
import json
import math
import os
import random
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")

CALIBRATE_EVERY = 0.25   # seconds of workload between host-speed samples

NU1_KHZ = 100.0          # COM mode nu1 / 2 pi
GRADIENT = 25.0          # T/m
# Table 1 of the paper: J_ij / 2 pi in Hz for ten 171Yb+ ions, (i, j) 1-based.
TABLE_1_HZ = {
    (2, 1): 54.61,
    (3, 1): 41.36, (3, 2): 48.12,
    (4, 1): 34.15, (4, 2): 38.89, (4, 3): 44.74,
    (5, 1): 29.40, (5, 2): 33.17, (5, 3): 37.44, (5, 4): 43.04,
    (6, 1): 25.92, (6, 2): 29.09, (6, 3): 32.55, (6, 4): 36.77, (6, 5): 42.52,
    (7, 1): 23.19, (7, 2): 25.93, (7, 3): 28.88, (7, 4): 32.35, (7, 5): 36.77,
    (7, 6): 43.04,
    (8, 1): 20.92, (8, 2): 23.33, (8, 3): 25.90, (8, 4): 28.88, (8, 5): 32.55,
    (8, 6): 37.44, (8, 7): 44.74,
    (9, 1): 18.93, (9, 2): 21.07, (9, 3): 23.33, (9, 4): 25.93, (9, 5): 29.09,
    (9, 6): 33.17, (9, 7): 38.89, (9, 8): 48.12,
    (10, 1): 17.04, (10, 2): 18.93, (10, 3): 20.92, (10, 4): 23.19, (10, 5): 25.92,
    (10, 6): 29.40, (10, 7): 34.15, (10, 8): 41.36, (10, 9): 54.61,
}


def table_one_error(j_hz):
    """Largest relative deviation of a 10-ion J matrix (Hz) from Table 1."""
    return max(abs(j_hz[i - 1][j - 1] - ref) / ref for (i, j), ref in TABLE_1_HZ.items())


def sha256(chunks):
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


class Workload:
    """Shared parts: call numbering for spans, and defaults."""

    tracer = None
    calls = 0

    def begin_call(self):
        """Number the next call into the library; spans carry this id."""
        if self.tracer is not None:
            self.tracer.call_id = self.calls
        self.calls += 1
        return self.calls - 1

    def finish(self):
        """Untimed work after the timed phase of an end-to-end run."""

    def close(self):
        pass

    def failed_checks(self):
        """Completed ops whose output failed a check (after checks())."""
        return len(self.failures)

    def peak_rss_kb(self):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Estimate(Workload):
    """mean_fidelity_experiment over random pure states, ideal channel.

    One op is one state.  A round is one library call on BATCH states, so
    that an implementation batched across states is measured as such; each
    op's latency is its round's wall time divided by BATCH.
    """

    BATCH = 25
    # Fixed ensemble for reference_gap, independent of --seed so that the
    # figure moves only when the program's answers move (seed of the
    # acceptance test for criterion 5).
    REFERENCE_SEED = 501
    REFERENCE_STATES = 400

    def __init__(self, strategy, n, seed):
        self.strategy, self.n, self.seed = strategy, n, seed
        self.fidelities = []
        self.bad_outputs = 0
        self.errors = []
        self.reference = None

    def setup(self):
        import numpy as np
        from ionqsim import estimation
        self.np = np
        self.estimation = estimation     # looked up per call, so traced runs see wrappers
        # Warm-up op; it also builds the lazily cached default grid.
        estimation.mean_fidelity_experiment(1, self.n, self.strategy, seed=self.seed)
        self.rng = np.random.default_rng(self.seed)

    def round(self):
        np = self.np
        batch_seed = int(self.rng.integers(0, 2**63))
        self.begin_call()
        start = time.perf_counter()
        try:
            _, _, fid = self.estimation.mean_fidelity_experiment(
                self.BATCH, self.n, self.strategy, seed=batch_seed)
        except Exception as exc:
            self.errors.append(repr(exc))
            yield [((time.perf_counter() - start) / self.BATCH, False)] * self.BATCH
            return
        per_op = (time.perf_counter() - start) / self.BATCH
        self.fidelities.append(np.asarray(fid, dtype=float))
        yield [(per_op, True)] * self.BATCH

    def checks(self):
        np = self.np
        if not self.fidelities:
            return [("fidelities recorded", False, "no round completed")]
        fid = np.concatenate(self.fidelities)
        valid = np.isfinite(fid) & (fid >= 0.0) & (fid <= 1.0)
        self.bad_outputs = int(np.count_nonzero(~valid))
        fid = fid[valid]
        mean = float(np.mean(fid))
        stderr = float(np.std(fid, ddof=1) / math.sqrt(fid.size)) if fid.size > 1 else 0.0
        bound = (self.n + 1) / (self.n + 2)
        detail = f"mean {mean:.5f} +- {stderr:.5f} over {fid.size} states, bound {bound:.5f}"
        return [("per-state fidelity finite and in [0, 1]", self.bad_outputs == 0,
                 f"{self.bad_outputs} bad"),
                ("mean <= (N+1)/(N+2) + 3 sigma", mean <= bound + 3.0 * stderr, detail),
                ("mean within 0.015 of 0.925", abs(mean - 0.925) <= 0.015, detail)]

    def finish(self):
        """The fixed reference ensemble behind reference_gap."""
        _, _, fid = self.estimation.mean_fidelity_experiment(
            self.REFERENCE_STATES, self.n, self.strategy, seed=self.REFERENCE_SEED)
        self.reference = self.np.asarray(fid, dtype=float)

    def failed_checks(self):
        return self.bad_outputs

    def reference_gap(self):
        return (self.n + 1) / (self.n + 2) - float(self.np.mean(self.reference))

    def digests(self):
        out = {}
        if self.fidelities:
            out["first_round_fidelities"] = sha256([self.fidelities[0].tobytes()])
        if self.reference is not None:
            out["reference_fidelities"] = sha256([self.reference.tobytes()])
        return out


class Chain(Workload):
    """spin_spin_couplings for 171Yb+ at nu1 = 2 pi x 100 kHz and 25 T/m.

    One op is one chain size; a round is one sweep over SIZES in an order
    drawn from the seed.  N <= 40 takes the Newton path, 60-150 the
    coordinate-sweep fallback, and 200 fails at the seed commit: it is
    kept so that the defect shows as a failed op.
    """

    SIZES = (10, 40, 60, 100, 150, 200)

    def __init__(self, seed):
        self.seed = seed
        self.outputs = []      # (n, modes, coupling) per completed op
        self.errors = []
        self.failures = []     # check failures of completed ops

    def setup(self):
        import numpy as np
        from ionqsim import ionchain
        from ionqsim.constants import YB171
        self.np = np
        self.species = YB171
        self.ionchain = ionchain
        self._solve(10)        # warm-up op
        self.rng = random.Random(self.seed)

    def _solve(self, n):
        trap = self.ionchain.TrapConfig(nu1=2.0 * math.pi * NU1_KHZ * 1e3, n_ions=n, b=GRADIENT)
        return self.ionchain.spin_spin_couplings(self.species, trap)

    def round(self):
        order = list(self.SIZES)
        self.rng.shuffle(order)
        for n in order:
            self.begin_call()
            start = time.perf_counter()
            try:
                modes, coupling = self._solve(n)
            except Exception as exc:
                elapsed = time.perf_counter() - start
                self.errors.append(f"N={n}: {exc!r}")
                yield [(elapsed, False)]
                continue
            elapsed = time.perf_counter() - start
            self.outputs.append((n, modes, coupling))
            yield [(elapsed, True)]

    def _check_op(self, n, modes, coupling):
        np = self.np
        problems = []
        u = modes.u
        d = u[:, None] - u[None, :]
        np.fill_diagonal(d, np.inf)
        coulomb = np.sign(d) / d**2
        force = u - coulomb.sum(axis=1)
        scale = max(np.max(np.abs(coulomb).sum(axis=1)), 1.0)
        if np.max(np.abs(force)) / scale > 1e-10:
            problems.append(f"force balance {np.max(np.abs(force)) / scale:.2e}")
        if abs(float(np.sum(u))) > 1e-9:
            problems.append(f"sum u = {np.sum(u):.2e}")
        lam = (modes.nu / (2.0 * math.pi * NU1_KHZ * 1e3)) ** 2
        if abs(lam[0] - 1.0) > 1e-6:
            problems.append(f"COM eigenvalue {lam[0]:.9f}")
        if n > 1 and abs(lam[1] - 3.0) > 1e-6:
            problems.append(f"breathing eigenvalue {lam[1]:.9f}")
        j = coupling.j
        if np.max(np.abs(j - j.T)) > 1e-12 * np.max(np.abs(j)) or np.any(np.diag(j) != 0.0):
            problems.append("J not symmetric with zero diagonal")
        if n == 10 and table_one_error(coupling.in_hz()) > 0.01:
            problems.append(f"Table 1 deviation {table_one_error(coupling.in_hz()):.4f}")
        return problems

    def checks(self):
        for n, modes, coupling in self.outputs:
            problems = self._check_op(n, modes, coupling)
            if problems:
                self.failures.append(f"N={n}: {'; '.join(problems)}")
        solved = sorted({n for n, _, _ in self.outputs})
        return [("chain invariants for every solved N", not self.failures,
                 "; ".join(self.failures[:5]) or f"solved N = {solved}"),
                ("N = 10 solved", 10 in solved, "")]

    def reference_gap(self):
        j10 = next(c for n, _, c in self.outputs if n == 10)
        return table_one_error(j10.in_hz())

    def digests(self):
        first = {}
        for n, _, coupling in self.outputs:
            first.setdefault(n, coupling.j)
        return {"j_matrices": sha256([first[n].tobytes() for n in sorted(first)])}


class Cli(Workload):
    """The README command-line examples, each its own process, in sequence.

    One op is one call; a round is one pass over EXAMPLES.  The README
    `estimate` example is left out: estimate-self covers estimation, and
    here start-up should dominate.
    """

    def __init__(self, seed):
        rng = random.Random(seed)
        self.seeds = [rng.randrange(2**31) for _ in range(3)]
        self.spec = {"variant": "composition", "parts": [
            {"variant": "phase_damping", "lambda": round(rng.uniform(0.05, 0.3), 6),
             "axis": [round(rng.uniform(0.0, math.pi), 6), round(rng.uniform(0.0, 6.28), 6)]},
            {"variant": "depolarizing", "lambda": round(rng.uniform(0.05, 0.2), 6)},
            {"variant": "rotation", "axis": [round(rng.uniform(0.0, math.pi), 6), 0.0],
             "angle": round(rng.uniform(0.0, math.pi), 6)},
        ]}
        self.records = []      # (example index, returncode, artifact bytes, stdout)
        self.errors = []
        self.failures = []
        self.workdir = None

    def setup(self):
        os.makedirs(RESULTS, exist_ok=True)
        self.workdir = tempfile.mkdtemp(prefix="cli-", dir=RESULTS)
        # Calls run inside workdir with relative paths, so artifacts (whose
        # config hash covers the spec path) do not depend on where it is.
        with open(os.path.join(self.workdir, "channel.json"), "w") as fh:
            json.dump(self.spec, fh)
        s1, s2, s3 = (str(s) for s in self.seeds)
        self.examples = [
            ("rabi", ["rabi", "--rabi-khz", "2.9165", "--tmax-ms", "2", "--points", "400",
                      "--out", "rabi.csv"], "rabi.csv"),
            ("ramsey", ["rabi", "--ramsey", "--rabi-khz", "50", "--detuning-hz", "103.9",
                        "--tmax-ms", "30", "--out", "fringes.csv"], "fringes.csv"),
            ("zeno", ["zeno", "--fractions", "1,2,3,4,10", "--sequences", "2000",
                      "--seed", s1, "--out", "zeno.csv"], "zeno.csv"),
            ("runlength", ["zeno", "--mode", "runlength", "--theta", "0.628318",
                           "--pairs", "1000000", "--qmax", "10", "--seed", s2,
                           "--out", "runs.csv"], "runs.csv"),
            ("channel", ["channel", "--spec", "channel.json", "--shots", "10000", "--seed", s3,
                         "--out", "channel_out.json"], "channel_out.json"),
            ("chain", ["chain", "--species", "yb171", "--nu1-khz", "100", "--n", "10",
                       "--gradient", "25", "--table", "--out", "chain.json"], "chain.json"),
        ]
        self.command = self.plain_command
        # Children inherit PYTHONPATH (set by run.py) and so import ./src.
        warm = subprocess.run([sys.executable, "-m", "ionqsim.cli", "--version"],
                              cwd=self.workdir, capture_output=True, timeout=60)
        if warm.returncode != 0:
            raise RuntimeError(f"ionqsim --version failed: {warm.stderr.decode()[-500:]}")

    def close(self):
        if self.workdir is not None:
            shutil.rmtree(self.workdir, ignore_errors=True)

    @staticmethod
    def plain_command(call_id, argv):
        return [sys.executable, "-m", "ionqsim.cli"] + argv

    def round(self):
        for k, (_name, argv, artifact) in enumerate(self.examples):
            path = os.path.join(self.workdir, artifact)
            if os.path.exists(path):
                os.remove(path)
            command = self.command(self.begin_call(), argv)
            start = time.perf_counter()
            proc = subprocess.run(command, cwd=self.workdir, capture_output=True, timeout=120)
            elapsed = time.perf_counter() - start
            data = None
            if os.path.exists(path):
                with open(path, "rb") as fh:
                    data = fh.read()
            self.records.append((k, proc.returncode, data, proc.stdout))
            if proc.returncode != 0:
                self.errors.append(f"{argv[0]}: exit {proc.returncode}: "
                                   f"{proc.stderr.decode()[-300:]}")
            yield [(elapsed, proc.returncode == 0)]

    @staticmethod
    def _csv(data, columns, rows):
        lines = data.decode().splitlines()
        meta = lines[:3]
        if [m.split("=", 1)[0] for m in meta] != ["# seed", "# config_hash", "# version"]:
            return f"bad meta header {meta}"
        if lines[3].split(",") != columns:
            return f"columns {lines[3]}"
        body = [line.split(",") for line in lines[4:]]
        if len(body) != rows or any(len(r) != len(columns) for r in body):
            return f"{len(body)} rows"
        values = [float(x) for r in body for x in r]
        if not all(math.isfinite(v) for v in values):
            return "non-finite value"
        return None

    def _check_record(self, k, data, stdout):
        name = self.examples[k][0]
        if data is None:
            return "no artifact"
        try:
            if name == "rabi":
                return self._csv(data, ["pulse_length_s", "p1"], 400)
            if name == "ramsey":
                return self._csv(data, ["precession_time_s", "p1"], 200)
            if name == "zeno":
                return self._csv(data, ["N_or_q", "theory", "simulated", "stderr"], 5)
            if name == "runlength":
                return self._csv(data, ["N_or_q", "theory", "simulated", "stderr"], 10)
            payload = json.loads(data)
            if set(payload["meta"]) != {"seed", "config_hash", "version"}:
                return f"meta {payload['meta']}"
            if name == "channel":
                shapes = [len(payload["m"]), len(payload["m"][0]), len(payload["v"]),
                          len(payload["m_stderr"]), len(payload["v_stderr"])]
                return None if shapes == [3, 3, 3, 3, 3] else f"shapes {shapes}"
            j_hz = payload["J_hz"]
            if len(j_hz) != 10 or len(payload["positions_um"]) != 10:
                return "chain arrays are not 10 long"
            if table_one_error(j_hz) > 0.01:
                return f"Table 1 deviation {table_one_error(j_hz):.4f}"
            if len(stdout.decode().strip().splitlines()) != 11:
                return "J table is not 11 lines"
            return None
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            return f"unparsable artifact: {exc!r}"

    def checks(self):
        first = {}
        for k, code, data, stdout in self.records:
            if code != 0:
                continue
            problem = self._check_record(k, data, stdout)
            if problem is None and first.setdefault(k, data) != data:
                problem = "artifact differs from the first round's for identical (config, seed)"
            if problem:
                self.failures.append(f"{self.examples[k][0]}: {problem}")
        return [("artifacts parse with expected columns, rows and meta; reruns byte-identical",
                 not self.failures, "; ".join(self.failures[:5]))]

    def _first(self):
        first = {}
        for k, code, data, stdout in self.records:
            if code == 0 and data is not None:
                first.setdefault(k, (data, stdout))
        return first

    def reference_gap(self):
        data, _ = self._first()[len(self.examples) - 1]
        return table_one_error(json.loads(data)["J_hz"])

    def digests(self):
        first = self._first()
        return {"artifacts": sha256(first[k][0] + first[k][1] for k in sorted(first))}

    def peak_rss_kb(self):
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss


def make_workload(name, seed):
    if name == "estimate-self":
        return Estimate("self_learning", 12, seed)
    if name == "chain-long":
        return Chain(seed)
    if name == "cli-readme":
        return Cli(seed)
    raise SystemExit(f"unknown workload {name!r}")


def timed_phase(workload, seconds):
    """Whole rounds until the next one would overrun `seconds` (at least one).

    A round is a generator of batches: the ops of one batch ran together.
    Host-speed samples (calib.py) are taken before the first batch, after
    any batch that ends CALIBRATE_EVERY or more seconds after the previous
    sample, and after the last one, never during an op.  Returns the
    samples and one record per round: its wall time and, per op, its
    latency, whether it completed, and the index of the last sample taken
    before it started (the next sample follows its end).
    """
    import calib
    samples = [calib.sample()]
    last = start = time.perf_counter()
    rounds = []
    while True:
        round_start = time.perf_counter()
        record = {"ops": []}
        for batch in workload.round():
            before = len(samples) - 1
            record["ops"].extend((latency, ok, before) for latency, ok in batch)
            if time.perf_counter() - last >= CALIBRATE_EVERY:
                samples.append(calib.sample())
                last = time.perf_counter()
        now = time.perf_counter()
        record["wall"] = now - round_start
        rounds.append(record)
        if (now - start) + record["wall"] > seconds:
            if record["ops"][-1][2] == len(samples) - 1:
                samples.append(calib.sample())
            return {"cal": samples, "rounds": rounds}


def traced_phase(workload, seconds, run_id):
    """Timed phase with spans; returns the phase and the span summary."""
    import spans
    if isinstance(workload, Cli):
        files = []
        span_dir = os.path.join(RESULTS, f"{run_id}-spans")
        os.makedirs(span_dir, exist_ok=True)

        def traced_command(call_id, argv):
            path = os.path.join(span_dir, f"call-{call_id}.npz")
            files.append(path)
            return [sys.executable, os.path.join(HERE, "cli_boot.py"), path,
                    str(call_id), "--"] + argv

        workload.command = traced_command
        phase = timed_phase(workload, seconds)
        total, counters, sizes = {}, {}, {}
        for path in files:
            recorded, extra = spans.load(path)
            for name, row in spans.summarize(recorded, extra["names"]).items():
                acc = total.setdefault(name, {"calls": 0, "busy_ms": 0.0, "failed": 0})
                for key in acc:
                    acc[key] += row[key]
            for key, value in extra["counters"].items():
                counters[key] = counters.get(key, 0.0) + value
            for n, values in extra["chain_sizes"].items():
                sizes.setdefault(n, []).extend(values)
        counters["cli.artifact_bytes"] = float(sum(
            len(data or b"") for _, _, data, _ in workload.records[-len(files):]))
        return phase, total, counters, sizes
    tracer = spans.Tracer()
    tracer.install()
    workload.tracer = tracer
    phase = timed_phase(workload, seconds)
    os.makedirs(RESULTS, exist_ok=True)
    tracer.save(os.path.join(RESULTS, f"{run_id}-spans.npz"))
    total = spans.summarize(tracer.arrays(), tracer.names)
    sizes = {str(k): v for k, v in tracer.chain_sizes.items()}
    return phase, total, dict(tracer.counters), sizes


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--mode", choices=("setup", "run", "traced"), required=True)
    parser.add_argument("--run-id", default="run")
    args = parser.parse_args()

    workload = make_workload(args.workload, args.seed)
    try:
        print(json.dumps(run(workload, args)))
    finally:
        workload.close()


def run(workload, args):
    sys.path.insert(0, SRC)
    start = time.perf_counter()
    if not isinstance(workload, Cli):
        import ionqsim
        if not os.path.abspath(ionqsim.__file__).startswith(SRC + os.sep):
            raise SystemExit(f"ionqsim imported from {ionqsim.__file__}, not {SRC}")
    workload.setup()
    out = {"setup_s": time.perf_counter() - start}
    import calib   # after set-up: its numpy import must not count as the program's
    out["setup_cal"] = calib.median_sample(calib.STEP_SAMPLES)
    if args.mode == "setup":
        return out

    import numpy as np
    from importlib import metadata
    out["host"] = {"numpy": np.__version__, "blas": _blas_version(np)}
    try:
        out["host"]["scipy"] = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        out["host"]["scipy"] = None

    if args.mode == "run":
        phase = timed_phase(workload, args.seconds)
        out["peak_rss_mb"] = workload.peak_rss_kb() / 1024.0
        workload.finish()
        out["reference_gap"] = workload.reference_gap()
        phases = [phase]
    else:
        plain = timed_phase(workload, args.seconds / 2.0)
        traced, summary, counters, sizes = traced_phase(workload, args.seconds / 2.0,
                                                        args.run_id)
        out.update(summary=summary, counters=counters, chain_sizes=sizes)
        phases = [plain, traced]
    out["checks"] = [{"name": n, "passed": bool(p), "detail": d}
                     for n, p, d in workload.checks()]
    out["phases"] = phases
    out["failed_checks"] = workload.failed_checks()
    out["errors"] = workload.errors[:20]
    out["digests"] = workload.digests()
    return out


def _blas_version(np):
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{deps.get('name')} {deps.get('version')}"
    except (KeyError, TypeError, AttributeError):
        return None


if __name__ == "__main__":
    # A terminated worker unwinds, so subprocess.run kills and reaps a CLI
    # child and close() removes the scratch directory.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    main()
