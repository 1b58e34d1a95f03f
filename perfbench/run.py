"""prodstruct benchmark: CLI workloads, checked outputs, traced layers.

Run from the root of a source checkout (the package is imported from ./src):

    python3 perfbench/run.py --workload exact-large --seed 0 --seconds 30 --trace 0

Each operation is one in-process call to `prodstruct.cli.main(argv)` with
stdout captured.  One client runs a closed loop over the workload's
operations, pass after pass, while another pass fits in `--seconds`; each
operation's time is its median over the passes, scaled to a nominal machine
speed by a fixed loop timed throughout the run (speed.py).  Between
operations, untimed, the garbage collector runs and a checker process checks
the output (check.py), so that the checker's memory stays out of
peak_rss_mib.  Probes run once per run in a process of their own, untimed;
they count only in success_ratio.  A run ends within about `--seconds` of
its start, set-up included.

--trace 0 prints the end-to-end metrics; setup_s is the median of fresh
processes that start the interpreter, import prodstruct and write the
inputs.  --trace 1 traces an in-process setup, alternates untraced and
traced passes, and prints the per-layer metrics of spans.py.  The last
stdout line is the JSON result, the line before it the environment block.
--freeze rewrites reference.json from a clean run at DEFAULT_SEED.
See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

import check          # perfbench/ is on sys.path as the script's directory
import speed
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference.json")
SETUP_REPEATS = 15
CHECK_ERRORS = (check.CheckFailed, KeyError, TypeError, ValueError, IndexError)
START = time.perf_counter()


def parse_args(argv):
    ap = argparse.ArgumentParser(prog="perfbench/run.py")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--worker", nargs=2, metavar=("ROLE", "DIR"),
                    help=argparse.SUPPRESS)   # a child process: setup, check or probe
    ap.add_argument("--freeze", action="store_true")
    return ap.parse_args(argv)


def git_commit(root):
    try:
        out = subprocess.run(["git", "--git-dir", os.path.join(root, ".git"), "rev-parse",
                              "HEAD"], capture_output=True, text=True)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def call(cli, op):
    """Run one operation in this process; returns ((start, end), stdout, error)."""
    buf = io.StringIO()
    error = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(op.argv)
    except Exception as ex:                   # a crash is a failed operation
        code, error = None, f"{type(ex).__name__}: {str(ex)[:200]}"
    span = (t0, time.perf_counter())
    if error is None and code != 0:
        error = f"exit code {code}: {buf.getvalue()[-300:]}"
    return span, buf.getvalue(), error


class Checker:
    """Checks outputs in a child process (`--worker check`), one request per
    operation in order, since some checks write a later operation's input."""

    def __init__(self, args, inputs):
        self.proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
             "--seed", str(args.seed), "--worker", "check", inputs],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def values(self, op, text):
        """The checked values of `op`'s output; raises CheckFailed if wrong."""
        self.proc.stdin.write(json.dumps({"key": op.key, "text": text}) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"checker process exited with code {self.proc.wait()}")
        reply = json.loads(line)
        if "error" in reply:
            raise check.CheckFailed(reply["error"])
        return reply["values"]

    def close(self):
        self.proc.stdin.close()
        self.proc.wait()


def check_worker(workload, seed, inputs):
    ops = {op.key: op for op in workload.ops(inputs, seed)}
    for line in sys.stdin:
        request = json.loads(line)
        try:
            reply = {"values": ops[request["key"]].check(json.loads(request["text"]))}
        except CHECK_ERRORS as ex:
            reply = {"error": f"{type(ex).__name__}: {ex}"}
        print(json.dumps(reply), flush=True)
    return 0


def probe_worker(workload, seed, inputs):
    """Runs and checks the probes; prints {key: [error, wrong output?]}."""
    import prodstruct.cli
    outcome = {}
    for op in workload.ops(inputs, seed):
        if op.probe:
            _, text, error = call(prodstruct.cli, op)
            wrong = False
            if error is None:
                try:
                    op.check(json.loads(text))
                except CHECK_ERRORS as ex:
                    error, wrong = f"wrong output: {type(ex).__name__}: {ex}", True
            outcome[op.key] = [error, wrong]
    print(json.dumps(outcome))
    return 0


def setup_worker(workload, seed, inputs):
    os.makedirs(inputs)
    workload.setup(inputs, seed)
    return 0


WORKERS = {"setup": setup_worker, "check": check_worker, "probe": probe_worker}


class Runner:
    """Runs one workload's operations and keeps their timings and outcomes."""

    def __init__(self, workload, seed, inputs, references, checker, sampler,
                 freezing=False):
        import prodstruct.cli
        self.cli = prodstruct.cli
        self.ops = workload.ops(inputs, seed)
        self.checker = checker
        self.check_refs = not freezing and (seed == workloads.DEFAULT_SEED
                                            or workload.seed_invariant)
        self.references = references
        self.observed = {}        # op key -> checked values
        self.ok = {}              # op key -> succeeded on every attempt
        self.attempted = self.failed = 0          # timed operations
        self.wrong = []                           # outputs that failed a check
        self.sampler = sampler

    def run_op(self, op):
        """Time one operation, then check its output; returns (span, error)."""
        gc.collect()
        self.sampler.maybe_sample()
        span, text, error = call(self.cli, op)
        if error is None:
            try:
                values = self.checker.values(op, text)
                if self.check_refs:
                    ref = self.references.get(op.key)
                    check.need(ref is not None, "no reference frozen for this operation")
                    check.need(ref == values, f"values {values} differ from reference {ref}")
                self.observed[op.key] = values
            except check.CheckFailed as ex:
                error = f"wrong output: {ex}"
                self.wrong.append((op.key, error))
        self.ok[op.key] = self.ok.get(op.key, True) and error is None
        if error is not None:
            log(f"FAILED {op.key}: {error}")
        return span, error

    def run_probes(self, args, inputs):
        """Runs the probes once, in a process of their own, so that neither
        their memory nor a crash reaches the measuring process.  Their
        outputs are checked from the definitions only: a probe that starts
        to work has no frozen reference, and needs none."""
        if not any(op.probe for op in self.ops):
            return
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
             "--seed", str(args.seed), "--worker", "probe", inputs],
            stdout=subprocess.PIPE, text=True)
        try:
            outcome = json.loads(out.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            outcome = {}
        for op in self.ops:
            if op.probe:
                error, wrong = outcome.get(
                    op.key, [f"probe process exited with code {out.returncode}", False])
                self.ok[op.key] = error is None
                if wrong:
                    self.wrong.append((op.key, error))
                if error is not None:
                    log(f"probe {op.key}: {error}")

    def run_pass(self):
        """One pass over the timed operations; returns their spans by key."""
        times = {}
        for op in self.ops:
            if op.probe:
                continue
            times[op.key], error = self.run_op(op)
            self.attempted += 1
            self.failed += error is not None
        exact = {(op.instance, op.param): self.observed[op.key]["value"]
                 for op in self.ops if op.param and op.key in self.observed}
        for inst in sorted(workloads.relation_failures(exact)):
            self.failed += 1
            self.wrong.append((inst, "values break tw <= pw <= bw or tw < td"))
            log(f"FAILED {inst}: values break tw <= pw <= bw or tw < td")
        return times

    def passes(self, deadline, tracer=None):
        """Closed loop of passes while another one ends before `deadline`: at
        least one pass, or with a tracer one untraced and one traced pass."""
        t0 = time.perf_counter()
        plain, traced = [], []
        while True:
            plain.append(self.run_pass())
            if tracer is not None:
                tracer.reset()
                tracer.install()
                try:
                    traced.append((self.run_pass(), tracer.reduce()))
                finally:
                    tracer.uninstall()
            now = time.perf_counter()
            if now + (now - t0) / len(plain) > deadline:
                return plain, traced


def nominal(passes, sampler):
    """The passes' operation spans as nominal seconds."""
    return [{key: sampler.nominal(*span) for key, span in p.items()} for p in passes]


def median_of(passes):
    """Each operation's median time over the passes."""
    return {key: statistics.median(p[key] for p in passes) for key in passes[0]}


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def timed_setups(args, workdir, sampler):
    """Runs fresh processes that import and write the inputs; returns their
    spans and the last process's input directory."""
    spans = []
    for i in range(SETUP_REPEATS):
        d = os.path.join(workdir, f"setup{i}")
        for _ in range(speed.BURST):
            sampler.sample()
        t0 = time.perf_counter()
        subprocess.run([sys.executable, os.path.abspath(__file__), "--workload",
                        args.workload, "--seed", str(args.seed), "--worker", "setup", d],
                       check=True)
        spans.append((t0, time.perf_counter()))
    return spans, d


def main(argv=None):
    args = parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "prodstruct", "cli.py")):
        log("no prodstruct sources under ./src; run from the root of a checkout")
        return 2
    sys.path.insert(0, src)
    if args.workload not in workloads.WORKLOADS:
        log(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
        return 2
    workload = workloads.WORKLOADS[args.workload]
    if args.worker:
        role, inputs = args.worker
        return WORKERS[role](workload, args.seed, inputs)

    workdir = os.path.join(root, ".perfbench_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        return measure(args, workload, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workload, workdir):
    import numpy
    from prodstruct.exact import _kernels
    import spans as tr

    with open(REFERENCE) as f:
        references = json.load(f).get(args.workload, {})
    tracer = None
    sampler = speed.Sampler()
    if args.trace:
        tracer = tr.Tracer()
        inputs = os.path.join(workdir, "inputs")
        os.makedirs(inputs)
        tracer.install()
        try:
            root = tracer.open(tracer.setup_root)
            workload.setup(inputs, args.seed)
            tracer.close(root)
            setup_totals = tracer.reduce()
        finally:
            tracer.uninstall()
    else:
        setups, inputs = timed_setups(args, workdir, sampler)

    checker = Checker(args, inputs)
    try:
        runner = Runner(workload, args.seed, inputs, references, checker, sampler,
                        args.freeze)
        runner.run_probes(args, inputs)
        plain, traced = runner.passes(START + args.seconds, tracer)
    finally:
        checker.close()
    for _ in range(speed.BURST):              # samples after the last operation
        sampler.sample()
    env = {
        "python": sys.version.split()[0], "numpy": numpy.__version__,
        "kernel_path": "numba" if _kernels.USE_NUMBA else "pure",
        "git_commit": git_commit(os.getcwd()), "nproc": os.cpu_count(),
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "ops_per_pass": sum(not op.probe for op in runner.ops),
        "probes": sum(op.probe for op in runner.ops),
        "passes": len(plain), "traced_passes": len(traced),
        "clients": 1, "loop": "closed",
        "nominal_reference_ms": speed.NOMINAL_S * 1e3,
        "scale": sampler.scale(), "reference_samples": len(sampler.samples),
    }
    print(json.dumps({"env": env}))

    plain = nominal(plain, sampler)
    med = median_of(plain)
    for key, t in med.items():
        log(f"{t:9.4f} s  {key}")
    if args.trace:
        samples = []
        scale = sampler.scale()
        for _, totals in traced:
            merged = tr.merge(setup_totals, totals)
            missing = tr.coverage_failures(tracer.label, tracer.where, merged, args.workload)
            if missing:
                raise tr.TraceError(f"entry points with no span on {args.workload}: "
                                    + ", ".join(missing))
            layers = tr.layer_metrics(merged, dict(zip(tracer.label, tracer.prefix)))
            samples.append({k: (v * scale if u == "s" else v / scale if u == "1/s" else v, u)
                            for k, (v, u) in layers.items()})
        metrics = tr.median_metrics(samples)
        metrics["trace.overhead_ratio"] = (
            sum(median_of(nominal([t for t, _ in traced], sampler)).values())
            / sum(med.values()), "1")
    else:
        metrics = {
            "wall_s": (sum(med.values()), "s"),
            "op_p50_ms": (statistics.median(t for p in plain for t in p.values()) * 1e3,
                          "ms"),
            "op_max_s": (max(med.values()), "s"),
            "setup_s": (statistics.median(sampler.nominal(*span) for span in setups), "s"),
            "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
            "success_ratio": (sum(runner.ok.values()) / len(runner.ok), "1"),
        }

    if args.freeze:
        if args.seed != workloads.DEFAULT_SEED or runner.failed:
            log("--freeze needs a clean run at the default seed")
            return 1
        with open(REFERENCE) as f:
            refs = json.load(f)
        refs[args.workload] = dict(sorted(runner.observed.items()))
        with open(REFERENCE, "w") as f:
            json.dump(refs, f, indent=1, sort_keys=True)
            f.write("\n")

    print(json.dumps({
        "correct": runner.failed == 0 and not runner.wrong,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
