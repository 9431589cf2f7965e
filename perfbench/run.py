"""Benchmark of the natops command line, timed from outside the program.

    python3 perfbench/run.py --workload classify --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

Each operation of a workload is a fresh ``python -m natops ...`` process,
and one runs at a time: a closed loop with one client.  A pass is one run
through the workload's operation list, in an order drawn from the seed.
After set-up the benchmark makes passes while another one fits in
``--seconds`` (at least two), checks every output, and prints as its
last line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones: set-up time, the
median pass time and the peak RSS of any child.  With ``--trace 1`` the
passes alternate between untraced children and children started through
tracer.py, and the metrics are the per-layer ones from the traced passes
plus the tracing overhead.  ``--workload all`` runs every workload in
turn and prints one such line for each.

Times are scaled to a reference host speed.  The speed of the shared host
swings by up to 1.8x within seconds and by 20 % between minutes, so the
parent and its children share one CPU, and while a child runs the parent
wakes every ``SAMPLE_EVERY_S`` to time a small fixed chunk of interpreter
work (``calibrate``) on that CPU.  Each child's wall time is multiplied by
``CAL_REF_S`` over the mean of the samples taken around and during it.
The raw figures are printed beside the scaled ones.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import select
import shutil
import signal
import statistics
import sys
import time
from collections import namedtuple
from fractions import Fraction

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
OUT = os.path.join(BENCH, "out")

import workloads  # noqa: E402  (beside this file)

OP_TIMEOUT_S = 60.0
MIN_PASSES = 2
SETUP_REPEATS = 3
PROBES = 5
CAL_ITERS = 600
# calibrate() on the reference box (2-core Xeon at 2.1 GHz, Python 3.11)
# at its usual speed, between and during children.
CAL_REF_S = 0.002
SAMPLE_EVERY_S = 0.1

Child = namedtuple("Child", ["exit", "timed_out", "wall", "cpu", "rss_kb",
                             "spawned", "scale"])


def calibrate():
    """CPU seconds of a fixed chunk of exact-fraction and dict work.

    Thread CPU time, so that a child scheduled in the middle of the chunk
    does not count.
    """
    t0 = time.thread_time()
    acc = Fraction(0)
    table = {}
    for i in range(1, CAL_ITERS):
        acc += Fraction(i % 97, i % 13 + 1)
        table[i * 7919 % 10007] = (i, str(i))
    return time.thread_time() - t0


class Runner:
    """Starts one child at a time and reaps it with its resource usage.

    Every child's ``scale`` converts its times to the reference speed.
    """

    def __init__(self, timeout=OP_TIMEOUT_S):
        self.timeout = timeout
        self.env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"),
                        PYTHONHASHSEED="0")
        self.pid = None
        self.cal = None
        # children inherit the mask, so calibrate() samples their CPU
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    def spawn(self, args, stdout_path):
        """Run ``python args`` with stdout to a file; returns a Child."""
        actions = [
            (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_OPEN, 1, stdout_path,
             os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, stdout_path + ".err",
             os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        ]
        samples = [self.cal if self.cal is not None else calibrate()]
        spawned = time.time()
        t0 = time.perf_counter()
        self.pid = os.posix_spawn(sys.executable, [sys.executable] + args,
                                  self.env, file_actions=actions)
        fd = os.pidfd_open(self.pid)
        try:
            while True:
                ready, _, _ = select.select([fd], [], [], SAMPLE_EVERY_S)
                if ready or time.perf_counter() - t0 > self.timeout:
                    break
                samples.append(calibrate())
        finally:
            os.close(fd)
        if not ready:
            os.kill(self.pid, signal.SIGKILL)
        _, status, ru = os.wait4(self.pid, 0)
        wall = time.perf_counter() - t0
        self.pid = None
        self.cal = calibrate()
        samples.append(self.cal)
        return Child(os.waitstatus_to_exitcode(status), not ready, wall,
                     ru.ru_utime + ru.ru_stime, ru.ru_maxrss, spawned,
                     CAL_REF_S / statistics.mean(samples))

    def natops(self, argv, stdout_path, trace_path=None):
        if trace_path is None:
            return self.spawn(["-m", "natops"] + argv, stdout_path)
        return self.spawn([os.path.join(BENCH, "tracer.py"), trace_path]
                          + argv, stdout_path)

    def stop(self):
        if self.pid is not None:
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self.pid = None


def scaled(children):
    """Summed wall time of children at the reference speed."""
    return sum(c.wall * c.scale for c in children)


def read(path):
    with open(path) as fh:
        return fh.read()


def setup(workload, seed, runner, work):
    """Start-up probes plus the workload's input files.

    Returns (scaled time of the set-up's natops processes, operations):
    the median of ``PROBES`` start-up probes (interpreter start and
    ``import natops``) plus the commands that build the input files.
    """
    probes = []
    for _ in range(PROBES):
        probe = runner.spawn(["-c", "import natops"],
                             os.path.join(work, "probe"))
        if probe.exit != 0:
            raise RuntimeError("natops does not import: "
                               + read(os.path.join(work, "probe.err")).strip())
        probes.append(scaled([probe]))
    children = []
    if workload == "verify":
        def run(argv, out):
            c = runner.natops(argv, out)
            children.append(c)
            return c.exit, c.timed_out, read(out)
        ops = workloads.verify_inputs(work, seed, run)
    elif workload == "classify":
        ops = workloads.classify_ops()
    else:
        ops = workloads.cochain_ops()
    return statistics.median(probes) + scaled(children), ops


Pass = namedtuple("Pass", ["time", "wall", "children", "errors", "traces"])


def run_pass(ops, rng, runner, work, traced):
    order = list(ops)
    rng.shuffle(order)
    done = []
    for i, op in enumerate(order):
        out = os.path.join(work, "op%d.json" % i)
        trace = out + ".trace" if traced else None
        done.append((op, out, trace, runner.natops(op.argv, out, trace)))
    errors, traces, children = [], [], []
    for op, out, trace, child in done:
        children.append(child)
        err = workloads.judge(op, child.exit, child.timed_out, read(out))
        if traced and not err:
            try:
                with open(trace) as fh:
                    traces.append((op.name, child, json.load(fh)))
            except (OSError, ValueError):
                err = "no trace written"
        if err:
            errors.append("%s: %s" % (op.name, err))
    return Pass(scaled(children), sum(c.wall for c in children), children,
                errors, traces)


LAYER_METRICS = [
    ("rules.derive_s", "s"), ("enum.s", "s"), ("enum.canon_calls", "count"),
    ("enum.keep_ratio", "ratio"), ("canon.s", "s"), ("canon.calls", "count"),
    ("canon.zero", "count"), ("delta.s", "s"), ("delta.calls", "count"),
    ("delta.cache_hits", "count"), ("assembly.s", "s"), ("rank.s", "s"),
    ("kernel.s", "s"), ("kernel.recheck_s", "s"), ("jets.transform_s", "s"),
    ("jets.transform_calls", "count"), ("jets.realize_s", "s"),
    ("jets.realize_graphs", "count"), ("jets.draw_s", "s"),
    ("cli.start_s", "s"), ("io.read_s", "s"), ("io.write_s", "s"),
    # whole-pass figures, from the untraced passes
    ("proc.cpu_s", "s"), ("pass.wall_s", "s"), ("host.slowdown", "ratio"),
    ("trace.overhead_s", "s"),
]
TRACED_METRICS = [k for k, _ in LAYER_METRICS[:-4]]
SECONDS = {k for k, u in LAYER_METRICS if u == "s"}


def op_layers(tr):
    """Per-layer figures of one traced operation, in its own seconds."""
    calls, total, self_s, by_parent = {}, {}, {}, {}
    for name, parent, n, tot, slf in tr["agg"]:
        calls[name] = calls.get(name, 0) + n
        if parent != name:  # recursion is counted at the outer call
            total[name] = total.get(name, 0.0) + tot
        self_s[name] = self_s.get(name, 0.0) + slf
        by_parent[(name, parent)] = (n, tot)
    c = lambda name: calls.get(name, 0)  # noqa: E731
    t = lambda name: total.get(name, 0.0)  # noqa: E731
    under = lambda name, parent: by_parent.get((name, parent), (0, 0.0))  # noqa: E731
    return {
        "rules.derive_s": t("rules.derive"),
        "enum.s": t("enum"),
        "enum.canon_calls": under("canon", "enum")[0],
        "enum.kept": tr["counts"]["enum.kept"],
        "canon.s": t("canon"),
        "canon.calls": c("canon"),
        "canon.zero": tr["counts"]["canon.zero"],
        "delta.s": self_s.get("delta", 0.0),
        "delta.calls": c("delta"),
        "delta.cache_hits": c("delta.cached") - under("delta", "delta.cached")[0],
        "assembly.s": self_s.get("assembly", 0.0),
        "rank.s": t("rank"),
        "kernel.s": t("kernel"),
        "kernel.recheck_s": under("differential", "kerbasis")[1],
        "jets.transform_s": t("jets.transform"),
        "jets.transform_calls": c("jets.transform"),
        "jets.realize_s": t("jets.realize"),
        "jets.realize_graphs": c("jets.realize"),
        "jets.draw_s": t("jets.draw"),
        "io.read_s": t("io.read_json") + t("io.parse"),
        "io.write_s": t("io.write") + t("io.encode"),
    }


def layer_values(p):
    """Per-layer figures of one traced pass, summed over its operations,
    with times scaled to the reference speed."""
    out = dict.fromkeys(TRACED_METRICS + ["enum.kept"], 0)
    for _, child, tr in p.traces:
        per = op_layers(tr)
        per["cli.start_s"] = tr["ready"] - child.spawned
        for k, v in per.items():
            out[k] += v * child.scale if k in SECONDS else v
    calls = out["enum.canon_calls"]
    out["enum.keep_ratio"] = out.pop("enum.kept") / calls if calls else 0.0
    return out


def bench(workload, seed, seconds, traced):
    """One benchmark run; returns (result object, summary line)."""
    os.makedirs(OUT, exist_ok=True)
    work = os.path.join(OUT, "work-%s-%d-%d" % (workload, seed, os.getpid()))
    os.makedirs(work)
    runner = Runner()
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            s, ops = setup(workload, seed, runner, work)
            setups.append(s)
        rng = random.Random("order-%s-%d" % (workload, seed))
        passes, plain = [], []
        min_passes = 1 if traced else MIN_PASSES
        t0 = time.perf_counter()
        while True:
            p = run_pass(ops, rng, runner, work, False)
            plain.append(p)
            passes.append(p)
            if traced:
                passes.append(run_pass(ops, rng, runner, work, True))
            elapsed = time.perf_counter() - t0
            # start another pass (or traced pair) only if it fits
            if (len(plain) >= min_passes
                    and elapsed * (len(plain) + 1) / len(plain) > seconds):
                break
    finally:
        runner.stop()
        shutil.rmtree(work, ignore_errors=True)
    errors = [e for p in passes for e in p.errors]
    attempted = len(ops) * len(passes)
    times = [p.time for p in plain]
    if traced:
        tp = [p for p in passes if p.traces]
        per = [layer_values(p) for p in tp]
        metrics = {k: statistics.median(v[k] for v in per)
                   for k in TRACED_METRICS}
        metrics["proc.cpu_s"] = statistics.median(
            sum(c.cpu * c.scale for c in p.children) for p in plain)
        metrics["pass.wall_s"] = statistics.median(p.wall for p in plain)
        metrics["host.slowdown"] = statistics.median(
            1 / c.scale for p in plain for c in p.children)
        metrics["trace.overhead_s"] = (statistics.median(p.time for p in tp)
                                       - statistics.median(times))
        metrics = {k: {"value": metrics[k], "unit": u} for k, u in LAYER_METRICS}
        write_trace(workload, seed, tp)
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "pass_s": {"value": statistics.median(times), "unit": "s"},
            "peak_rss_mb": {"value": max(c.rss_kb for p in passes
                                         for c in p.children) / 1024.0,
                            "unit": "MB"},
        }
    result = {"correct": not errors, "attempted": attempted,
              "failed": len(errors), "metrics": metrics}
    for e in errors:
        sys.stderr.write("FAILED %s\n" % e)
    summary = "%s seed=%d passes=%d (%d traced) ops/pass=%d attempted=%d " \
        "failed=%d setups=%d pass_s=%s raw_wall_s=%s | %s" % (
            workload, seed, len(plain), len(passes) - len(plain), len(ops),
            attempted, len(errors), len(setups),
            "[" + ", ".join("%.3f" % p.time for p in plain) + "]",
            "[" + ", ".join("%.3f" % p.wall for p in plain) + "]",
            "  ".join("%s=%.6g %s" % (k, m["value"], m["unit"])
                      for k, m in metrics.items()))
    return result, summary


def write_trace(workload, seed, traced_passes):
    """Spans and counters of every traced operation, one id per operation."""
    ops = []
    for k, p in enumerate(traced_passes):
        for j, (name, child, tr) in enumerate(p.traces):
            ops.append({"id": "%d.%d" % (k, j), "op": name, "pass": k,
                        "spawned": child.spawned, "wall_s": child.wall,
                        "scale": child.scale,
                        "cpu_s": child.cpu, "rss_kb": child.rss_kb,
                        "ready": tr["ready"], "spans": tr["spans"],
                        "agg": tr["agg"], "counts": tr["counts"]})
    path = os.path.join(OUT, "trace-%s-%d.json" % (workload, seed))
    with open(path, "w") as fh:
        json.dump({"workload": workload, "seed": seed, "ops": ops}, fh)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=list(workloads.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "natops")):
        sys.stderr.write("no natops sources under %s\n" % ROOT)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else [args.workload]
    for name in names:
        try:
            result, summary = bench(name, args.seed, args.seconds,
                                    bool(args.trace))
        except RuntimeError as e:
            sys.stderr.write("%s: set-up failed: %s\n" % (name, e))
            return 2
        path = os.path.join(OUT, "result-%s-%d-trace%d.json"
                            % (name, args.seed, args.trace))
        with open(path, "w") as fh:
            json.dump(result, fh)
        print(summary)
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
