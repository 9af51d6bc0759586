"""fin2cat verdict benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
src/.  One client issues the workload's verdict tasks back to back
(closed loop, concurrency 1), in rounds over a seeded pool, until S
seconds have passed; the first two rounds always finish, a later one
stops at the deadline.  Every verdict is checked against an answer
computed without fin2cat (oracles.py), and a wrong or raised verdict
counts as failed.

--trace 0 prints the end-to-end metrics.  On a shared host a core's
speed can change by half from one second to the next, so a fixed
reference loop is timed every 50 ms between tasks, on the one core the
run is pinned to, and every task time is scaled to a core on which that
loop takes REFERENCE_MS.  A task's latency is the median of its scaled
times over the rounds, and the latency metrics are taken over the
pool's tasks.  --trace 1 runs one round untraced and the same round
again with spans around every public function (tracer.py), and prints
the per-layer metrics and the tracing overhead.  The last line of
stdout is one JSON object with the keys correct, attempted, failed and
metrics.
"""

import argparse
import bisect
import gc
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stdout

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, ".out")
sys.path.insert(0, HERE)

from tracer import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# the tail percentile is the highest of these that leaves at least ten
# of the pool's tasks beyond it
LADDER = (50, 75, 90, 95, 98, 99, 99.5, 99.9)
MIN_ROUNDS = 2
# fresh interpreters timed for setup_s, spread evenly over the run
SETUP_SPAWNS = 9
# seconds between timings of the reference loop, and the time in ms it
# is scaled to: about what it takes on the machine the README names, in
# that machine's usual, slower state
REFERENCE_EVERY = 0.05
REFERENCE_MS = 1.0

END_TO_END = [
    ("verdicts_per_s", "1/s"),
    ("verdict_p50_ms", "ms"),
    ("verdict_tail_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def import_program():
    """Import fin2cat from this checkout's src/, or None if it is absent."""
    if not os.path.isfile(os.path.join(SRC, "fin2cat", "cli.py")):
        return None
    sys.path.insert(0, SRC)
    try:
        import fin2cat.cli
    except ImportError as e:
        log("cannot import fin2cat: %s" % e)
        return None
    if not os.path.abspath(fin2cat.cli.__file__).startswith(SRC + os.sep):
        log("fin2cat was imported from outside this checkout: %s" % fin2cat.cli.__file__)
        return None
    return fin2cat


def spawn_setup():
    """(start, end) of a fresh interpreter importing the CLI module, the
    set-up every fin2cat command pays."""
    code = "import sys; sys.path.insert(0, %r); import fin2cat.cli" % SRC
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True)
    return t0, time.perf_counter()


def busy(times):
    return sum(t1 - t0 for t0, t1 in times)


def reference_loop():
    """Fixed pure-Python work of the kind fin2cat does: tuples as keys of
    a dict.  It takes about REFERENCE_MS on the machine the README names."""
    d = {}
    for i in range(3600):
        k = (i % 41, i % 13)
        d[k] = d.get(k, 0) + 1
    return d


class HostSpeed:
    """Timings of the reference loop taken between tasks.  They follow
    the core's speed; a task's time is scaled by them to what it would
    take on a core where the loop takes REFERENCE_MS."""

    def __init__(self):
        self.at, self.took = [], []

    def sample(self, every=REFERENCE_EVERY):
        now = time.perf_counter()
        if self.at and now - self.at[-1] < every:
            return
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            reference_loop()
            best = min(best, time.perf_counter() - t0)
        self.at.append(now)
        self.took.append(best)

    def scaled(self, t0, t1):
        """t1 - t0 scaled by the mean of the last timing before t0 and the
        first after t1."""
        i = max(bisect.bisect_right(self.at, t0) - 1, 0)
        j = min(bisect.bisect_left(self.at, t1), len(self.at) - 1)
        return (t1 - t0) * REFERENCE_MS / 1000 / ((self.took[i] + self.took[j]) / 2)


def tail_percentile(pool_size):
    return max(p for p in LADDER if pool_size * (100 - p) / 100 >= 10)


def percentile(sorted_values, p):
    """Linear interpolation between closest ranks."""
    k = (len(sorted_values) - 1) * p / 100
    lo = int(k)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (k - lo)


class Executor:
    """Runs one task against the imported program and checks its verdict."""

    def __init__(self, workdir):
        from fin2cat import cli, codescent, fincat, freegen, laxalg

        self.cli, self.codescent, self.fincat = cli, codescent, fincat
        self.freegen, self.laxalg = freegen, laxalg
        self.workdir = workdir

    def _path(self, arg):
        if arg.startswith("@ws/"):
            return os.path.join(self.workdir, arg[4:])
        if arg.startswith("@"):
            return os.path.join(ROOT, arg[1:])
        return arg

    def prepare(self, task):
        """Everything the timed call needs, built outside the timed region."""
        if task["kind"] == "cli":
            return [self._path(a) for a in task["argv"]]
        return task["args"]

    def call(self, task, prepared):
        """The timed part: one call into a public entry point."""
        kind = task["kind"]
        if kind == "cli":
            buf = io.StringIO()
            with redirect_stdout(buf):
                code = self.cli.main(prepared)
            return code, buf.getvalue()
        if kind == "mutant":
            a = prepared
            M = self.laxalg.Monoid(a["elements"], a["unit"], {(x, y): z for x, y, z in a["table"]}, check=False)
            one = self.fincat.make_fincat(["*"], ["id*"], {"id*": "*"}, {"id*": "*"}, {"*": "id*"},
                                          {("id*", "id*"): "id*"})
            U = self.laxalg.monoid_two_monad(M, [("1", one)], 3)
            return bool(self.laxalg.check_pseudomonad(U))
        if kind == "quotient":
            a = prepared
            P = self.codescent.PresentedCategory(a["objects"], a["gens"], a["rels"])
            Q = self.codescent.quotient_category(P, a.get("budget", 50000))
            return Q.status, (len(Q.category.morphisms) if Q.category is not None else None)
        if kind == "words":
            fg = self.freegen
            a = prepared
            G = fg.make_graph(["*"], ["a"], {"a": "*"}, {"a": "*"})
            loop = fg.make_path(G, "*", ["a"])
            c = fg.make_computad(G, ["alpha", "beta"], {"alpha": loop, "beta": loop}, {"alpha": loop, "beta": loop})
            src = fg.make_path(G, "*", ["a"] * a["L"])
            w1 = fg.make_word(c, src, [tuple(s) for s in a["w1"]])
            w2 = fg.make_word(c, src, [tuple(s) for s in a["w2"]])
            return fg.two_cells_equal(w1, w2)
        raise ValueError("unknown task kind %r" % kind)

    @staticmethod
    def check(task, got):
        """None when the verdict matches the known answer, else why not."""
        want = task["expect"]
        kind = task["kind"]
        if kind == "cli":
            code, out = got
            report = json.loads(out)
            if code != want["exit"] or report["status"] != want["status"]:
                return "exit %s status %s" % (code, report["status"])
            data = report["data"]
            for key, value in want["data"].items():
                if key == "cells":
                    have = sorted(g for _, g in data["steps"])
                else:
                    have = data
                    for part in key.split("."):
                        have = have[part]
                if have != value:
                    return "%s = %r, want %r" % (key, have, value)
            return None
        if kind == "mutant":
            return None if got == want["ok"] else "verdict %r" % got
        if kind == "quotient":
            status, size = got
            if status != want["status"] or ("morphisms" in want and size != want["morphisms"]):
                return "quotient %s with %s morphisms" % (status, size)
            return None
        if kind == "words":
            return None if got == want["equal"] else "two_cells_equal %r" % got
        return "unknown task kind"


def run_round(executor, tasks, order, tracer=None, deadline=None, speed=None):
    """Run the tasks in the given order, stopping early once the
    perf_counter deadline has passed, and sampling the host's speed
    between tasks when given a HostSpeed.  Returns (task times as (start,
    end) pairs in the order run, cpu seconds, failures)."""
    times, cpu, failures = [], 0.0, []
    for i in order:
        if deadline is not None and time.perf_counter() >= deadline:
            break
        task = tasks[i]
        prepared = executor.prepare(task)
        if tracer is not None:
            tracer.start_task(i)
        if speed is not None:
            speed.sample()
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            got = executor.call(task, prepared)
            err = None
        except Exception as e:  # a raised verdict is a failed task
            got, err = None, "%s: %s" % (type(e).__name__, e)
        t1 = time.perf_counter()
        cpu += time.process_time() - c0
        times.append((t0, t1))
        if err is None:
            try:
                err = executor.check(task, got)
            except (KeyError, TypeError, ValueError) as e:
                err = "malformed report: %s" % e
        if err is not None:
            failures.append("%s: %s" % (task.get("argv") or task["kind"], err))
    if speed is not None:
        speed.sample(every=0)
    return times, cpu, failures


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = ap.parse_args(argv)

    if import_program() is None:
        log("fin2cat sources not found under %s" % SRC)
        return 2

    # one core, so that the reference timings see the speed of the core
    # the tasks and the spawned interpreters, which inherit it, run on
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    pool = WORKLOADS[ns.workload](ns.seed)
    digest = pool.digest()
    if WORKLOADS[ns.workload](ns.seed).digest() != digest:
        log("task list is not reproducible from the seed")
        return 3
    tasks = pool.tasks
    rng = random.Random("%s:%d:order" % (ns.workload, ns.seed))

    workdir = os.path.join(OUT, "work-%d" % os.getpid())
    os.makedirs(workdir, exist_ok=True)
    try:
        for name, text in pool.files.items():
            with open(os.path.join(workdir, name), "w") as fh:
                fh.write(text)
        executor = Executor(workdir)
        gc.collect()
        gc.freeze()
        if ns.trace:
            result = traced_run(ns, executor, tasks, rng)
        else:
            result = timed_run(ns, executor, tasks, rng)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    log("workload %s seed %d: %d tasks per round, task list sha256 %s"
        % (ns.workload, ns.seed, len(tasks), digest))
    print(json.dumps(result))
    return 0


def timed_run(ns, executor, tasks, rng):
    speed = HostSpeed()
    samples = [[] for _ in tasks]
    setups, failures = [], []
    attempted, task_time, cpu, rounds = 0, 0.0, 0.0, 0
    start = time.perf_counter()
    deadline = start + ns.seconds
    while rounds < MIN_ROUNDS or time.perf_counter() < deadline:
        # keep the set-up samples level with the share of the run gone
        while len(setups) < min(SETUP_SPAWNS, 1 + SETUP_SPAWNS * (time.perf_counter() - start) / ns.seconds):
            speed.sample(every=0)
            setups.append(spawn_setup())
            speed.sample(every=0)
        order = list(range(len(tasks)))
        rng.shuffle(order)
        # the first MIN_ROUNDS rounds always finish, a later one stops
        # at the deadline
        t, c, f = run_round(executor, tasks, order, deadline=deadline if rounds >= MIN_ROUNDS else None, speed=speed)
        for i, span in zip(order, t):
            samples[i].append(span)
        attempted += len(t)
        task_time += busy(t)
        cpu += c
        failures.extend(f)
        rounds += 1
    wall = time.perf_counter() - start
    for f in failures[:10]:
        log("FAILED %s" % f)

    # a task's latency is the median of its scaled times over the rounds
    latency = sorted(statistics.median(speed.scaled(*span) for span in x) for x in samples)
    p = tail_percentile(len(tasks))
    values = {
        "verdicts_per_s": len(latency) / sum(latency),
        "verdict_p50_ms": percentile(latency, 50) * 1000,
        "verdict_tail_ms": percentile(latency, p) * 1000,
        "setup_s": statistics.median(speed.scaled(*span) for span in setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    units = dict(END_TO_END)
    for name, value in values.items():
        print("%-16s %12.4f %s" % (name, value, units[name]))
    print("each task's latency is the median of its scaled times over %d rounds, the last cut at the deadline;"
          " verdict_tail_ms is p%g of N = %d tasks (%d beyond it)"
          % (rounds, p, len(latency), round(len(latency) * (100 - p) / 100)))
    print("failed_share     %12.4f (%d of %d)" % (len(failures) / attempted, len(failures), attempted))
    print("wall %.2f s, task time %.2f s unscaled (%.2f verdicts/s over all rounds), task cpu %.2f s,"
          " reference loop median %.3f ms over %d timings"
          % (wall, task_time, attempted / task_time, cpu, statistics.median(speed.took) * 1000, len(speed.took)))
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }


def traced_run(ns, executor, tasks, rng):
    order = list(range(len(tasks)))
    rng.shuffle(order)
    plain, _, failures = run_round(executor, tasks, order)
    tracer = Tracer()
    tracer.install()
    try:
        traced, _, f = run_round(executor, tasks, order, tracer)
    finally:
        tracer.uninstall()
    failures.extend(f)
    for f in failures[:10]:
        log("FAILED %s" % f)

    values = tracer.metrics()
    values["trace_overhead"] = busy(traced) / busy(plain)
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, "spans-%s.tsv" % ns.workload)
    tracer.write(path)
    units = {name: unit for name, unit, _ in layer_metrics()}
    print("untraced round %.3f s, traced round %.3f s, %d spans in %s"
          % (busy(plain), busy(traced), len(tracer.span_start), os.path.relpath(path, ROOT)))
    return {
        "correct": not failures,
        "attempted": 2 * len(tasks),
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }


if __name__ == "__main__":
    sys.exit(main())
