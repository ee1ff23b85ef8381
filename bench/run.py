"""thetaforge benchmark runner (stdlib only).

Usage, from the root of a checkout:

  python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 bench/run.py --all [--seed N] [--seconds S]

With --trace 0 it measures one workload for S seconds and prints the
end-to-end metrics.  With --trace 1 it makes the traced run, which covers
every workload once (so the result is the same whichever workload is named)
and prints the per-layer metrics and the tracing overhead.  --all does every
workload and then the traced run.  Each line before the last names a metric,
its unit and its sample count; the last line is one JSON object with the keys
correct, attempted, failed and metrics.

Every run of a workload is a fresh child process importing thetaforge from
the checkout's src/, so caches start cold as in a user's script or CLI call.
Children run one at a time with THETA_FORGE_THREADS unset.  The benchmark
writes only under .bench_work/ in the checkout and removes it at the end.
See bench/README.md for the workloads, metrics and the layer map.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from spans import layer_seconds  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CHILD = os.path.join("bench", "child.py")
PY = sys.executable
WORKLOADS = ("ordinary-tower", "supersingular-split", "cli-chain")
SETUP_PROBES = 9            # set-up samples per run; setup_s is their median
INTERPRETER_PROBES = 5      # per probe kind in the traced run
CHILD_TIMEOUT = 120
SIZE_MISMATCH = 3           # exit code of child.py when a workload's sizes changed

# (call name, argv from the artifact paths of earlier calls and the seed)
CLI_CHAIN = (
    ("synth", lambda a, s: ["synth", "--mode", "edge", "--ap", "1", "--p", "3",
                            "--k", "11", "--n-max", "7", "--seed", s]),
    ("check-dist", lambda a, s: ["check-dist", "--system", a["synth"]]),
    ("theta", lambda a, s: ["theta", "--system", a["synth"], "--level", "7", "--ordinary"]),
    ("lp", lambda a, s: ["lp", "--system", a["synth"], "--level", "7"]),
    ("specialize", lambda a, s: ["specialize", "--element", a["lp"],
                                 "--character", '{"m":2,"exponents":[1]}']),
    ("mu", lambda a, s: ["mu", "--element", a["lp"]]),
    ("forms-eigen-extend", lambda a, s: ["forms", "eigen-extend", "--ap", "1", "--radius", "5",
                                         "--p", "3", "--k", "11", "--seed", s]),
    ("forms-stabilize", lambda a, s: ["forms", "stabilize", "--form", a["forms-eigen-extend"],
                                      "--ap", "1"]),
    ("tree-sphere", lambda a, s: ["tree", "sphere", "--r", "5", "--p", "3"]),
)

# per-layer metrics: span names read from each workload's traced child
ORDINARY_SPANS = ("tree.ball", "hecke.local_eigen_extend", "hecke.hecke_T", "hecke.hecke_U",
                  "hecke.stabilize", "hecke.nu_invariant", "torus.orbit_table",
                  "measures.from_tree", "measures.check_distribution",
                  "characters.interpolation_shape", "characters.specialize",
                  "measures.theta", "measures.lp", "groupring.mul")
SUPERSINGULAR_SPANS = ("measures.pm_extract", "measures.pm_compat", "measures.synth_system",
                       "groupring.divide_omega_tilde", "groupring.omega_annihilation",
                       "padic.omega_poly")
CLI_SPANS = {"serialize.write": "serialize.write_s", "serialize.read": "serialize.read_s",
             "groupring.lambda_invariant": "groupring.lambda_invariant_s",
             "groupring.mul": "cli.groupring.mul_s"}


class BenchError(Exception):
    """The run cannot produce a valid result."""


@dataclass
class Proc:
    code: int
    start: float
    end: float
    rss_mb: float
    out: str

    @property
    def wall(self) -> float:
        return self.end - self.start

    def result(self) -> dict:
        lines = self.out.strip().splitlines()
        if not lines:
            raise BenchError("child printed no result")
        return json.loads(lines[-1])


class Tally:
    """Correctness checks attempted and failed over one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, checks: dict, where: str):
        for name, ok in checks.items():
            self.attempted += 1
            if not ok:
                self.failed += 1
                print(f"# check failed: {where}: {name}", file=sys.stderr)

    def frac_since(self, attempted: int, failed: int) -> float:
        """Failed share of the checks made since the counts were (attempted, failed)."""
        return (self.failed - failed) / max(self.attempted - attempted, 1)

    def fail(self, count: int, why: str):
        self.attempted += count
        self.failed += count
        print(f"# check failed: {why}", file=sys.stderr)


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("THETA_FORGE_THREADS", None)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


def spawn(cmd: list, log: str) -> Proc:
    """Run cmd to completion from the checkout root.

    Standard output goes to the file log; the child's own peak RSS comes from
    wait4, so it is not mixed with other children's.
    """
    with open(log, "w+b") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=fh,
                                stdin=subprocess.DEVNULL)
        timer = threading.Timer(CHILD_TIMEOUT, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        end = time.perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
        fh.seek(0)
        out = fh.read().decode(errors="replace")
    if proc.returncode == SIZE_MISMATCH:
        raise BenchError(f"workload sizes changed: {out.strip()}")
    return Proc(proc.returncode, start, end, usage.ru_maxrss / 1024.0, out)


def repeat(seconds: float, once) -> list:
    """Call once() back to back until seconds have passed, letting the call in
    flight finish; return the results that are not None."""
    got = []
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < seconds:
        res = once()
        if res is not None:
            got.append(res)
    return got


def p90(values: list) -> float:
    """Nearest-rank 90th percentile."""
    ordered = sorted(values)
    return ordered[max(0, -(-9 * len(ordered) // 10) - 1)]


class Run:
    """Work directory and helpers of one benchmark invocation."""

    def __init__(self, seed: int):
        self.seed = seed
        self.work = os.path.join(ROOT, ".bench_work", f"run-{os.getpid()}")
        os.makedirs(self.work)
        self.log = os.path.join(self.work, "child.log")
        self.tally = Tally()
        self.samples: dict = {}     # metric name -> sample count, for the printout

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)
        parent = os.path.dirname(self.work)
        if not os.listdir(parent):
            os.rmdir(parent)

    def child(self, *args) -> Proc:
        return spawn([PY, CHILD, *[str(a) for a in args]], self.log)

    def setup_s(self) -> float:
        """Median of spawn-to-`import thetaforge`-finished over fresh children.

        The first child is untimed: it writes the bytecode caches, which a
        user pays once, not on every call.
        """
        self.child("setup")
        times = []
        for _ in range(SETUP_PROBES):
            p = self.child("setup")
            if p.code != 0:
                raise BenchError(f"set-up probe failed:\n{p.out}")
            times.append(p.result()["t_import"] - p.start)
        self.samples["setup_s"] = len(times)
        return statistics.median(times)

    # -- library workloads --------------------------------------------------

    def library_once(self, name: str, traced: bool):
        """One fresh child; returns (Proc, result) or None if it failed."""
        p = self.child(name, self.seed, int(traced))
        if p.code != 0:
            self.tally.fail(1, f"{name} exited with code {p.code}")
            return None
        res = p.result()
        self.tally.add(res["checks"], name)
        return p, res

    def library(self, name: str, seconds: float) -> dict:
        setup = self.setup_s()
        got = repeat(seconds, lambda: self.library_once(name, False))
        if not got:
            raise BenchError(f"no run of {name} succeeded")
        print(f"# sizes {name}: {json.dumps(got[0][1]['sizes'])}")
        return self.end_to_end(
            setup,
            pipe=[res["end"] - res["start"] for _, res in got],
            calls=[res["end"] - p.start for p, res in got],
            rss=[res["peak_rss_mb"] for _, res in got],
        )

    # -- cli-chain -----------------------------------------------------------

    def chain(self, out: str, span_dir: str | None = None):
        """The nine CLI calls into a fresh out directory.

        Returns the list of (call name, Proc), or None when a call exited
        nonzero (that call and the ones left count as failed checks).
        """
        os.makedirs(os.path.join(ROOT, out))
        artifacts, procs = {}, []
        for i, (name, argv) in enumerate(CLI_CHAIN):
            args = argv(artifacts, str(self.seed)) + ["--out", out]
            if span_dir is None:
                cmd = [PY, "-m", "thetaforge.cli", *args]
            else:
                cmd = [PY, CHILD, "cli", os.path.join(span_dir, f"{name}.json"), *args]
            p = spawn(cmd, self.log)
            if p.code != 0:
                self.tally.fail(len(CLI_CHAIN) - i, f"cli {name} exited with code {p.code}: "
                                f"{p.out.strip()}")
                return None
            self.tally.attempted += 1
            lines = [ln for ln in p.out.splitlines() if ln.startswith("artifact: ")]
            artifacts[name] = lines[-1][len("artifact: "):]
            procs.append((name, p))
        return procs

    def check_chains(self, outs: list):
        p = self.child("cli-check", *outs)
        if p.code != 0:
            raise BenchError(f"cli-chain checks could not run:\n{p.out}")
        res = p.result()
        self.tally.add(res["checks"], "cli-chain")
        return res["sizes"]

    def cli_chain(self, seconds: float) -> dict:
        setup = self.setup_s()
        dirs = (os.path.relpath(os.path.join(self.work, f"chain-{i}"), ROOT)
                for i in itertools.count())

        def once():
            out = next(dirs)
            procs = self.chain(out)
            return None if procs is None else (out, procs)

        chains = repeat(seconds, once)
        if not chains:
            raise BenchError("no cli chain succeeded")
        sizes = self.check_chains([out for out, _ in chains])
        print(f"# sizes cli-chain: {json.dumps(sizes)}")
        return self.end_to_end(
            setup,
            pipe=[procs[-1][1].end - procs[0][1].start for _, procs in chains],
            calls=[p.wall for _, procs in chains for _, p in procs],
            rss=[max(p.rss_mb for _, p in procs) for _, procs in chains],
        )

    # -- metrics ---------------------------------------------------------------

    def end_to_end(self, setup, pipe, calls, rss) -> dict:
        self.samples.update({"pipeline_s": len(pipe), "cli_call_s.p50": len(calls),
                             "cli_call_s.p90": len(calls), "peak_rss_mb": len(rss)})
        return {
            "pipeline_s": (statistics.median(pipe), "s"),
            "setup_s": (setup, "s"),
            "cli_call_s.p50": (statistics.median(calls), "s"),
            "cli_call_s.p90": (p90(calls), "s"),
            "peak_rss_mb": (statistics.median(rss), "MB"),
        }

    def traced(self) -> dict:
        """One untraced and one traced pass of every workload."""
        m = {}
        for name, wanted in (("ordinary-tower", ORDINARY_SPANS),
                             ("supersingular-split", SUPERSINGULAR_SPANS)):
            before = (self.tally.attempted, self.tally.failed)
            plain, traced = self.library_once(name, False), self.library_once(name, True)
            m[f"checks_failed_frac.{name}"] = (self.tally.frac_since(*before), "ratio")
            if plain is None or traced is None:
                raise BenchError(f"{name} failed in the traced run")
            res = traced[1]
            totals = layer_seconds(res["spans"])
            m.update({f"{s}_s": (totals.get(s, 0.0), "s") for s in wanted})
            m.update({k: (v, "count") for k, v in res["counts"].items()})
            m[f"trace.overhead_s.{name}"] = (
                (res["end"] - res["start"]) - (plain[1]["end"] - plain[1]["start"]), "s")

        outs = [os.path.relpath(os.path.join(self.work, d), ROOT) for d in ("plain", "traced")]
        span_dir = os.path.join(self.work, "spans")
        os.makedirs(span_dir)
        before = (self.tally.attempted, self.tally.failed)
        plain, traced = self.chain(outs[0]), self.chain(outs[1], span_dir)
        if plain is None or traced is None:
            raise BenchError("cli-chain failed in the traced run")
        self.check_chains(outs)
        m["checks_failed_frac.cli-chain"] = (self.tally.frac_since(*before), "ratio")
        spans = []
        for name, p in traced:
            m[f"cli.call_s.{name}"] = (p.wall, "s")
            with open(os.path.join(span_dir, f"{name}.json")) as fh:
                spans.extend(layer_seconds(json.load(fh)).items())
        for span, metric in CLI_SPANS.items():
            m[metric] = (sum(v for k, v in spans if k == span), "s")
        out_dir = os.path.join(ROOT, outs[1])
        m["serialize.artifact_bytes"] = (
            sum(os.path.getsize(os.path.join(out_dir, f)) for f in os.listdir(out_dir)), "bytes")
        m["trace.overhead_s.cli-chain"] = (
            (traced[-1][1].end - traced[0][1].start) - (plain[-1][1].end - plain[0][1].start), "s")

        probe = self.child("overflow-probe", self.seed)
        if probe.code != 0:
            raise BenchError(f"overflow probe failed:\n{probe.out}")
        m["known_defect.lp_k18_checks_failed"] = (probe.result()["failed"], "count")

        interp = [spawn([PY, "-c", "pass"], self.log).wall for _ in range(INTERPRETER_PROBES)]
        imp = [spawn([PY, "-c", "import thetaforge.cli"], self.log).wall
               for _ in range(INTERPRETER_PROBES)]
        m["cli.interpreter_s"] = (statistics.median(interp), "s")
        m["cli.import_s"] = (statistics.median(imp) - statistics.median(interp), "s")
        self.samples.update({"cli.interpreter_s": len(interp), "cli.import_s": len(imp)})
        return m

    def measure(self, workload: str, seconds: float) -> dict:
        if workload == "cli-chain":
            return self.cli_chain(seconds)
        return self.library(workload, seconds)


def report(metrics: dict, tally: Tally, samples: dict, label: str) -> dict:
    for name, (value, unit) in metrics.items():
        n = samples.get(name, 1)
        print(f"{label:<20} {name:<36} {value:>14.6f} {unit:<6} n={n}")
    print(f"{label:<20} {'checks_failed_frac':<36} {tally.frac_since(0, 0):>14.6f} "
          f"{'ratio':<6} n={tally.attempted}")
    return {"correct": tally.failed == 0, "attempted": tally.attempted, "failed": tally.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--all", action="store_true", help="every workload, then the traced run")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not args.all and args.workload is None:
        ap.error("give --workload NAME or --all")
    if not os.path.isdir(os.path.join(ROOT, "src", "thetaforge")):
        print(f"no thetaforge sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    # a terminated benchmark still kills and reaps the child it is waiting for
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    run = Run(args.seed)
    try:
        if args.all:
            results = {}
            for w in WORKLOADS:
                run.tally, run.samples = Tally(), {}
                results[w] = report(run.measure(w, args.seconds), run.tally, run.samples, w)
            run.tally, run.samples = Tally(), {}
            results["traced"] = report(run.traced(), run.tally, run.samples, "traced")
            print(json.dumps(results))
        else:
            metrics = run.traced() if args.trace else run.measure(args.workload, args.seconds)
            label = "traced" if args.trace else args.workload
            print(json.dumps(report(metrics, run.tally, run.samples, label)))
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        run.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
