"""ergodia benchmark: one workload per process, one closed-loop client, single-threaded.

Usage (from the repository root):

    python3 perfbench/run.py --workload figs --seed 1 --seconds 20 --trace 0

Workloads: figs, scale, cycles-many, approx (see README.md).  The program
is imported from `src/` of the checkout this file sits in.  Each job runs
only after the previous one returned and was checked.  Rounds (every job
template once) repeat a number of times set by --seconds alone
(jobs.rounds), so a parent and a change given the same seed run identical
jobs.

--trace 0 prints the end-to-end metrics; --trace 1 makes half the rounds,
runs every job twice, untraced and traced in alternating order, and prints
the per-layer metrics and the tracing overhead.  Job times are scaled by
the host speed sampled during each job (hostspeed.py).  The last line of
stdout is the result JSON; notes go to stderr.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import hostspeed
import jobs
import spans
import verify

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"
SETUP_PROBES = 7
WORK = ".perfbench_out"


class ProgramMissing(Exception):
    pass


def load_program(root: Path):
    """Import ergodia from the checkout's src/, never from anywhere else."""
    src = (root / "src").resolve()
    if not (src / "ergodia" / "__init__.py").is_file():
        raise ProgramMissing(f"no ergodia package under {src}")
    sys.path.insert(0, str(src))
    import ergodia
    import ergodia.checks
    import ergodia.cli

    if Path(ergodia.__file__).resolve().parent.parent != src:
        raise ProgramMissing(f"ergodia was imported from {ergodia.__file__}, not {src}")
    return ergodia


def setup(root: Path, workload: str, work: Path):
    """Import the program and generate the workload: the part setup_s times."""
    ergodia = load_program(root)
    templates = jobs.WORKLOADS[workload](root)
    config_paths = jobs.write_configs(templates, work / "configs")
    return ergodia, templates, config_paths


def _time_start(argv: list[str]) -> float:
    """Wall seconds from spawning a fresh process to its 'ready' line; waits for it to exit."""
    t0 = perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)
    line = proc.stdout.readline()
    elapsed = perf_counter() - t0
    try:
        _, err = proc.communicate(timeout=120)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"{argv[1]} failed ({proc.returncode}): {err.strip()}")
    return elapsed


def measure_setup(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Walls of fresh set-up processes and of the start-up probe run beside each one.

    Each set-up process runs from process start to 'workload ready'; the
    start-up probe (hostspeed.py as a script) follows it at once, so the two
    see the same host state.
    """
    setups, probes = [], []
    for _ in range(SETUP_PROBES):
        setups.append(_time_start([sys.executable, str(Path(__file__).resolve()), "--setup-probe",
                                   "--workload", workload, "--seed", str(seed)]))
        probes.append(_time_start([sys.executable, str(HERE / "hostspeed.py")]))
    return setups, probes


@dataclass
class Outcome:
    job: jobs.Job
    wall: float
    error: str | None
    bytes_out: int = 0
    files_out: int = 0
    traced: bool = False
    spans: range = range(0)  # indexes of the tracer spans this job recorded
    scale: float = 1.0       # mean host speed over the job, see hostspeed.py
    sampling: float = 0.0    # seconds of the wall spent sampling host speed

    @property
    def adjusted(self) -> float:
        return (self.wall - self.sampling) * self.scale


class Runner:
    def __init__(self, ergodia, templates, config_paths, work: Path, reference: dict | None):
        """With reference None the runner records each job's outputs instead of checking them."""
        self.ergodia = ergodia
        self.templates = templates
        self.config_paths = config_paths
        self.work = work
        self.reference = reference
        self.recorded: dict = {}
        self.sampler = hostspeed.Sampler()

    def _call(self, job: jobs.Job, out: Path, tracer):
        """Zero-argument callable running the job; inputs are built here, untimed."""
        cli = self.ergodia.cli
        if job.command:
            argv = job.argv(self.config_paths.get(job.name), out)
            if tracer is None:
                return lambda: (cli.main(argv), None)

            def traced_cli():
                with tracer.span("cli.main"):
                    return cli.main(argv), None

            return traced_cli
        from ergodia.approximation import synthesize_permutation
        from ergodia.integrability import family_profile
        from ergodia.systems import paper_observable

        if tracer is not None:
            paper_observable = tracer.wrap(paper_observable, "systems.observable")
            family_profile = tracer.wrap(family_profile, "integrability.profile")
            synthesize_permutation = tracer.wrap(synthesize_permutation, "approximation.synthesize",
                                                 count=spans.COUNTING["synthesize_permutation"])
        p = job.params
        if job.kind == "family":
            def family():
                profiles = {}
                for name in p["names"]:
                    kw = {"K": p["K"]} if name == "ex03" else {}
                    members = [paper_observable(name, M, **kw) for M in p["sizes"]]
                    profiles[name] = family_profile(members, p["thresholds"])
                return 0, profiles

            return family
        if job.kind == "synthesize":
            targets = verify.synthesis_targets(p)
            return lambda: (0, synthesize_permutation(p["M"], targets, p["delta"], circle=False))
        raise ValueError(f"unknown library job {job.kind!r}")

    def run(self, job: jobs.Job, tracer=None) -> Outcome:
        out = self.work / "out" / job.key
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        call = self._call(job, out, tracer)
        stdout, stderr = io.StringIO(), io.StringIO()
        installed = (tracer.installed(self.ergodia.cli, self.ergodia.checks)
                     if tracer is not None else nullcontext())
        rc, result, error = None, None, None
        first_span = len(tracer.spans) if tracer is not None else 0
        before = hostspeed.boundary_speed()
        with installed, redirect_stdout(stdout), redirect_stderr(stderr), \
                self.sampler as sampler:
            t0 = perf_counter()
            try:
                rc, result = call()
            except (Exception, SystemExit):
                error = traceback.format_exc(limit=3)
            t1 = perf_counter()
        scale, sampling = sampler.scale(t0, t1, before, hostspeed.boundary_speed())
        wall = t1 - t0
        if error is None and rc != 0:
            error = f"exit code {rc}: {stderr.getvalue().strip()[-500:]}"
        if error is None and self.reference is None:
            self.recorded.setdefault(job.key, {})[str(job.variant)] = verify.observe(
                job, out, result)
        elif error is None:
            try:
                verify.check(job, out, stdout.getvalue(), result, self.reference[job.key][str(job.variant)])
            except verify.Mismatch as e:
                error = f"output check: {e}"
            except Exception:
                error = "output check raised: " + traceback.format_exc(limit=3)
        files = [f for f in out.rglob("*") if f.is_file()]
        return Outcome(job, wall, error, sum(f.stat().st_size for f in files), len(files),
                       tracer is not None,
                       range(first_span, len(tracer.spans)) if tracer is not None else range(0),
                       scale, sampling)


def run_rounds(runner: Runner, seed: int, rounds: int, tracer=None) -> list[Outcome]:
    """Closed loop: each job starts when the previous one has returned and been checked.

    Host speed is sampled during every job (Runner.run, hostspeed.py).
    """
    outcomes: list[Outcome] = []
    hostspeed.boundary_speed()  # the first calls pay one-time costs
    for r, round_jobs in enumerate(jobs.plan(runner.templates, seed, rounds)):
        for i, job in enumerate(round_jobs):
            # with a tracer: untraced and traced twins, alternating which goes first
            order = [None] if tracer is None else (
                [None, tracer] if (i + r) % 2 == 0 else [tracer, None])
            for t in order:
                o = runner.run(job, t)
                if o.error:
                    print(f"FAILED {job.name}: {o.error}", file=sys.stderr)
                outcomes.append(o)
    return outcomes


def latency_metrics(times: dict[str, list[float]], points: int) -> dict:
    """Throughput and latency from each template's job times.

    points_per_s is the points of the completed jobs over the summed time of
    all jobs.  A template's typical job time is its median over the rounds,
    so one job caught by a host slowdown moves neither latency metric.
    job_tail_s is the highest percentile of all jobs with at least ten jobs
    beyond it; a run with fewer than 21 jobs has no such percentile above
    the median and reports the slowest template's median instead.
    """
    typical = {key: statistics.median(t) for key, t in times.items()}
    pooled = sorted(x for t in times.values() for x in t)
    n = len(pooled)
    if n >= 21:
        tail_s, tail_note = pooled[n - 11], f"p{100.0 * (n - 10) / n:.1f} of {n} jobs"
    else:
        slowest = max(typical, key=typical.get)
        tail_s, tail_note = typical[slowest], f"median of {slowest} ({n} jobs in all)"
    return {
        "points_per_s": points / sum(pooled),
        "job_p50_s": statistics.median(typical.values()),
        "job_tail_s": tail_s,
        "tail_note": tail_note,
    }


def end_to_end(outcomes: list[Outcome], rounds: int,
               setup: tuple[list[float], list[float]]) -> dict:
    """Metrics over host-speed scaled times; the raw ones go to stderr."""
    points = sum(o.job.points for o in outcomes if o.error is None)
    walls: dict[str, list[float]] = {}
    adjusted: dict[str, list[float]] = {}
    for o in outcomes:
        walls.setdefault(o.job.key, []).append(o.wall)
        adjusted.setdefault(o.job.key, []).append(o.adjusted)
    raw = latency_metrics(walls, points)
    adj = latency_metrics(adjusted, points)
    setups, start_probes = setup
    raw["setup_s"] = statistics.median(setups)
    adj["setup_s"] = hostspeed.START_REFERENCE_S * statistics.median(
        s / p for s, p in zip(setups, start_probes))
    for key in walls:
        print(f"{key}: median wall {statistics.median(walls[key]):.4f} s, adjusted "
              f"{statistics.median(adjusted[key]):.4f} s over {len(walls[key])} jobs",
              file=sys.stderr)
    print(f"jobs={len(outcomes)} rounds={rounds} points={points}; job_tail_s is the "
          f"{adj['tail_note']}; host-speed scale "
          f"min/median/max {min(o.scale for o in outcomes):.3f}/"
          f"{statistics.median(o.scale for o in outcomes):.3f}/{max(o.scale for o in outcomes):.3f}; "
          f"set-up over {len(setups)} processes, start-up probe median "
          f"{statistics.median(start_probes):.4f} s",
          file=sys.stderr)
    print("raw wall metrics: " + json.dumps({k: v for k, v in raw.items() if k != "tail_note"}),
          file=sys.stderr)
    return {
        "setup_s": (adj["setup_s"], "s"),
        "points_per_s": (adj["points_per_s"], "1/s"),
        "job_p50_s": (adj["job_p50_s"], "s"),
        "job_tail_s": (adj["job_tail_s"], "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(outcomes: list[Outcome], rounds: int, tracer: spans.Tracer) -> tuple[dict, int]:
    """Per-round totals of self time, calls and errors per span, plus counters and overhead.

    Self times are scaled like their job's time (Outcome.adjusted over its
    wall).  Also returns the number of trace errors (spans.job_trace_errors)
    over all traced jobs.
    """
    selfs = spans.self_times(tracer.spans)
    scaled = list(selfs)
    for o in outcomes:
        for i in o.spans:
            scaled[i] *= o.adjusted / o.wall
    metrics: dict = {}
    for name in spans.SPAN_NAMES:
        mine = [i for i, s in enumerate(tracer.spans) if s.name == name]
        key = "cli.self" if name == "cli.main" else name
        metrics[f"{key}_s"] = (sum(scaled[i] for i in mine) / rounds, "s")
        metrics[f"{name}.calls"] = (len(mine) / rounds, "count")
        metrics[f"{name}.errors"] = (sum(tracer.spans[i].error for i in mine) / rounds, "count")
    c = tracer.counts
    for name in ("dynamics.cycle_count", "dynamics.orbit_points", "stabilization.cycles_walked",
                 "approximation.candidate_edges"):
        metrics[name] = (c[name] / rounds, "count")
    sources = c["approximation.source_points"]
    metrics["approximation.matched_frac"] = (
        c["approximation.matched_points"] / sources if sources else 0.0, "fraction")
    cli_traced = [o for o in outcomes if o.traced and o.job.command]
    metrics["cli.bytes_out"] = (sum(o.bytes_out for o in cli_traced) / rounds, "count")
    metrics["cli.files_out"] = (sum(o.files_out for o in cli_traced) / rounds, "count")
    traced = sum(o.adjusted for o in outcomes if o.traced)
    untraced = sum(o.adjusted for o in outcomes if not o.traced)
    metrics["trace.overhead_s"] = ((traced - untraced) / rounds, "s")
    metrics["trace.overhead_frac"] = ((traced - untraced) / untraced, "fraction")
    print_breakdown(outcomes, tracer, selfs)
    errors, gaps = [], [0.0]
    for o in outcomes:
        if o.traced:
            job_selfs = [selfs[i] for i in o.spans]
            errors += [f"{o.job.name}: {e}" for e in spans.job_trace_errors(
                o.job.kind, [tracer.spans[i] for i in o.spans], job_selfs, o.wall,
                bool(o.job.command))]
            if o.job.command:
                gaps.append(o.wall - sum(job_selfs))
    for e in errors:
        print(f"TRACE {e}", file=sys.stderr)
    print(f"rounds={rounds} traced jobs={sum(o.traced for o in outcomes)}; {len(errors)} trace "
          f"errors; CLI job wall minus its self times: at most {max(gaps):.2e} s", file=sys.stderr)
    return metrics, len(errors)


def print_breakdown(outcomes: list[Outcome], tracer: spans.Tracer, selfs: list[float]) -> None:
    """Per template: mean raw self seconds per traced job for every span name."""
    by_key: dict[str, list[Outcome]] = {}
    for o in outcomes:
        if o.traced:
            by_key.setdefault(o.job.key, []).append(o)
    for key, done in by_key.items():
        totals: dict[str, float] = {}
        for o in done:
            for i in o.spans:
                name = tracer.spans[i].name
                totals[name] = totals.get(name, 0.0) + selfs[i]
        wall = sum(o.wall for o in done) / len(done)
        parts = ", ".join(f"{name} {t / len(done):.4f}" for name, t in totals.items())
        print(f"breakdown {key}: wall {wall:.4f} s; self s: {parts}", file=sys.stderr)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(jobs.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="internal: set up, print 'ready', exit (timed by the parent)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    work = ROOT / WORK / f"{args.workload}-{os.getpid()}"
    try:
        try:
            if args.setup_probe:
                setup(ROOT, args.workload, work)
                print("ready", flush=True)
                return 0
            ergodia, templates, config_paths = setup(ROOT, args.workload, work)
        except ProgramMissing as e:
            print(f"perfbench: {e}", file=sys.stderr)
            return 2
        setup_times = ([], []) if args.trace else measure_setup(args.workload, args.seed)
        with open(REFERENCE, encoding="utf-8") as fh:
            reference = json.load(fh)[args.workload]
        runner = Runner(ergodia, templates, config_paths, work, reference)
        tracer = spans.Tracer(ergodia.dynamics.FinitePermutation) if args.trace else None
        rounds = jobs.rounds(args.workload, args.seconds)
        if tracer is not None:
            rounds = max(1, rounds // 2)  # each job runs twice, untraced and traced
        outcomes = run_rounds(runner, args.seed, rounds, tracer)
        failed = sum(o.error is not None for o in outcomes)
        if tracer is None:
            metrics, correct = end_to_end(outcomes, rounds, setup_times), failed == 0
        else:
            metrics, trace_errors = per_layer(outcomes, rounds, tracer)
            correct = failed == 0 and trace_errors == 0
        result = {"correct": correct, "attempted": len(outcomes), "failed": failed,
                  "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
        print(json.dumps(result))
        return 0
    finally:
        remove_work(work)


def remove_work(work: Path) -> None:
    shutil.rmtree(work, ignore_errors=True)
    try:
        work.parent.rmdir()  # only when no other run is using it
    except OSError:
        pass


if __name__ == "__main__":
    sys.exit(main())
