"""Tests for the benchmark itself: changed outputs are counted as failed jobs.

Run from the repository root:

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import random
import signal
from time import perf_counter

import pytest

import hostspeed
import jobs
import run
import spans


@pytest.fixture(scope="module")
def bench(tmp_path_factory):
    work = tmp_path_factory.mktemp("work")
    with open(run.REFERENCE, encoding="utf-8") as fh:
        reference = json.load(fh)

    def make(workload: str, keys: tuple[str, ...]) -> run.Runner:
        ergodia, templates, paths = run.setup(run.ROOT, workload, work / workload)
        chosen = [t for t in templates if t.key in keys]
        return run.Runner(ergodia, chosen, paths, work / workload, reference[workload])

    return make


def fail_frac(runner: run.Runner, tracer=None) -> float:
    outcomes = run.run_rounds(runner, seed=3, rounds=1, tracer=tracer)
    return sum(o.error is not None for o in outcomes) / len(outcomes)


def test_unchanged_outputs_pass(bench):
    assert fail_frac(bench("figs", ("fig1", "fig2", "check"))) == 0.0
    assert fail_frac(bench("approx", ("pipe-doubling",))) == 0.0


def test_one_changed_csv_byte_is_a_failed_job(bench, monkeypatch):
    runner = bench("figs", ("fig1", "fig2"))
    write_csv = runner.ergodia.cli._write_csv

    def corrupt_fig1(path, header, rows):
        write_csv(path, header, rows)
        if "ex01" in path.name:
            data = bytearray(path.read_bytes())
            data[-2] = ord("0") if data[-2] != ord("0") else ord("1")
            path.write_bytes(bytes(data))

    monkeypatch.setattr(runner.ergodia.cli, "_write_csv", corrupt_fig1)
    assert fail_frac(runner) == 0.5


def test_changed_matcher_mismatch_count_is_a_failed_job(bench, monkeypatch):
    runner = bench("approx", ("pipe-doubling",))
    synthesize = runner.ergodia.cli.synthesize_permutation

    def off_by_one(*args, **kwargs):
        T, mismatches = synthesize(*args, **kwargs)
        return T, mismatches + 1

    monkeypatch.setattr(runner.ergodia.cli, "synthesize_permutation", off_by_one)
    assert fail_frac(runner) == 1.0


def test_seed_picks_configs_and_repeats_them():
    templates = jobs.figs(run.ROOT) + jobs.scale(run.ROOT)

    def starts(seed):
        return [[j.config["start_points"] for j in r if j.kind == "gamma"]
                for r in jobs.plan(templates, seed, rounds=4)]

    assert jobs.plan(templates, 7, 4) == jobs.plan(templates, 7, 4)
    assert starts(7) != starts(8)
    # the config seed is the variant's own seed, never the CLI's --seed flag
    job = jobs.plan_round(templates, random.Random(7))[3]
    assert job.kind == "stab" and "--seed" not in job.argv(None, run.ROOT)
    assert job.config["seed"] == random.Random(f"fig4/{job.variant}").getrandbits(32)


def test_traced_jobs_record_their_spans_and_cover_their_wall(bench):
    runner = bench("figs", ("fig4", "fig5", "check"))
    tracer = spans.Tracer(runner.ergodia.dynamics.FinitePermutation)
    outcomes = run.run_rounds(runner, seed=3, rounds=1, tracer=tracer)
    assert all(o.error is None for o in outcomes)
    selfs = spans.self_times(tracer.spans)

    def errors(o, kind=None, wall=None):
        return spans.job_trace_errors(kind or o.job.kind, [tracer.spans[i] for i in o.spans],
                                      [selfs[i] for i in o.spans],
                                      o.wall if wall is None else wall, True)

    traced = [o for o in outcomes if o.traced]
    assert [o.job.kind for o in traced] == ["stab", "gamma", "check"]
    assert all(errors(o) == [] for o in traced)
    # a stab binding that records no span, and wall time no span covers, are errors
    assert errors(traced[1], kind="stab") == [
        "no stabilization.common_segment, stabilization.segment, "
        "stabilization.sup_discrepancy span"]
    assert len(errors(traced[0], wall=traced[0].wall + 0.01)) == 1
    # bindings are restored after each traced job
    assert not hasattr(runner.ergodia.cli.gamma_series, "__wrapped__")


def test_benchmark_json_lists_the_printed_metrics(bench):
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        declared = json.load(fh)
    runner = bench("figs", ("fig1", "check"))
    untraced = run.run_rounds(runner, seed=3, rounds=1)
    printed = run.end_to_end(untraced, 1, ([0.3], [0.2]))
    assert set(printed) == {m["name"] for m in declared["end_to_end"]}
    tracer = spans.Tracer(runner.ergodia.dynamics.FinitePermutation)
    printed, _ = run.per_layer(run.run_rounds(runner, seed=3, rounds=1, tracer=tracer), 1, tracer)
    assert set(printed) == {m["name"] for m in declared["per_layer"]}
    units = {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]}
    assert all(units[k] == unit for k, (_, unit) in printed.items())


def test_host_speed_is_sampled_during_a_job():
    previous = signal.getsignal(signal.SIGALRM)
    sampler = hostspeed.Sampler()
    with sampler:
        t0 = perf_counter()
        while perf_counter() - t0 < 0.3:
            pass
        t1 = perf_counter()
    speed, spent = sampler.scale(t0, t1, 1.0, 1.0)
    assert sampler._n >= 5 and 0 < spent < 0.1 * (t1 - t0) and speed > 0
    assert signal.getsignal(signal.SIGALRM) is previous
    # each stretch between samples counts by its length
    assert hostspeed.mean_speed(0.0, 4.0, [(1.0, 1.0), (3.0, 1.0)], 0.5, 0.5) == 0.875
    assert hostspeed.mean_speed(2.0, 2.0, [], 0.5, 1.0) == 0.75
