"""Workloads of the ergodia benchmark: the jobs each one runs, and how the seed picks them.

A workload is a list of job templates.  Each template has a small pool of
variants (start points, target phases, config seeds), and every variant's
outputs are recorded in reference.json, so the output checks are exact for
any workload seed.  The workload seed picks one variant of every template
per round; the variant's own seed is written into the config's "seed" field
(the CLI's --seed flag is never passed, see README.md).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

VARIANTS = 8

# The family_profile job: three paper observables on growing spaces.
FAMILY_NAMES = ("delta", "ex01", "ex03")
FAMILY_SIZES = (10**3, 10**4, 10**5, 10**6)
FAMILY_K = 1000
FAMILY_THRESHOLDS = tuple(2.0**j for j in range(22))

STAB_MANY = {"epsilon": 0.05, "eta": 0.05, "n_min": 5, "scan_limit": 400,
             "pairs": [[40, 20], [400, 200]]}


@dataclass(frozen=True)
class Job:
    """One closed-loop request: a CLI call with a generated config, or a library call."""

    key: str                 # template name, unique within its workload
    variant: int
    kind: str                # gamma | stab | approx-pipeline | approx-metrics | check | family | synthesize
    points: int              # sum of the system sizes M the job processes
    command: str = ""        # CLI subcommand, empty for library jobs
    config: dict | None = None
    flags: tuple = ()
    params: dict = field(default_factory=dict)

    @property
    def name(self) -> str:
        return f"{self.key}/{self.variant}"

    def argv(self, config_path: Path | None, out_dir: Path) -> list[str]:
        argv = [self.command, "--out", str(out_dir), *self.flags]
        if config_path is not None:
            argv += ["--config", str(config_path)]
        return argv


@dataclass(frozen=True)
class Template:
    key: str
    variants: int
    make: Callable[[int], Job]


def _variant_rng(key: str, v: int) -> random.Random:
    return random.Random(f"{key}/{v}")


def _shipped(root: Path, fig: str) -> dict:
    with open(root / "configs" / f"{fig}.json", encoding="utf-8") as fh:
        return json.load(fh)


def _gamma_template(key: str, base: dict, starts: int, flags: tuple) -> Template:
    """Gamma job on a fixed system; the variant draws the explicit start points."""
    M = _system_size(base["system"])

    def make(v: int) -> Job:
        rng = _variant_rng(key, v)
        seed = rng.getrandbits(32)
        pts = sorted(rng.sample(range(M), starts))
        config = {**base, "start_points": {"explicit": pts}, "seed": seed}
        return Job(key, v, "gamma", M, "gamma", config, flags)

    return Template(key, VARIANTS, make)


def _seeded_template(key: str, kind: str, command: str, base: dict) -> Template:
    """CLI job whose randomness comes only from the config seed."""
    M = _system_size(base["system"])

    def make(v: int) -> Job:
        seed = _variant_rng(key, v).getrandbits(32)
        return Job(key, v, kind, M, command, {**base, "seed": seed})

    return Template(key, VARIANTS, make)


def _system_size(system: dict) -> int:
    if system["name"] == "bernoulli":
        return int(system["m"]) ** (2 * int(system["N"]) + 1)
    return int(system["M"])


def _phase(key: str, v: int) -> float:
    return round(_variant_rng(key, v).uniform(0.05, 0.95), 6)


def _pipeline_template(key: str, M: int, target: str, deltas: list[float]) -> Template:
    def make(v: int) -> Job:
        tgt = {"name": target}
        if target == "rotation":
            tgt["t"] = _phase(key, v)
        config = {"approx": {"mode": "pipeline", "M": M, "target": tgt, "deltas": deltas}}
        return Job(key, v, "approx-pipeline", M, "approx", config)

    return Template(key, VARIANTS if target == "rotation" else 1, make)


def figs(root: Path) -> list[Template]:
    """The six shipped figure configs, `check`, and one family_profile job."""
    svg = ("--svg", "--no-timestamp")
    templates = [_gamma_template(f, _shipped(root, f), 1, svg)
                 for f in ("fig1", "fig2", "fig3")]
    templates.append(_seeded_template("fig4", "stab", "stab", _shipped(root, "fig4")))
    templates += [_gamma_template(f, _shipped(root, f), 1, svg) for f in ("fig5", "fig6")]
    templates.append(Template("check", 1, lambda v: Job("check", v, "check", 0, "check")))
    family = {"names": FAMILY_NAMES, "sizes": FAMILY_SIZES, "K": FAMILY_K,
              "thresholds": FAMILY_THRESHOLDS}
    points = len(FAMILY_NAMES) * sum(FAMILY_SIZES)
    templates.append(Template("family", 1, lambda v: Job("family", v, "family", points,
                                                         params=family)))
    return templates


def scale(root: Path) -> list[Template]:
    """Single-cycle systems at large M, three start points each, CSV only."""
    return [
        _gamma_template("drift", {"system": {"name": "drift", "M": 4_000_000},
                                  "observable": {"name": "ex03", "K": 1000},
                                  "gamma": {"k": 1.0}}, 3, ()),
        _gamma_template("rotation", {"system": {"name": "rotation", "M": 1_000_000, "t": "1/sqrt2"},
                                     "observable": {"name": "tent"},
                                     "gamma": {"k": 2.0}}, 3, ()),
        _gamma_template("debruijn", {"system": {"name": "bernoulli", "m": 2, "N": 10,
                                                "mode": "debruijn"},
                                     "observable": {"name": "chi0", "N": 10},
                                     "gamma": {"k": 1.0}}, 3, ()),
    ]


def cycles_many(root: Path) -> list[Template]:
    """stab on naive Bernoulli shifts: many short cycles instead of one long one."""
    return [
        _seeded_template(f"naive{N}", "stab", "stab", {
            "system": {"name": "bernoulli", "m": 2, "N": N, "mode": "naive"},
            "observable": {"name": "chi0", "N": N},
            "start_points": {"random": 200},
            "stab": STAB_MANY,
        })
        for N in (8, 9)
    ]


def approx(root: Path) -> list[Template]:
    """Permutation synthesis through the CLI, plus the interval path the CLI cannot reach."""

    def metrics(v: int) -> Job:
        t = _phase("metrics", v)
        config = {"system": {"name": "rotation", "M": 100_000, "t": t},
                  "approx": {"mode": "metrics", "closed_intervals": [[0.25, 0.5]],
                             "target": {"name": "rotation", "t": t}}}
        return Job("metrics", v, "approx-metrics", 100_000, "approx", config)

    def interval(v: int) -> Job:
        M = 200_000
        return Job("interval", v, "synthesize", M,
                   params={"M": M, "t": _phase("interval", v), "delta": 1e-3})

    return [
        _pipeline_template("pipe-rotation", 20_000, "rotation", [1e-3, 5e-3]),
        _pipeline_template("pipe-rotation-wide", 20_000, "rotation", [1e-2]),
        _pipeline_template("pipe-doubling", 20_000, "doubling", [1e-3]),
        _pipeline_template("pipe-identity", 20_000, "identity", [1e-3]),
        Template("metrics", VARIANTS, metrics),
        Template("interval", VARIANTS, interval),
    ]


# Rounds per 20 s of --seconds.  A round takes about 2.5 s (figs), 14.5 s
# (scale), 5.5 s (cycles-many) and 7.6 s (approx) of job wall time on a
# 2-vCPU x86-64 microVM (Python 3.11, numpy 2.4) in its fast state; a whole
# run, with checks, host-speed sampling and set-up, took a median of about
# 38, 35, 22 and 26 s there (README.md, "Steadiness").  figs gets enough
# rounds that its tail percentile lies inside its slowest job (fig3); scale
# gets two so that each of its jobs is sampled twice.  The count depends
# only on --seconds, so a parent and a change given the same seed run
# identical jobs.
ROUNDS_PER_20S = {"figs": 12, "scale": 2, "cycles-many": 3, "approx": 3}


def rounds(workload: str, seconds: float) -> int:
    return max(1, round(ROUNDS_PER_20S[workload] * seconds / 20))


WORKLOADS: dict[str, Callable[[Path], list[Template]]] = {
    "figs": figs,
    "scale": scale,
    "cycles-many": cycles_many,
    "approx": approx,
}


def plan_round(templates: list[Template], rng: random.Random) -> list[Job]:
    """One round: every template once, in order, at a variant the seed stream picks."""
    return [t.make(rng.randrange(t.variants)) for t in templates]


def plan(templates: list[Template], seed: int, rounds: int) -> list[list[Job]]:
    rng = random.Random(seed)
    return [plan_round(templates, rng) for _ in range(rounds)]


def write_configs(templates: list[Template], config_dir: Path) -> dict[str, Path]:
    """Write every variant's config; returns job name -> config path."""
    config_dir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for t in templates:
        for v in range(t.variants):
            job = t.make(v)
            if job.config is None:
                continue
            path = config_dir / f"{t.key}-{v}.json"
            path.write_text(json.dumps(job.config, indent=1, sort_keys=True) + "\n",
                            encoding="utf-8")
            paths[job.name] = path
    return paths
