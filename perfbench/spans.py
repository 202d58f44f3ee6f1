"""In-memory span tracer that wraps the library functions `ergodia.cli` calls.

Spans are recorded from the benchmark's side only: the public functions the
CLI imports are replaced at their binding in `ergodia.cli` for the duration
of a traced job, and restored afterwards.  The first layer call that takes
a permutation also times its `cycles` property, so the lazy cycle
decomposition becomes a span of its own; those layers compute the cycles
anyway, so the total work is unchanged.
"""

from __future__ import annotations

import functools
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

# span name for each function bound in ergodia.cli, and whether the layer
# walks the permutation's cycles (COUNTING below names the counters a call feeds)
CLI_BINDINGS = {
    "build_drift_system": ("systems.build", False),
    "build_rotation": ("systems.build", False),
    "build_bernoulli": ("systems.build", False),
    "grid_embedding": ("systems.build", False),
    "paper_observable": ("systems.observable", False),
    "gamma_series": ("dynamics.prefix_means", True),
    "stabilization_segment": ("stabilization.segment", True),
    "common_stabilization_segment": ("stabilization.common_segment", True),
    "sup_discrepancy": ("stabilization.sup_discrepancy", True),
    "synthesize_permutation": ("approximation.synthesize", False),
    "make_transitive": ("approximation.transitive", True),
    "weak_star_error": ("approximation.metrics", False),
    "thickening_measure_error": ("approximation.metrics", False),
    "map_mismatch_fraction": ("approximation.metrics", False),
}

SPAN_NAMES = (
    "cli.main",
    "systems.build",
    "systems.observable",
    "dynamics.cycles",
    "dynamics.prefix_means",
    "integrability.profile",
    "stabilization.sup_discrepancy",
    "stabilization.segment",
    "stabilization.common_segment",
    "approximation.synthesize",
    "approximation.transitive",
    "approximation.metrics",
    "checks.run",
)


# spans every job of a kind records; dynamics.cycles comes from needs_cycles above
EXPECTED_SPANS = {
    "gamma": {"cli.main", "systems.build", "systems.observable", "dynamics.cycles",
              "dynamics.prefix_means"},
    "stab": {"cli.main", "systems.build", "systems.observable", "dynamics.cycles",
             "stabilization.segment", "stabilization.common_segment",
             "stabilization.sup_discrepancy"},
    "approx-pipeline": {"cli.main", "approximation.synthesize", "dynamics.cycles",
                        "approximation.transitive", "approximation.metrics"},
    "approx-metrics": {"cli.main", "systems.build", "approximation.metrics"},
    "check": {"cli.main", "checks.run"},
    "family": {"systems.observable", "integrability.profile"},
    "synthesize": {"approximation.synthesize"},
}

# A CLI job's wall time includes a few calls around the cli.main span (a few µs,
# more if a garbage collection falls there).
CLI_WALL_SLACK_S = 5e-3


class Span:
    __slots__ = ("name", "start", "end", "parent", "error")

    def __init__(self, name: str, parent: int):
        self.name = name
        self.parent = parent
        self.start = perf_counter()
        self.end = self.start
        self.error = False


def _gamma_points(args, kwargs, result) -> dict:
    F, T, y, k = args[:4]
    return {"dynamics.orbit_points": int(k * T.size)}


def _cycles_walked(args, kwargs, result) -> dict:
    # means_at_horizon runs four times per call, each a pass over every cycle
    return {"stabilization.cycles_walked": 4 * len(args[1].cycles)}


def _synthesis(args, kwargs, result) -> dict:
    M, delta = int(args[0]), float(args[2])
    _, mismatches = result
    return {"approximation.source_points": M,
            "approximation.matched_points": M - int(mismatches),
            # grid points within delta of a target: about 2*delta*M per source
            "approximation.candidate_edges": M * round(2 * delta * M)}


COUNTING = {
    "gamma_series": _gamma_points,
    "sup_discrepancy": _cycles_walked,
    "synthesize_permutation": _synthesis,
}


class Tracer:
    """Collects spans and counters for a run; one instance per traced run."""

    def __init__(self, permutation_type: type):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._permutation_type = permutation_type
        self._timed_cycles: list = []  # permutations whose cycles this job has timed

    @contextmanager
    def span(self, name: str):
        rec = Span(name, self._stack[-1] if self._stack else -1)
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield rec
        except BaseException:
            rec.error = True
            raise
        finally:
            rec.end = perf_counter()
            self._stack.pop()

    def _time_cycles(self, args) -> None:
        for a in args:
            if isinstance(a, self._permutation_type) and not any(a is p for p in self._timed_cycles):
                self._timed_cycles.append(a)
                with self.span("dynamics.cycles"):
                    n = len(a.cycles)
                self.counts["dynamics.cycle_count"] += n

    def wrap(self, fn, name: str, needs_cycles: bool = False, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if needs_cycles:
                self._time_cycles(args)
            with self.span(name):
                result = fn(*args, **kwargs)
            if count is not None:
                self.counts.update(count(args, kwargs, result))
            return result

        return traced

    @contextmanager
    def installed(self, cli_module, checks_module):
        """Patch the CLI's bindings (and checks.run_all) for one job, then restore them."""
        saved = []
        for attr, (name, needs_cycles) in CLI_BINDINGS.items():
            fn = getattr(cli_module, attr, None)
            if fn is None:
                continue
            saved.append((cli_module, attr, fn))
            setattr(cli_module, attr, self.wrap(fn, name, needs_cycles, COUNTING.get(attr)))
        run_all = checks_module.run_all
        saved.append((checks_module, "run_all", run_all))
        checks_module.run_all = self.wrap(run_all, "checks.run")
        self._timed_cycles = []
        try:
            yield
        finally:
            for module, attr, fn in saved:
                setattr(module, attr, fn)
            self._timed_cycles = []


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval its children cover."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append(s)
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s.start
        for c in sorted(children.get(i, []), key=lambda c: c.start):
            lo, hi = max(c.start, reach, s.start), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((s.end - s.start) - covered)
    return out


def job_trace_errors(kind: str, job_spans: list[Span], selfs: list[float], wall: float,
                     is_cli: bool) -> list[str]:
    """What is wrong with one traced job's spans, as measured against the job itself.

    Every job must record the spans its kind produces (EXPECTED_SPANS), so
    a binding that a change to ergodia.cli renames or bypasses cannot drop
    out of the breakdown unnoticed.  For a CLI job, the self times of its
    spans must sum to the job's wall time, taken by the runner outside the
    tracer, to within CLI_WALL_SLACK_S: the cli.main span must cover the
    whole call.
    """
    errors = []
    missing = EXPECTED_SPANS[kind] - {s.name for s in job_spans}
    if missing:
        errors.append(f"no {', '.join(sorted(missing))} span")
    if is_cli:
        gap = wall - sum(selfs)
        if not 0.0 <= gap <= CLI_WALL_SLACK_S:
            errors.append(f"self times sum to {sum(selfs):.6f} s, job wall is {wall:.6f} s")
    return errors
