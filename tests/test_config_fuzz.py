"""Config fuzzing through the CLI: one small valid config per command, system kind and approx mode,
with one key path or list entry replaced by a value from a fixed pool, or one key of another system
kind or approx mode added.  Every case must exit 0 or 2 (or 1 for check); an exit 2 must print a
first stderr line starting "config error:" and make no --out directory, and a value of the wrong
JSON type or a foreign key must be named in that line.

Each case runs ergodia.cli.main in a forked child that limits its own address space and is killed
by its own alarm, so neither a huge allocation nor a hang inside C code can stall or exhaust the
test run.  One child runs at a time."""

import contextlib
import copy
import io
import json
import os
import re
import resource
import signal
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from ergodia.cli import main

# seconds a case may run, and address space it may take beyond what the parent had mapped
CASE_SECONDS = 5
HEADROOM_BYTES = 512 << 20

BASES = [
    ("gamma", {"system": {"name": "drift", "M": 100}, "observable": {"name": "ex03", "K": 5},
               "start_points": {"explicit": [7, 50]}, "gamma": {"k": 1.5, "stride": 2}, "seed": 3}),
    ("gamma", {"system": {"name": "rotation", "M": 101, "t": 0.3}, "observable": {"name": "tent"},
               "start_points": {"random": 2}, "gamma": {"k": 1.0}}),
    ("gamma", {"system": {"name": "bernoulli", "m": 2, "N": 2, "mode": "debruijn"},
               "observable": {"name": "chi0", "N": 2, "m": 2},
               "start_points": {"stratified": 4, "extras": 1}}),
    ("stab", {"system": {"name": "bernoulli", "m": 2, "N": 3, "mode": "naive"},
              "observable": {"name": "constant", "value": 0.5}, "start_points": {"random": 5},
              "stab": {"epsilon": 0.1, "eta": 0.1, "n_min": 2, "scan_limit": 50, "per_point_limit": 3,
                       "pairs": [[20, 10]], "exceedance_epsilons": [0.05]}}),
    ("approx", {"system": {"name": "rotation", "M": 200, "t": 0.25},
                "approx": {"mode": "metrics", "target": {"name": "rotation", "t": 0.25},
                           "closed_intervals": [[0.9, 0.1]], "thickening_epsilon": 0.01,
                           "mismatch_epsilons": [0.01], "degree": 2}}),
    ("approx", {"approx": {"mode": "pipeline", "M": 200, "target": {"name": "doubling"},
                           "deltas": [0.01], "mismatch_epsilon": 0.05}}),
    ("check", {"fixtures": {"permutation_image": [1, 2, 0]}}),
]

# the keys of the other kinds of system and modes of approx, by the kind or mode they are foreign to
FOREIGN = {"drift": ["t", "m", "N", "mode"], "rotation": ["m", "N", "mode"], "bernoulli": ["M", "t"],
           "metrics": ["M", "deltas", "mismatch_epsilon"],
           "pipeline": ["closed_intervals", "thickening_epsilon", "mismatch_epsilons", "degree"]}

POOL = [True, False, None, "x", "", 1, -1, 0, 1.5, [], [1], {}, {"a": 1}, float("nan"), float("inf"),
        float("-inf"), 1e300, 2**70, -(2**70), 1e9]


def json_type(value) -> str:
    """The JSON type of value: number for an int or a float, boolean apart."""
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    return "number" if number else type(value).__name__


def entry_paths(spec, prefix=()):
    """Every key path and list entry through spec, parents first."""
    for key, value in (spec.items() if isinstance(spec, dict) else enumerate(spec)):
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from entry_paths(value, prefix + (key,))


def label(path) -> str:
    """The words an error about path must hold: its last key, singular for an entry of a list."""
    key = [k for k in path if isinstance(k, str)][-1]
    return key.removesuffix("s") if isinstance(path[-1], int) else key


@st.composite
def cases(draw):
    """(command, config, words, rule): the case, the words naming what changed, and what an exit must
    show.  rule "refuse" (a foreign key, or a value of the wrong JSON type other than null): exit 2,
    naming words; "name" (null where another type belongs, which stride and permutation_image read as
    absent): words named if it exits 2; "" (a value of the right type): only what every case shows."""
    command, config = copy.deepcopy(draw(st.sampled_from(BASES)))
    additions = [(section, key) for section in ("system", "approx") if section in config
                 for key in FOREIGN[config[section].get("name", config[section].get("mode"))]]
    value = draw(st.sampled_from(POOL))
    if additions and draw(st.integers(0, 3)) == 0:
        section, key = draw(st.sampled_from(additions))
        config[section][key] = value
        return command, config, key, "refuse"
    path = draw(st.sampled_from(list(entry_paths(config))))
    node = config
    for key in path[:-1]:
        node = node[key]
    wrong_type = json_type(node[path[-1]]) != json_type(value)
    node[path[-1]] = value
    return command, config, label(path), "" if not wrong_type else "name" if value is None else "refuse"


def run_forked(command: str, config, tmp: Path) -> tuple[int, str]:
    """(exit code, stderr) of cli.main on config in a forked child with --out tmp/out."""
    path, err = tmp / "config.json", tmp / "stderr"
    path.write_text(json.dumps(config), encoding="utf-8")
    pid = os.fork()
    if pid == 0:  # the child never returns to the caller
        code = 70
        try:
            mapped = int(Path("/proc/self/statm").read_text().split()[0]) * os.sysconf("SC_PAGE_SIZE")
            soft, hard = mapped + HEADROOM_BYTES, resource.getrlimit(resource.RLIMIT_AS)[1]
            if hard != resource.RLIM_INFINITY:
                soft = min(soft, hard)
            resource.setrlimit(resource.RLIMIT_AS, (soft, hard))
            signal.signal(signal.SIGALRM, signal.SIG_DFL)  # the alarm ends the process, even inside C code
            signal.alarm(CASE_SECONDS)
            text = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(text):
                code = main([command, "--config", str(path), "--out", str(tmp / "out")])
            err.write_text(text.getvalue(), encoding="utf-8")
        except Exception as e:  # past main, so a fault of the program: exit code 70
            err.write_text(f"raised {e!r}", encoding="utf-8")
        finally:
            os._exit(code)
    _, status = os.waitpid(pid, 0)
    if not os.WIFEXITED(status):
        raise AssertionError(f"killed by signal {os.WTERMSIG(status)}: a hang past {CASE_SECONDS} s or a crash")
    return os.WEXITSTATUS(status), err.read_text(encoding="utf-8") if err.exists() else ""


@settings(max_examples=500, deadline=None, derandomize=True)
@given(cases())
def test_one_changed_key_exits_0_or_2_naming_it(case):
    command, config, words, rule = case
    with tempfile.TemporaryDirectory() as tmp:
        code, stderr = run_forked(command, config, Path(tmp))
        made_out = (Path(tmp) / "out").exists()
    first = stderr.partition("\n")[0]
    assert code in ((0, 1, 2) if command == "check" else (0, 2)), (code, stderr)
    assert code == 2 or rule != "refuse", f"exit {code}: {words} was accepted"
    if code == 2:
        assert first.startswith("config error:") and not made_out, (first, made_out)
        if rule:
            words = re.escape(words.replace("_", " "))
            assert re.search(rf"\b{words}\b", first.replace("_", " ")), (words, first)
