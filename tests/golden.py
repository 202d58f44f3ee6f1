"""The golden table: every pinned output of the ergodia CLI, in tests/golden.json.

An entry holds a subcommand, a config (a path from the repo root such as
configs/fig1.json, an inline JSON object or list, or null for none), flags,
{file name or "<stdout>": SHA-256} over every file the run writes (and its
stdout, where pinned), the exit code, for a non-zero exit the "stderr" prefix
that the first line of its stderr starts with and, for some, max_rss_mb, a
bound on the peak RSS of a fresh process running it.

check(entry, run, tmp) runs one entry and compares the complete set of files
written, stdout and the exit code; an entry that exits non-zero must make no
--out directory and must fail for its own reason: an argparse usage error
exits 2 as a config error does, but its stderr starts "usage:".  Tier-1 (tests/test_cli.py) passes a runner
that calls ergodia.cli.main in-process; run as a script,

    python tests/golden.py

this module checks every entry through the installed `ergodia` console
script, one fresh process per entry, and holds max_rss_mb against that
child's rusage.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
STDOUT = "<stdout>"


def entries() -> dict[str, dict]:
    """The table, entry name -> entry."""
    with open(ROOT / "tests" / "golden.json", encoding="utf-8") as fh:
        return json.load(fh)


def check(entry: dict, run, tmp: Path) -> float | None:
    """Run entry through run(argv) -> (exit code, stdout bytes, stderr bytes, peak RSS in MB or None),
    with its outputs under tmp; AssertionError unless the outputs, stdout, exit code, stderr prefix
    and RSS bound hold.  Returns the peak RSS."""
    out, config = tmp / "out", entry["config"]
    argv = [entry["command"], *entry["flags"], "--out", str(out)]
    if isinstance(config, (dict, list)):
        path = tmp / "config.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        argv += ["--config", str(path)]
    elif config is not None:
        argv += ["--config", str(ROOT / config)]
    code, stdout, stderr, peak_mb = run(argv)
    want = entry["outputs"]
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.glob("*")}
    if STDOUT in want:
        got[STDOUT] = hashlib.sha256(stdout).hexdigest()
    problems = [f"{name} missing" if name not in got else f"{name} extra" if name not in want
                else f"{name} has digest {got[name]}"
                for name in sorted(got.keys() | want.keys()) if got.get(name) != want.get(name)]
    if code != entry["exit"]:
        problems.append(f"exit code {code}, want {entry['exit']}")
    if entry["exit"] and out.exists():
        problems.append(f"exit {entry['exit']} made the --out directory")
    first = stderr.decode(errors="replace").partition("\n")[0]
    if entry["exit"] and not ("stderr" in entry and first.startswith(entry["stderr"])):
        problems.append(f"stderr starts {first!r}, want {entry.get('stderr')!r}")
    bound = entry.get("max_rss_mb")
    if peak_mb is not None and bound is not None and not peak_mb < bound:
        problems.append(f"peak RSS {peak_mb:.1f} MB, bound {bound} MB")
    if problems:  # raised, not asserted, so that python -O still checks
        raise AssertionError("; ".join(problems))
    return peak_mb


def console(argv: list[str]) -> tuple[int, bytes, bytes, float]:
    """argv through the `ergodia` console script in a fresh process, with that child's peak RSS.
    stderr goes to a file, so a child that fills it cannot block on a pipe no one reads yet."""
    with tempfile.TemporaryFile() as err:
        child = subprocess.Popen(["ergodia", *argv], stdout=subprocess.PIPE, stderr=err)
        stdout = child.stdout.read()
        child.stdout.close()
        _, status, usage = os.wait4(child.pid, 0)
        child.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        return child.returncode, stdout, err.read(), usage.ru_maxrss / 1024  # ru_maxrss is in KiB on Linux


def main() -> int:
    table, failed = entries(), 0
    for name, entry in table.items():
        with tempfile.TemporaryDirectory() as tmp:
            try:
                peak_mb = check(entry, console, Path(tmp))
            except AssertionError as e:
                failed += 1
                print(f"FAIL {name}: {e}")
                continue
        bound = entry.get("max_rss_mb")
        print(f"ok   {name}" + (f" (peak RSS {peak_mb:.1f} MB < {bound} MB)" if bound else ""))
    print(f"{len(table) - failed} of {len(table)} golden entries match")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
