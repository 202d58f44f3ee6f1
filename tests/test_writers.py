"""The chunked CSV/SVG writers, filling in per-job templates, against the per-row writers they replace."""

import json
import os
import weakref
from pathlib import Path

import golden
import numpy as np
import pytest
from oracles import traced_peak

from ergodia import cli
from ergodia.cli import _circles, _fmt, _templates, _write_csv, _write_svg
from ergodia.dynamics import SERIES_BUDGET, gamma_series
from ergodia.systems import build_bernoulli, paper_observable

HEADER = ["n", "n_over_M", "mean"]


def per_row_csv(path: Path, header, points) -> None:
    """One Python format call per value, as the gamma CSV was once written."""
    lines = [",".join(header)]
    for row in ((int(n), float(x), float(a)) for n, x, a in points):
        lines.append(",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def per_point_svg(path: Path, points, k, title) -> None:
    """The untimestamped scatter plot, one <circle> formatted per point, as once written."""
    width, height, pad = 640, 480, 50
    ys = points[:, 2]
    ylo, yhi = float(np.min(ys)), float(np.max(ys))
    if yhi - ylo < 1e-12:
        ylo, yhi = ylo - 0.5, yhi + 0.5
    span = yhi - ylo

    def sx(x):
        return pad + (x / k) * (width - 2 * pad)

    def sy(y):
        return height - pad - ((y - ylo) / span) * (height - 2 * pad)

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">']
    parts.append(f'<rect width="{width}" height="{height}" fill="white"/>')
    parts.append(
        f'<line x1="{pad}" y1="{height - pad}" x2="{width - pad}" y2="{height - pad}" stroke="black"/>'
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height - pad}" stroke="black"/>'
    )
    parts.append(f'<text x="{width // 2}" y="20" text-anchor="middle" font-size="14">{title}</text>')
    parts.append(f'<text x="{pad}" y="{height - pad + 20}" font-size="11">0</text>')
    parts.append(f'<text x="{width - pad}" y="{height - pad + 20}" font-size="11">{_fmt(k)}</text>')
    parts.append(f'<text x="4" y="{height - pad}" font-size="11">{_fmt(ylo)}</text>')
    parts.append(f'<text x="4" y="{pad}" font-size="11">{_fmt(yhi)}</text>')
    for x, y in zip(points[:, 1], ys):
        parts.append(f'<circle cx="{_fmt(sx(x))}" cy="{_fmt(sy(float(y)))}" r="1.2" fill="navy"/>')
    parts.append("</svg>")
    path.write_text("\n".join(parts) + "\n", encoding="utf-8")


def csv_rows(points):
    """(templates, means) for _write_csv, as cmd_gamma builds them."""
    return _templates("%d,%.12g,%%.12g\n", points[:, 0].astype(np.int64), points[:, 1]), points[:, 2]


def svg_rows(points, k):
    return _circles(points[:, 1], k), points[:, 2]


def gamma_points(count: int, M: int, seed: int) -> np.ndarray:
    """Rows (n, n/M, mean) whose means span signs and many magnitudes."""
    rng = np.random.default_rng(seed)
    ns = np.arange(1, count + 1, dtype=np.int64) * 3
    means = rng.standard_normal(count) * 10.0 ** rng.integers(-12, 18, count)
    specials = [-0.0, 0.0, 1e-7, -1e-7, 1e17, -1e17, 0.1, 1.0 / 3.0, 5e-324, 123456789012.5]
    means[: min(count, len(specials))] = specials[:count]
    means[count // 2] = -0.0
    return np.column_stack([ns.astype(np.float64), ns / M, means])


@pytest.mark.parametrize("chunk", [1, 7, cli.WRITE_CHUNK_ROWS])
def test_templates_are_bytes(monkeypatch, chunk):
    # bytes %, not str %, fills the varying column in; the files are written in binary mode
    monkeypatch.setattr(cli, "WRITE_CHUNK_ROWS", chunk)
    points = gamma_points(100, 7919, 2)
    for templates in (csv_rows(points)[0], svg_rows(points, 1.0)[0]):
        assert len(templates) == -(-100 // chunk)
        assert all(type(t) is bytes for t in templates)


@pytest.mark.parametrize("count", [1, 3, 8192, 20_000])
def test_csv_bytes_equal_the_per_row_writer(tmp_path, count):
    points = gamma_points(count, 7919, count)
    header = ["n", "n_over_M", "mean"]
    _write_csv(tmp_path / "new.csv", header, csv_rows(points))
    per_row_csv(tmp_path / "old.csv", header, points)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def test_csv_chunk_size_does_not_change_bytes(tmp_path, monkeypatch):
    points = gamma_points(1000, 33_334, 1)
    header = ["n", "n_over_M", "mean"]
    per_row_csv(tmp_path / "old.csv", header, points)
    for rows in (1, 7, 999, 1000):
        monkeypatch.setattr(cli, "WRITE_CHUNK_ROWS", rows)
        _write_csv(tmp_path / f"new{rows}.csv", header, csv_rows(points))
        assert (tmp_path / f"new{rows}.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def test_csv_of_no_rows_is_the_header(tmp_path):
    _write_csv(tmp_path / "e.csv", ["n", "n_over_M", "mean"], csv_rows(np.empty((0, 3))))
    assert (tmp_path / "e.csv").read_bytes() == b"n,n_over_M,mean\n"


@pytest.mark.parametrize("count,k", [(1, 1.0), (20_000, 1.0), (9000, 2.5)])
def test_svg_bytes_equal_the_per_point_writer(tmp_path, count, k):
    points = gamma_points(count, 1000, 100 + count)
    points[:, 1] *= k * 1000 / points[-1, 0]  # abscissae up to k
    _write_svg(tmp_path / "new.svg", svg_rows(points, k), k, "Gamma series, y=3, stride=1", timestamp=False)
    per_point_svg(tmp_path / "old.svg", points, k, "Gamma series, y=3, stride=1")
    assert (tmp_path / "new.svg").read_bytes() == (tmp_path / "old.svg").read_bytes()


def test_svg_of_a_flat_series(tmp_path, monkeypatch):
    # equal means widen the y range by 1/2 either side
    monkeypatch.setattr(cli, "WRITE_CHUNK_ROWS", 4)
    points = np.column_stack([np.arange(1.0, 11.0), np.arange(1, 11) / 10, np.full(10, -0.0)])
    _write_svg(tmp_path / "new.svg", svg_rows(points, 1.0), 1.0, "flat", timestamp=False)
    per_point_svg(tmp_path / "old.svg", points, 1.0, "flat")
    assert (tmp_path / "new.svg").read_bytes() == (tmp_path / "old.svg").read_bytes()


# ---- several start points filling in one set of templates ----------------

# the golden multi-start config: start points on cycles of lengths 7, 1, 1 and 7
MULTI = golden.entries()["multi-gamma"]["config"]


def gamma_argv(tmp_path, config, *flags):
    tmp_path.mkdir(parents=True, exist_ok=True)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config), encoding="utf-8")
    return ["gamma", "--config", str(cfg), "--out", str(tmp_path / "out"), *flags]


def run_gamma(tmp_path, config, *flags):
    assert cli.main(gamma_argv(tmp_path, config, *flags)) == 0
    return tmp_path / "out"


def serial(monkeypatch):
    """Pin cmd_gamma to the serial writer: one CPU in the affinity."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})


def forked(monkeypatch):
    """Force the forked writer, two CPUs and multi-gamma's 192 rows over 7 per chunk; the list the
    forks are noted in."""
    forks, fork = [], os.fork
    monkeypatch.setattr(cli, "WRITE_CHUNK_ROWS", 7)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(os, "fork", lambda: forks.append(os.getpid()) or fork())
    return forks


def contents(out: Path) -> dict[str, bytes | None]:
    """Each entry of out by name: a file's bytes, None for a directory."""
    return {p.name: p.read_bytes() if p.is_file() else None for p in out.iterdir()}


def note(log: Path, *event) -> None:
    """Append (this process's pid, *event) to log, one JSON line; both processes append to one file."""
    with open(log, "a", encoding="utf-8") as fh:
        fh.write(json.dumps([os.getpid(), *event]) + "\n")


def events(log: Path) -> list[list]:
    return [json.loads(line) for line in log.read_text(encoding="utf-8").splitlines()]


def assert_no_child_left() -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("chunk", [1, 7, 999, cli.WRITE_CHUNK_ROWS])
def test_shared_templates_write_the_per_row_bytes_for_every_start(tmp_path, monkeypatch, chunk):
    monkeypatch.setattr(cli, "WRITE_CHUNK_ROWS", chunk)
    points = gamma_points(1000, 33_334, 5)
    rows, circles = csv_rows(points)[0], svg_rows(points, 1.5)[0]
    for seed in range(3):  # one set of templates, three columns of means
        points[:, 2] = gamma_points(1000, 33_334, seed)[:, 2]
        _write_csv(tmp_path / "new.csv", HEADER, (rows, points[:, 2]))
        _write_svg(tmp_path / "new.svg", (circles, points[:, 2]), 1.5, "t", timestamp=False)
        per_row_csv(tmp_path / "old.csv", HEADER, points)
        per_point_svg(tmp_path / "old.svg", points, 1.5, "t")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
        assert (tmp_path / "new.svg").read_bytes() == (tmp_path / "old.svg").read_bytes()


@pytest.mark.parametrize("chunk", [1, 7, 999, cli.WRITE_CHUNK_ROWS])
def test_gamma_start_points_on_different_cycles_write_the_per_row_bytes(tmp_path, monkeypatch, chunk):
    monkeypatch.setattr(cli, "WRITE_CHUNK_ROWS", chunk)
    out = run_gamma(tmp_path, MULTI, "--svg", "--no-timestamp")
    T, F = build_bernoulli(2, 3, "naive"), paper_observable("chi0", 128, N=3)
    for y in MULTI["start_points"]["explicit"]:
        points, stride = gamma_series(F, T, y, 3.0, 2)
        per_row_csv(tmp_path / "old.csv", HEADER, points)
        per_point_svg(tmp_path / "old.svg", points, 3.0, f"Gamma series, y={y}, stride={stride}")
        assert (out / f"gamma_chi0_y{y}.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
        assert (out / f"gamma_chi0_y{y}.svg").read_bytes() == (tmp_path / "old.svg").read_bytes()


def test_float_n_up_to_the_series_budget_is_written_as_its_integer(tmp_path):
    # n reaches the file as a float64; %d must print it as the integer it holds
    ns = SERIES_BUDGET - np.arange(0, 3000, 3)[::-1]
    points = np.column_stack([ns.astype(np.float64), ns / 4_000_000, gamma_points(ns.size, 1, 9)[:, 2]])
    _write_csv(tmp_path / "new.csv", HEADER, csv_rows(points))
    per_row_csv(tmp_path / "old.csv", HEADER, points)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
    assert (tmp_path / "new.csv").read_text().splitlines()[-1].startswith(f"{SERIES_BUDGET},")


@pytest.mark.parametrize("starts", [[11], [11, 0, 127], [11, 0, 127, 64]])
@pytest.mark.parametrize("svg", [False, True])
def test_a_gamma_job_builds_its_templates_once(tmp_path, monkeypatch, starts, svg):
    built, templates = [], cli._templates

    def counting(line, *cols):
        built.append("circle" if line.startswith("<circle") else "csv")
        return templates(line, *cols)

    serial(monkeypatch)
    monkeypatch.setattr(cli, "_templates", counting)
    config = {**MULTI, "start_points": {"explicit": starts}}
    out = run_gamma(tmp_path, config, *(["--svg", "--no-timestamp"] if svg else []))
    assert sorted(built) == (["circle", "csv"] if svg else ["csv"])
    assert len(list(out.glob("*.csv"))) == len(starts) and len(list(out.glob("*.svg"))) == svg * len(starts)


def test_each_start_points_files_are_written_before_the_next_series(tmp_path, monkeypatch):
    # one series in memory at a time: when a start point's series is summed, the CSV and SVG
    # of the start point before it are on disk already
    starts, written, series = MULTI["start_points"]["explicit"], [], cli.gamma_series

    def checking(F, T, y, *args):
        before = starts[: starts.index(y)][-1:]
        written.append(all((tmp_path / "out" / f"gamma_chi0_y{p}.{ext}").exists()
                           for p in before for ext in ("csv", "svg")))
        return series(F, T, y, *args)

    serial(monkeypatch)
    monkeypatch.setattr(cli, "gamma_series", checking)
    run_gamma(tmp_path, MULTI, "--svg", "--no-timestamp")
    assert written == [True] * len(starts)


# ---- the files written by this process and one forked child --------------


@pytest.mark.parametrize("starts", [[11], [11, 0], [11, 0, 127]])
@pytest.mark.parametrize("svg", [False, True])
def test_the_forked_writer_writes_the_serial_bytes(tmp_path, monkeypatch, starts, svg):
    config, flags = {**MULTI, "start_points": {"explicit": starts}}, ["--svg", "--no-timestamp"] * svg
    monkeypatch.setattr(cli, "WRITE_CHUNK_ROWS", 7)
    serial(monkeypatch)
    want = contents(run_gamma(tmp_path / "serial", config, *flags))
    forks = forked(monkeypatch)
    assert contents(run_gamma(tmp_path / "forked", config, *flags)) == want
    assert len(want) == len(starts) * (1 + svg) + 1
    assert forks == [os.getpid()]  # a single CSV is cut in halves too
    assert_no_child_left()


@pytest.mark.parametrize("svg", [False, True])
def test_a_failure_only_in_the_child_writes_the_serial_bytes(tmp_path, monkeypatch, svg):
    # the child's writer raises; the parent reaps it and writes the child's files (or every CSV) itself
    flags = ["--svg", "--no-timestamp"] * svg
    serial(monkeypatch)
    want = contents(run_gamma(tmp_path / "serial", MULTI, *flags))
    parent, writer = os.getpid(), cli._write_svg if svg else cli._write_csv_rest

    def failing(*args, **kwargs):
        if os.getpid() != parent:
            note(tmp_path / "failed", "child")
            raise OSError("the child's write fails")
        return writer(*args, **kwargs)

    monkeypatch.setattr(cli, writer.__name__, failing)
    forks = forked(monkeypatch)
    assert contents(run_gamma(tmp_path / "forked", MULTI, *flags)) == want
    assert forks and [kind for _, kind in events(tmp_path / "failed")] == ["child"]
    assert_no_child_left()


def test_an_svg_target_that_is_a_directory_exits_3_as_a_serial_run(tmp_path, monkeypatch, capsys):
    # y0's SVG, the child's second file, cannot be opened; the parent's retry raises the serial error
    argv = gamma_argv(tmp_path, MULTI, "--svg", "--no-timestamp")
    (tmp_path / "out" / "gamma_chi0_y0.svg").mkdir(parents=True)
    serial(monkeypatch)
    assert cli.main(argv) == cli.EXIT_IO
    want = capsys.readouterr()
    for csv in (tmp_path / "out").glob("*.csv"):
        csv.unlink()
    forks = forked(monkeypatch)
    assert cli.main(argv) == cli.EXIT_IO
    assert forks and capsys.readouterr() == want and want.err.startswith("I/O error: [Errno 21]")
    assert_no_child_left()


@pytest.mark.parametrize("chunk, rows", [(1, 2), (1, 3), (7, 8), (7, 15), (7, 29)])
def test_csv_halves_of_any_row_count_write_the_serial_bytes(tmp_path, monkeypatch, chunk, rows):
    # R rows cut at R // 2: R = WRITE_CHUNK_ROWS + 1, so each half is shorter than a chunk at 7 rows
    # per chunk, and odd R, the second half a row longer
    config = {**MULTI, "gamma": {"k": 3.0, "stride": 384 // rows}}  # floor(k*M) = 384 means
    monkeypatch.setattr(cli, "WRITE_CHUNK_ROWS", chunk)
    serial(monkeypatch)
    want = contents(run_gamma(tmp_path / "serial", config))
    forks = forked(monkeypatch)
    monkeypatch.setattr(cli, "WRITE_CHUNK_ROWS", chunk)
    assert contents(run_gamma(tmp_path / "forked", config)) == want
    assert forks == [os.getpid()] and len(want["gamma_chi0_y11.csv"].splitlines()) == 1 + rows
    assert_no_child_left()


@pytest.mark.parametrize("fails_at", [1, 2])
def test_a_child_failing_before_its_first_write_or_after_its_first_file_writes_the_serial_bytes(
        tmp_path, monkeypatch, fails_at):
    # the child's opening of its fails_at-th CSV raises, once it has read the offset: before it
    # wrote a byte, or with the first start point's file whole; the parent writes every CSV again
    serial(monkeypatch)
    want = contents(run_gamma(tmp_path / "serial", MULTI))
    rest, os_open, begun = cli._write_csv_rest, os.open, []

    def counting(path, *args):
        begun.append(path.name)
        return rest(path, *args)

    def failing(path, *args, **kwargs):
        if len(begun) == fails_at:  # only the child calls _write_csv_rest, which opens by os.open
            note(tmp_path / "failed", begun[-1])
            raise OSError("the child's open fails")
        return os_open(path, *args, **kwargs)

    monkeypatch.setattr(cli, "_write_csv_rest", counting)
    monkeypatch.setattr(os, "open", failing)
    forks = forked(monkeypatch)
    assert contents(run_gamma(tmp_path / "forked", MULTI)) == want
    start = MULTI["start_points"]["explicit"][fails_at - 1]
    assert forks and [name for _, name in events(tmp_path / "failed")] == [f"gamma_chi0_y{start}.csv"]
    assert_no_child_left()


def test_a_csv_half_of_more_chunks_than_iov_max_is_written_by_the_child(tmp_path, monkeypatch):
    # 2,560 rows at one row per chunk: the child's half of each CSV is 1,280 chunks, more than the
    # 1,024 one writev takes on Linux; the child writes it and the parent writes each CSV once
    config = {**MULTI, "gamma": {"k": 20.0, "stride": 1}, "start_points": {"explicit": [11, 0]}}
    serial(monkeypatch)
    want = contents(run_gamma(tmp_path / "serial", config))
    assert len(want["gamma_chi0_y11.csv"].splitlines()) == 1 + 2560
    whole, written = cli._write_csv, []
    monkeypatch.setattr(cli, "_write_csv", lambda path, *args: written.append(path.name) or whole(path, *args))
    forks = forked(monkeypatch)
    monkeypatch.setattr(cli, "WRITE_CHUNK_ROWS", 1)
    assert contents(run_gamma(tmp_path / "forked", config)) == want
    assert forks == [os.getpid()] and written == ["gamma_chi0_y11.csv", "gamma_chi0_y0.csv"]
    assert_no_child_left()


def test_a_csv_target_that_is_a_directory_exits_3_as_a_serial_run(tmp_path, monkeypatch, capsys):
    # y0's CSV, the second, cannot be opened: this process raises after sending y11's offset, and
    # the child writes y11's second half, reads EOF for y0 and writes nothing more
    argv, out = gamma_argv(tmp_path, MULTI), tmp_path / "out"
    (out / "gamma_chi0_y0.csv").mkdir(parents=True)
    serial(monkeypatch)
    assert cli.main(argv) == cli.EXIT_IO
    want, written = capsys.readouterr(), contents(out)
    (out / "gamma_chi0_y11.csv").unlink()
    forks = forked(monkeypatch)
    assert cli.main(argv) == cli.EXIT_IO
    assert forks and capsys.readouterr() == want and want.err.startswith("I/O error: [Errno 21]")
    assert contents(out) == written and sorted(written) == ["gamma_chi0_y0.csv", "gamma_chi0_y11.csv"]
    assert_no_child_left()


def test_a_child_that_reads_eof_for_an_offset_writes_nothing(tmp_path, monkeypatch, capsys):
    # this process writes y0's first half and raises before it sends the offset: the child reads EOF
    # there and leaves the file as this process wrote it, the header and 96 of the 192 rows
    serial(monkeypatch)
    whole = contents(run_gamma(tmp_path / "serial", MULTI))["gamma_chi0_y0.csv"]
    parent, write_csv = os.getpid(), cli._write_csv

    def failing(path, *args):
        write_csv(path, *args)
        if os.getpid() == parent and path.name == "gamma_chi0_y0.csv":
            raise OSError("the parent's write fails")

    monkeypatch.setattr(cli, "_write_csv", failing)
    forks = forked(monkeypatch)
    assert cli.main(gamma_argv(tmp_path / "forked", MULTI)) == cli.EXIT_IO
    half = b"".join(whole.splitlines(keepends=True)[: 1 + 96])
    assert forks and (tmp_path / "forked" / "out" / "gamma_chi0_y0.csv").read_bytes() == half
    assert capsys.readouterr().err == "I/O error: the parent's write fails\n"
    assert_no_child_left()


@pytest.mark.parametrize("starts", [[11], [11, 0, 127], [11, 0, 127, 64]])
@pytest.mark.parametrize("svg", [False, True])
def test_each_process_builds_each_template_at_most_once(tmp_path, monkeypatch, starts, svg):
    log, templates = tmp_path / "events", cli._templates

    def counting(line, *cols):
        note(log, "circle" if line.startswith("<circle") else "csv")
        return templates(line, *cols)

    monkeypatch.setattr(cli, "_templates", counting)
    forks = forked(monkeypatch)
    run_gamma(tmp_path, {**MULTI, "start_points": {"explicit": starts}}, *["--svg", "--no-timestamp"] * svg)
    built = [tuple(event) for event in events(log)]
    assert len(set(built)) == len(built)
    assert {kind for _, kind in built} == ({"circle", "csv"} if svg else {"csv"})
    assert len({pid for pid, _ in built}) == 1 + len(forks) == 2


@pytest.mark.parametrize("svg", [False, True])
def test_each_process_holds_one_series_at_a_time(tmp_path, monkeypatch, svg):
    # when a process sums a series, no series it summed or inherited is alive in it; the parent sums
    # the first one before the fork, and each process every later one, once each
    log, series, summed = tmp_path / "events", cli.gamma_series, []

    def checking(F, T, y, *args):
        note(log, y, [p for p, ref in summed if ref() is not None])
        points, stride = series(F, T, y, *args)
        summed.append((y, weakref.ref(points)))
        return points, stride

    monkeypatch.setattr(cli, "gamma_series", checking)
    forks = forked(monkeypatch)
    run_gamma(tmp_path, MULTI, *["--svg", "--no-timestamp"] * svg)
    starts, by_pid = MULTI["start_points"]["explicit"], {}
    for pid, y, alive in events(log):
        assert alive == [], (pid, y, alive)
        by_pid.setdefault(pid, []).append(y)
    child = [pid for pid in by_pid if pid not in forks]
    assert by_pid.pop(forks[0]) == starts
    assert child == list(by_pid) and by_pid[child[0]] == starts[1:]


def test_the_forked_parent_peaks_no_higher_than_the_serial_writer(tmp_path, monkeypatch):
    # rotation-1e6-gamma, three start points of 100,000 rows: the forked parent writes the first
    # half of each CSV.  Each path holds one series at a time, so either peaks as one start
    # point alone does; a series kept alive past its files would add its 2.4 MB.  tracemalloc peaks
    # of one config differ by up to 8 KB of small Python objects run to run, under SLACK.
    config, SLACK = golden.entries()["rotation-1e6-gamma"]["config"], 64 << 10

    def peak(starts, cpus):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        argv = gamma_argv(tmp_path / f"{cpus}-{len(starts)}", {**config, "start_points": {"explicit": starts}})
        code, peak = traced_peak(cli.main, argv)
        assert code == 0
        return peak

    starts = config["start_points"]["explicit"]
    alone, serial_peak, forked_peak = peak(starts[:1], 1), peak(starts, 1), peak(starts, 2)
    assert forked_peak <= serial_peak + SLACK and forked_peak <= alone + SLACK, (alone, serial_peak, forked_peak)
    assert_no_child_left()


# the golden gamma RSS gates' traced twins: the config keys that take each to a quarter of its M,
# and its bounds in traced bytes per point on the serial writer and in the forked parent
TWINS = {
    "drift-4e6-gamma": ({"system": {"name": "drift", "M": 10**6}, "start_points": {"explicit": [679570]}},
                        (7.6, 6.2)),
    "debruijn-21-gamma": ({"system": {"name": "bernoulli", "m": 2, "N": 9, "mode": "debruijn"},
                           "observable": {"name": "chi0", "N": 9},
                           "start_points": {"explicit": [1000, 17, 2**19 - 1]}}, (16.4, 12.9)),
}


@pytest.mark.parametrize("name", TWINS)
@pytest.mark.parametrize("cpus", [1, 2])
def test_the_golden_gamma_rss_gates_have_traced_twins(tmp_path, monkeypatch, name, cpus):
    # the entry's job at a quarter of its M, with as many rows per start point (100,000 and
    # 104,857), in bytes per point: the serial writer and the forked parent each to its measured
    # peak plus about 0.45 MB (7.15 and 5.72 bytes per point for the drift, 15.43 and 12.02 for the
    # de Bruijn shift); one more series alive (2.4 MB) fails both
    scaled, bounds = TWINS[name]
    config = {**golden.entries()[name]["config"], **scaled}
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    code, peak = traced_peak(cli.main, gamma_argv(tmp_path, config))
    M = json.loads((tmp_path / "out" / "gamma_meta.json").read_text(encoding="utf-8"))["M"]
    assert code == 0 and peak <= bounds[cpus - 1] * M, peak / M
    assert_no_child_left()
