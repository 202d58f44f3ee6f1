"""The chunked CSV/SVG writers, filling in per-job templates, against the per-row writers they replace."""

import json
from pathlib import Path

import golden
import numpy as np
import pytest

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


def run_gamma(tmp_path, config, *flags):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config), encoding="utf-8")
    out = tmp_path / "out"
    assert cli.main(["gamma", "--config", str(cfg), "--out", str(out), *flags]) == 0
    return out


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

    monkeypatch.setattr(cli, "gamma_series", checking)
    run_gamma(tmp_path, MULTI, "--svg", "--no-timestamp")
    assert written == [True] * len(starts)
