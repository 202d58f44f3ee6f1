"""Command-line front end: build systems, run experiments, emit CSV/JSON/SVG.

Subcommands: gamma (prefix-mean series), stab (stabilization report),
approx (approximation report), check (invariant suite).  All experiments
are driven by a JSON config file and a 64-bit seed; identical config plus
seed yields byte-identical CSV/JSON output.

Exit codes: 0 ok, 1 invariant failure, 2 config error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import checks
from .approximation import (
    _mod1,
    make_transitive,
    map_mismatch_fraction,
    synthesize_permutation,
    thickening_measure_error,
    weak_star_error,
)
from .dynamics import gamma_series
from .rng import SplitMix64
from .stabilization import (
    common_stabilization_segment,
    stabilization_segment,
    stratified_start_points,
    sup_discrepancy,
)
from .systems import (_float_param, _int_param, build_bernoulli, build_drift_system,
                      build_rotation, paper_observable)

EXIT_OK = 0
EXIT_INVARIANT = 1
EXIT_CONFIG = 2
EXIT_IO = 3

# the highest monomial degree approx metrics takes: each degree is one pass over the M grid points
MAX_DEGREE = 100


def _fmt(x: float) -> str:
    """12 significant digits, '.' decimal separator."""
    return format(float(x), ".12g")


# -- config resolution -----------------------------------------------------


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        raise ValueError(f"cannot read config {path}: {e}") from e


# the keys each config section may hold, "config" being the top level; system and approx hold those
# of the system kind or approx mode they name
KEYS = {section: set(keys.split()) for section, keys in {
    "config": "system observable start_points gamma stab approx fixtures seed",
    "system drift": "name M",
    "system rotation": "name M t",
    "system bernoulli": "name m N mode",
    "observable": "name K N m value",
    "start_points": "explicit random stratified extras",
    "gamma": "k stride",
    "stab": "epsilon eta n_min scan_limit per_point_limit pairs exceedance_epsilons",
    "approx metrics": "mode target closed_intervals thickening_epsilon mismatch_epsilons degree",
    "approx pipeline": "mode M target deltas mismatch_epsilon",
    "approx.target": "name t",
    "fixtures": "permutation_image",
}.items()}


def _section(spec, name: str, variant: str = "", default=None) -> dict:
    """spec as the config section `name`: a JSON object holding only keys that KEYS[name] lists, or,
    where its key `variant` names its kind (default if absent), those of KEYS[f"{name} {kind}"]."""
    if not isinstance(spec, dict):
        raise ValueError(f"{name} must be a JSON object, not {type(spec).__name__}")
    if variant:
        kind = spec.get(variant, default)
        if f"{name} {kind}" not in KEYS:
            raise ValueError(f"unknown {name} {variant} {kind!r}")
        name = f"{name} {kind}"
    unknown = sorted(set(spec) - KEYS[name])
    if unknown:
        raise ValueError(f"unknown key {unknown[0]!r} in {name}")
    return spec


def _list(value, key: str, length: int | None = None) -> list:
    """value if it is a JSON list, of length entries if given; a string, number or object is not one."""
    if not isinstance(value, list) or length not in (None, len(value)):
        raise ValueError(f"{key} must be a list{'' if length is None else f' of {length}'}, got {value!r}")
    return value


def _build_system(spec: dict):
    """Returns (permutation, meta dict)."""
    name = _section(spec, "system", "name")["name"]
    if name == "drift":
        M = _int_param(spec["M"], "M", 2)
        return build_drift_system(M), {"system": "drift", "M": M}
    if name == "rotation":
        M = _int_param(spec["M"], "M", 2)
        t = spec["t"]
        if t == "1/sqrt2":
            t = float(1.0 / np.sqrt(2.0))
        elif t == "2/3":
            t = 2.0 / 3.0
        t = _float_param(t, "t")
        T = build_rotation(M, t)
        P = T.orbit_index.P
        return T, {"system": "rotation", "M": M, "P": P, "t": t, "defect": abs(P / M - t)}
    # bernoulli, the one kind _section leaves
    m, N, mode = _int_param(spec["m"], "m", 2), _int_param(spec["N"], "N", 0), spec.get("mode", "debruijn")
    T = build_bernoulli(m, N, mode)
    return T, {"system": "bernoulli", "m": m, "N": N, "mode": mode, "M": T.size}


def _build_observable(spec: dict, M: int):
    spec = _section(spec, "observable")
    return paper_observable(spec["name"], M, **{k: v for k, v in spec.items() if k != "name"})


def _resolve_start_points(spec: dict, M: int, seed: int) -> list[int]:
    mode = set(_section(spec, "start_points")) - {"extras"}
    if len(mode) != 1 or ("extras" in spec and mode != {"stratified"}):
        raise ValueError("start_points takes exactly one of explicit, random, stratified; "
                          "extras goes only with stratified")
    if "explicit" in spec:
        # a repeat counts once, the first kept, as random and stratified draw no point twice
        pts = list(dict.fromkeys(_int_param(y, "explicit start point", 0)
                                 for y in _list(spec["explicit"], "explicit")))
        if any(not 0 <= y < M for y in pts):
            raise ValueError("explicit start point out of range")
    elif "random" in spec:
        pts = SplitMix64(seed).sample_points(M, _int_param(spec["random"], "random", 0))
    else:
        pts = stratified_start_points(M, _int_param(spec["stratified"], "stratified", 1),
                                      _int_param(spec.get("extras", 0), "extras", 0), seed)
    if not pts:  # gamma and stab alike need a start point
        raise ValueError("start_points selects no point")
    return pts


def _check_sums(F, T, n) -> None:
    """Refuse F if max|F| * max(n, 2) overflows: it bounds every partial sum up to horizon n,
    band midpoint sum and mean difference (the ends widened: -int8(-128) wraps).  max|F| is read
    from T.along(F), the memo the kernels read, so F.values is not built.  An infinite n is left
    to the library."""
    along = T.along(F)
    top = max(float(along.max()), -float(along.min()))
    if top and n != np.inf and max(n, 2) > sys.float_info.max / top:
        raise ValueError(f"observable {F.name}: sums over horizon {int(n)} overflow float64")


def _seed(config: dict, args) -> int:
    """--seed wins over the config's "seed", which wins over 0; any integer, used mod 2^64."""
    return _int_param(args.seed if args.seed is not None else config.get("seed", 0), "seed", -np.inf)


# -- output writers --------------------------------------------------------


# rows formatted and written per call, so the text in memory stays small
WRITE_CHUNK_ROWS = 8192


def _templates(line: str, *cols: np.ndarray) -> list[bytes]:
    """line per row of the columns cols, encoded, one bytes per WRITE_CHUNK_ROWS rows; a "%%.12g" in
    line comes out as the "%.12g" field of the column that varies, since the filled-in digits hold
    no '%'.  Each column keeps its dtype, so an int column fills a "%d" with no int() per row; bytes %
    formats "%d" and "%.12g" by the routine str % calls, so the digits are the same."""
    templates, line = [], line.encode()
    for first in range(0, len(cols[0]), WRITE_CHUNK_ROWS):
        values = [None] * (len(cols) * min(WRITE_CHUNK_ROWS, len(cols[0]) - first))
        for j, col in enumerate(cols):
            values[j :: len(cols)] = col[first : first + WRITE_CHUNK_ROWS].tolist()
        templates.append((line * (len(values) // len(cols))) % tuple(values))
    return templates


def _filled(templates: list[bytes], column: np.ndarray):
    """The templates filled in with column, one bytes per WRITE_CHUNK_ROWS rows."""
    for t, first in zip(templates, range(0, len(column), WRITE_CHUNK_ROWS), strict=True):
        yield t % tuple(column[first : first + WRITE_CHUNK_ROWS].tolist())


def _write_csv(path: Path, header: list[str], rows: tuple[list[bytes], np.ndarray]) -> None:
    """rows: (the _templates of the shared columns, the column that varies).  Bytes as _fmt
    writes each value; "%.12g" and format(x, ".12g") share one float-to-string routine."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        fh.writelines(_filled(*rows))


def _write_csv_rest(path: Path, rows: tuple[list[bytes], np.ndarray], pipe: int) -> None:
    """rows as _write_csv takes them, formatted, then written into path from the offset read from pipe."""
    chunks, offset = list(_filled(*rows)), int.from_bytes(os.read(pipe, 8), "little")
    if not offset:  # EOF, as an 8-byte write to a pipe is atomic: the rows before them were not written
        raise EOFError(f"no offset for {path}")
    with open(os.open(path, os.O_WRONLY), "wb") as fh:  # opened by fd: not truncated
        fh.seek(offset)
        fh.writelines(chunks)


def _write_json(path: Path, obj) -> None:
    # a NaN or infinity, which JSON has no token for, is a ValueError before the directory is made
    text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text + "\n", encoding="utf-8", newline="\n")


def _circles(xs: np.ndarray, k: float) -> list[bytes]:
    """_write_svg's <circle> templates for abscissae n/M on [0, k]: cx = pad + (x/k) * (width - 2*pad)."""
    return _templates('<circle cx="%.12g" cy="%%.12g" r="1.2" fill="navy"/>\n', 50 + (xs / k) * 540)


def _write_svg(path: Path, rows: tuple, k: float, title: str, timestamp: bool) -> None:
    """Self-contained scatter plot of (n/M, A_n); axes [0, k] x auto.  rows: (_circles, A_n)."""
    width, height, pad = 640, 480, 50
    circles, ys = rows
    ylo, yhi = float(np.min(ys)), float(np.max(ys))
    if yhi - ylo < 1e-12:
        ylo, yhi = ylo - 0.5, yhi + 0.5
    span = yhi - ylo

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">']
    if timestamp:
        import datetime

        parts.append(f"<!-- generated {datetime.datetime.now().isoformat()} -->")
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
    with open(path, "wb") as fh:
        fh.write(("\n".join(parts) + "\n").encode())
        for t, first in zip(circles, range(0, len(ys), WRITE_CHUNK_ROWS), strict=True):
            # the plot transform, elementwise in the same IEEE operations per point
            cy = (height - pad) - ((ys[first : first + WRITE_CHUNK_ROWS] - ylo) / span) * (height - 2 * pad)
            fh.write(t % tuple(cy.tolist()))
        fh.write(b"</svg>\n")


# -- subcommands -----------------------------------------------------------


def cmd_gamma(config: dict, args) -> int:
    T, meta = _build_system(config.get("system", {}))
    F = _build_observable(config.get("observable", {}), T.size)
    seed = _seed(config, args)
    starts = _resolve_start_points(config.get("start_points", {}), T.size, seed)
    gspec = _section(config.get("gamma", {}), "gamma")
    # k and stride are converted here and range-checked by the first series, before any file is written
    k = _float_param(gspec.get("k", 1.0), "k")
    stride = None if gspec.get("stride") is None else _int_param(gspec["stride"], "stride", 1)
    _check_sums(F, T, np.floor(k * T.size))

    out = Path(args.out)
    T.locate(starts)  # one pass over the orbit order for every start point
    # the first series range-checks k and stride before the directory is made or a process forked
    held = {starts[0]: gamma_series(F, T, starts[0], k, stride)}
    used_stride = held[starts[0]][1]
    out.mkdir(parents=True, exist_ok=True)

    def write(csv: slice | None, svg: bool, pipe: int = -1) -> None:
        # each start point's files are written, and its series dropped, before the next series is
        # summed, so one series is held at a time.  csv: the CSV rows written, all, the first half (the
        # offset each file ends at then sent through pipe) or the rest; n and n/M are formatted once
        rows = circles = None
        for y in starts:
            points = (held.pop(y) if y in held else gamma_series(F, T, y, k, stride))[0]
            base = f"gamma_{F.name.replace('/', '_')}_y{y}"  # a name may hold a '.'
            if csv is not None:  # every start point has the same stride and floor(k*M)
                rows = rows or _templates("%d,%.12g,%%.12g\n", points[csv, 0].astype(np.int64), points[csv, 1])
                if csv.start:
                    _write_csv_rest(out / f"{base}.csv", (rows, points[csv, 2]), pipe)
                else:
                    _write_csv(out / f"{base}.csv", ["n", "n_over_M", "mean"], (rows, points[csv, 2]))
                    if csv.stop:
                        with contextlib.suppress(BrokenPipeError):  # the child is gone; its status says so
                            os.write(pipe, os.path.getsize(out / f"{base}.csv").to_bytes(8, "little"))
            if svg:
                circles = circles or _circles(points[:, 1], k)
                _write_svg(out / f"{base}.svg", (circles, points[:, 2]), k,
                           f"Gamma series, y={y}, stride={used_stride}", timestamp=not args.no_timestamp)
            del points

    # where two CPUs can, a forked child writes a part: with --svg the SVGs, else each CSV's rows from
    # the middle one on, at the 8-byte offset this process sends once it has written the rows before.
    # If the child fails, its part is written here again.  A short series is written faster than a fork.
    two_cpus = hasattr(os, "fork") and hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) >= 2
    h = len(held[starts[0]][0]) // 2  # the row each CSV is cut at
    if len(held[starts[0]][0]) <= WRITE_CHUNK_ROWS or not two_cpus:
        write(slice(None), args.svg)
    else:
        mine, theirs = (slice(None), None) if args.svg else (slice(h), slice(h, None))
        r, w = os.pipe()
        pid = os.fork()
        if pid == 0:  # never returns into the caller, flushes no buffer, runs no atexit hook, calls no BLAS
            try:
                os.close(w)
                os._exit(write(theirs, args.svg, pipe=r) or 0)
            finally:  # write raised
                os._exit(1)
        os.close(r)
        try:
            write(mine, False, pipe=w)
        finally:
            os.close(w)
            status = os.waitpid(pid, 0)[1]
        if status:  # the child failed: its SVGs, or every CSV whole, are written here, as a serial run would
            write(None if args.svg else slice(None), args.svg)
    _write_json(out / "gamma_meta.json",
                {**meta, "observable": F.name, "k": k, "stride": used_stride,
                 "start_points": starts, "seed": seed})
    return EXIT_OK


def cmd_stab(config: dict, args) -> int:
    T, meta = _build_system(config.get("system", {}))
    F = _build_observable(config.get("observable", {}), T.size)
    seed = _seed(config, args)
    spec = _section(config.get("stab", {}), "stab")
    starts = _resolve_start_points(config.get("start_points", {"stratified": 100, "extras": 25}),
                                   T.size, seed)
    # epsilon and eta are required; every key is checked before the scan, eta and L < K here with
    # the library's messages, n_min <= scan_limit by stabilization_segment before it scans
    eps, eta = _epsilon(spec["epsilon"], "epsilon"), _float_param(spec["eta"], "eta")
    if not 0 < eta < 1:
        raise ValueError("eta must be in (0, 1)")
    n_min = _int_param(spec.get("n_min", 1), "n_min", 1)
    scan_limit = _int_param(spec.get("scan_limit", T.size), "scan_limit", 1)
    report: dict = {**meta, "observable": F.name, "epsilon": eps, "eta": eta,
                    "n_min": n_min, "scan_limit": scan_limit, "seed": seed}
    limit = _int_param(spec.get("per_point_limit", 16), "per_point_limit", 0)
    pairs = [[_int_param(h, "pair horizon", 1) for h in _list(pair, "pair [K, L]", 2)]
             for pair in _list(spec.get("pairs", []), "pairs")]
    if any(not 1 <= L < K for K, L in pairs):
        raise ValueError("require 1 <= L < K")
    # every exceedance epsilon is checked before the scan, with or without pairs
    epsilons = _list(spec.get("exceedance_epsilons", [eps]), "exceedance_epsilons")
    checked = [_epsilon(e, "exceedance epsilon") for e in epsilons]
    _check_sums(F, T, max([scan_limit] + [K for K, _ in pairs]))
    # one scan over every start point; the report lists the first `limit` of them, each capped
    # where its band held to scan_limit
    K_star, witness = stabilization_segment(F, T, starts, n_min, eps, scan_limit)
    report["per_point_segments"] = [
        {"y": y, "K_star": k, "witness": w, "capped": k == scan_limit}
        for y, k, w in zip(starts[:limit], K_star[:limit].tolist(), witness[:limit].tolist())]

    k, w, excluded = common_stabilization_segment(K_star, witness, eta)
    report["common_segment"] = {"K_star": k, "witness": w, "capped": k == scan_limit,
                                "excluded_fraction": excluded, "sample_size": len(starts)}

    report["discrepancies"] = [  # one pass serves every pair
        {"K": K, "L": L, "sup_disc": sup, **{f"exceedance@{e}": frac[c] for e, c in zip(epsilons, checked)}}
        for (K, L), (sup, frac) in zip(pairs, sup_discrepancy(F, T, pairs, checked))]

    _write_json(Path(args.out) / "stab_report.json", report)
    return EXIT_OK


def cmd_approx(config: dict, args) -> int:
    # each mode checks its epsilons (and pipeline its deltas) before any work; the library checks the targets
    spec = _section(config.get("approx", {}), "approx", "mode", "metrics")
    metrics = spec.get("mode", "metrics") == "metrics"
    report = _approx_metrics(config, spec) if metrics else _approx_pipeline(spec)
    _write_json(Path(args.out) / "approx_report.json", report)
    return EXIT_OK


def _epsilon(value, key: str) -> float:
    """value as a finite float > 0, as stab's epsilons are (NaN is refused); ValueError otherwise."""
    eps = _float_param(value, key)
    if not 0 < eps < np.inf:
        raise ValueError(f"{key} must be positive and finite, got {eps!r}")
    return eps


def _approx_metrics(config: dict, spec: dict) -> dict:
    # every epsilon given is checked, whether or not an interval or a target reads it; an absent one is 2/M
    thickening_eps = (_epsilon(spec["thickening_epsilon"], "thickening_epsilon")
                      if "thickening_epsilon" in spec else None)
    # keyed by the raw config values, so 1 and 1.0 are one entry; strings only in the report
    mismatch_eps = ({e: _epsilon(e, "mismatch epsilon")
                     for e in _list(spec["mismatch_epsilons"], "mismatch_epsilons")}
                    if "mismatch_epsilons" in spec else None)
    T, meta = _build_system(config.get("system", {}))
    if meta["system"] == "bernoulli":
        # the test functions, closed intervals and target maps live on [0, 1)
        raise ValueError("metrics mode needs a drift or rotation system")
    # the grid points y/M: the drift approximates a map of the interval, a rotation one of the circle
    x = np.arange(T.size) / T.size
    circle = meta["system"] == "rotation"
    degree = _int_param(spec.get("degree", 3), "degree", 0)
    if degree > MAX_DEGREE:
        raise ValueError(f"degree must be at most {MAX_DEGREE}, got {degree}")
    thickening_eps = 2.0 / T.size if thickening_eps is None else thickening_eps
    thickening, mismatch = {}, {}
    for iv in _list(spec.get("closed_intervals", []), "closed_intervals"):
        interval = tuple(_float_param(e, "closed interval end") for e in _list(iv, "closed interval"))
        thickening[tuple(iv)] = thickening_measure_error(x, interval, thickening_eps, circle=circle)
    if "target" in spec:
        targets = _target_images(spec["target"], x)
        for key, eps in ({2.0 / T.size: 2.0 / T.size} if mismatch_eps is None else mismatch_eps).items():
            mismatch[key] = map_mismatch_fraction(T, targets, eps, circle=circle)
    lengths = T.orbit_index.lengths
    return {**meta,
            "weak_star_errors": weak_star_error(x, degree),
            "thickening_errors": {str(k): v for k, v in thickening.items()},
            "map_mismatch": {str(k): v for k, v in mismatch.items()},
            "cycle_count": lengths.size,
            "cycle_lengths": lengths[:100].tolist()}


def _approx_pipeline(spec: dict) -> dict:
    # a mismatch_epsilon given is checked with or without deltas; an absent one is 10 * delta
    fixed_eps = _epsilon(spec["mismatch_epsilon"], "mismatch_epsilon") if "mismatch_epsilon" in spec else None
    M = _int_param(spec["M"], "M", 1)
    deltas = [_epsilon(delta, "delta") for delta in _list(spec.get("deltas", [2.0 / M]), "deltas")]
    target = spec.get("target", {"name": "rotation", "t": 0.618033988749895})
    targets = _target_images(target, np.arange(M) / M)
    curve = []
    for delta in deltas:
        T_delta, mismatches = synthesize_permutation(M, targets, delta)
        C, B = make_transitive(T_delta)
        eps = 10.0 * delta if fixed_eps is None else fixed_eps
        curve.append({
            "delta": delta,
            "matcher_mismatch_count": mismatches,
            "cycle_count_before_merge": max(1, len(B)),
            "transitivity_mismatch": len(B),
            "map_mismatch_fraction": map_mismatch_fraction(C, targets, eps, circle=True),
            "mismatch_epsilon": eps,
        })
        del T_delta, C, B  # not held through the next delta's synthesis
    return {"M": M, "target": target, "pipeline": curve}


def _target_images(spec: dict, x):
    """The points x of [0, 1) under the target map spec names, mod 1 by _mod1; only a rotation takes a t."""
    name = _section(spec, "approx.target").get("name")
    if name in ("identity", "doubling") and "t" in spec:
        raise ValueError(f"target map {name!r} takes no t")
    if name == "identity":
        return x
    if name == "rotation":
        t = _float_param(spec["t"], "t")
        if not np.isfinite(t):
            raise ValueError(f"rotation t must be finite, got {t!r}")
        return _mod1(x + t)
    if name == "doubling":
        return _mod1(2.0 * x)
    raise ValueError(f"unknown target map name {name!r}")


def cmd_check(config: dict, args) -> int:
    fixtures = _section(config.get("fixtures", {}), "fixtures")
    # entries must be integers, and null is no list; a negative entry is left to the bijection check
    fixture = (np.array([_int_param(v, "permutation_image entry", -np.inf)
                         for v in _list(fixtures["permutation_image"], "permutation_image")], np.int64)
               if "permutation_image" in fixtures else None)
    results = checks.run_all(fixture)
    failed = [r for r in results if not r[1]]
    for name, ok, detail in results:
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    for name, ok, detail in failed:
        print(json.dumps({"invariant": name, "detail": detail}), file=sys.stderr)
    return EXIT_INVARIANT if failed else EXIT_OK


# -- entry point -----------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="ergodia",
                                     description="finite ergodic-mean experiments")
    parser.add_argument("command", choices=["gamma", "stab", "approx", "check"])
    parser.add_argument("--config", required=False, help="JSON config file")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="64-bit seed override")
    parser.add_argument("--svg", action="store_true", help="also emit SVG plots")
    parser.add_argument("--no-timestamp", action="store_true",
                        help="suppress the timestamp comment in SVG output")
    args = parser.parse_args(argv)

    # the one place where a bad config value becomes exit 2; OverflowError is a value too large
    # for an int64 or a float-to-int conversion, MemoryError an M too large to allocate
    try:
        config = _section(_load_config(args.config), "config") if args.config else {}
        command = {"gamma": cmd_gamma, "stab": cmd_stab, "approx": cmd_approx, "check": cmd_check}
        return command[args.command](config, args)
    except KeyError as e:
        print(f"config error: missing key {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (TypeError, ValueError, OverflowError, MemoryError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as e:
        print(f"I/O error: {e}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
