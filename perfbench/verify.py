"""Output checks against the reference values recorded in reference.json.

- Gamma CSVs must be byte-identical: their SHA-256 digests are compared.
- JSON reports: integer fields match exactly, float fields to 12 significant
  digits (the CSV's precision).  Only recorded fields are compared, so a
  later change may add fields.
- `check` must print PASS on every line.
- approx pipeline: only what any correct maximum matching keeps, namely the
  mismatch count and map_mismatch_fraction*M <= mismatches + transitivity seams.
- SVGs need only be well-formed XML.
"""

from __future__ import annotations

import hashlib
import json
import math
from xml.parsers import expat
from pathlib import Path

import numpy as np

FLOAT_REL = 1e-12


class Mismatch(Exception):
    pass


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def match(ref, got, where: str = "$") -> None:
    """Raise Mismatch unless every field recorded in ref has the same value in got."""
    if isinstance(ref, dict):
        if not isinstance(got, dict):
            raise Mismatch(f"{where}: expected an object")
        for k, v in ref.items():
            if k not in got:
                raise Mismatch(f"{where}.{k}: missing")
            match(v, got[k], f"{where}.{k}")
    elif isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            raise Mismatch(f"{where}: expected a list of {len(ref)}")
        for i, (r, g) in enumerate(zip(ref, got)):
            match(r, g, f"{where}[{i}]")
    elif isinstance(ref, bool) or ref is None or isinstance(ref, str):
        if got != ref or type(got) is not type(ref):
            raise Mismatch(f"{where}: {got!r} != {ref!r}")
    elif isinstance(ref, int):
        if isinstance(got, bool) or not isinstance(got, int) or got != ref:
            raise Mismatch(f"{where}: {got!r} != {ref!r}")
    elif isinstance(ref, float):
        if isinstance(got, bool) or not isinstance(got, (int, float)) or not (
                got == ref or math.isclose(got, ref, rel_tol=FLOAT_REL, abs_tol=0.0)):
            raise Mismatch(f"{where}: {got!r} != {ref!r}")
    else:
        raise TypeError(f"{where}: unsupported reference value {ref!r}")


def _load_json(path: Path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        raise Mismatch(f"{path.name}: {e}") from e


# -- what the reference records for each job kind --------------------------


def observe(job, out_dir: Path, result) -> dict:
    """The checkable outputs of a finished job, in reference form."""
    if job.kind == "gamma":
        return {"csv": sorted(digest(p) for p in out_dir.glob("*.csv")),
                "meta": _load_json(out_dir / "gamma_meta.json")}
    if job.kind == "stab":
        return {"report": _load_json(out_dir / "stab_report.json")}
    if job.kind == "approx-metrics":
        return {"report": _load_json(out_dir / "approx_report.json")}
    if job.kind == "approx-pipeline":
        report = _load_json(out_dir / "approx_report.json")
        return {"M": report["M"],
                "pipeline": [{"delta": e["delta"],
                              "matcher_mismatch_count": e["matcher_mismatch_count"]}
                             for e in report["pipeline"]]}
    if job.kind == "check":
        return {}
    if job.kind == "family":
        return {name: {"thresholds": p.thresholds.tolist(), "tail_masses": p.tail_masses.tolist(),
                       "av_abs": p.av_abs, "max_abs": p.max_abs}
                for name, p in result.items()}
    if job.kind == "synthesize":
        return {"mismatch_count": int(result[1])}
    raise ValueError(f"unknown job kind {job.kind!r}")


def check(job, out_dir: Path, stdout: str, result, ref: dict) -> None:
    """Raise Mismatch if the job's outputs disagree with its reference entry."""
    match(ref, observe(job, out_dir, result))
    if job.kind == "gamma":
        for svg in out_dir.glob("*.svg"):
            try:
                expat.ParserCreate().Parse(svg.read_bytes(), True)
            except expat.ExpatError as e:
                raise Mismatch(f"{svg.name}: {e}") from e
        if "--svg" in job.flags and len(list(out_dir.glob("*.svg"))) != len(ref["csv"]):
            raise Mismatch("one SVG per start point expected")
    elif job.kind == "check":
        lines = stdout.splitlines()
        if not lines or not all(line.startswith("PASS ") for line in lines):
            raise Mismatch(f"check printed: {stdout!r}")
    elif job.kind == "approx-pipeline":
        M = ref["M"]
        for e in _load_json(out_dir / "approx_report.json")["pipeline"]:
            seams = e["matcher_mismatch_count"] + e["transitivity_mismatch"]
            if e["map_mismatch_fraction"] * M > seams + 1e-6:
                raise Mismatch(f"delta={e['delta']}: map mismatch above matcher + seam count")
    elif job.kind == "synthesize":
        check_synthesis(job.params, *result)


def synthesis_targets(params: dict) -> np.ndarray:
    M = params["M"]
    return (np.arange(M) / M + params["t"]) % 1.0


def check_synthesis(params: dict, T, mismatches: int) -> None:
    """A valid permutation with all but `mismatches` points within delta (interval distance)."""
    M = params["M"]
    image = np.asarray(T.image)
    if image.shape != (M,) or not np.array_equal(np.sort(image), np.arange(M)):
        raise Mismatch("synthesized image is not a permutation")
    far = np.abs(image / M - synthesis_targets(params)) >= params["delta"]
    if int(far.sum()) > mismatches:
        raise Mismatch(f"{int(far.sum())} points beyond delta, {mismatches} reported")
