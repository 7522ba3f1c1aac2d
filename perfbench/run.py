"""Run one workload of the repository benchmark and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload query-100k [--seed N] [--seconds S] [--trace 0|1]

``BENCHMARK.json`` at the root names the workloads and every metric with
its unit.  ``--trace 0`` measures the end-to-end metrics untraced;
``--trace 1`` measures the per-layer ledger (half the time untraced,
half traced, so the tracing overhead is reported too).  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 0 only when every answer
was right.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench-work"
DEFAULT_SEED = 20120401


def _load_spec() -> dict:
    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(
            f"perfbench: no program source at {SRC / 'repro'}; run from the "
            "root of a full checkout"
        )
    return json.loads(spec_path.read_text())


def _run(workload: str, seed: int, seconds: float, trace: bool, workdir: Path):
    import inproc
    import serve

    if workload == "serve-2k":
        return serve.run(seed, seconds, trace, workdir, ROOT)
    kind = workload.split("-", 1)[0]
    return inproc.run(kind, seed, seconds, trace, workdir)


def render(outcome, spec: dict, trace: bool) -> tuple[list[str], dict]:
    """Human-readable ledger lines and the JSON result.

    Every declared metric appears; a per-layer metric that the workload
    never exercises reads 0 with 0 samples.  A measured name missing
    from ``BENCHMARK.json`` is a benchmark bug and raises.
    """
    sections = (("end_to_end", outcome.e2e), ("per_layer", outcome.layers))
    lines, chosen = [], {}
    for section, measured in sections:
        declared = {m["name"]: m["unit"] for m in spec[section]}
        unknown = sorted(set(measured) - set(declared))
        if unknown:
            raise KeyError(f"{section} metrics missing from BENCHMARK.json: {unknown}")
        if section == "per_layer" and not trace:
            continue
        lines.append(f"# {section}")
        metrics = {}
        for name, unit in declared.items():
            value, samples = measured.get(name, (0.0, 0))
            lines.append(f"{name:40s} {value:>14.6g} {unit:8s} n={samples}")
            metrics[name] = {"value": value, "unit": unit}
        if (section == "per_layer") == trace:
            chosen = metrics
    lines.append(
        f"# attempted {outcome.attempted}, failed {outcome.failed}, "
        f"failed_share {outcome.failed / max(outcome.attempted, 1):.6g}"
    )
    lines.extend(f"# {note}" for note in outcome.notes)
    lines.extend(f"# WRONG: {message}" for message in outcome.errors)
    result = {
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": chosen,
    }
    return lines, result


def main(argv=None) -> int:
    spec = _load_spec()
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        sys.exit(f"perfbench: imported {repro.__file__}, not the checkout's source")

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=[w["name"] for w in spec["workloads"]]
    )
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workdir = WORKDIR / f"{args.workload}-{args.seed}"
    try:
        outcome = _run(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if WORKDIR.is_dir() and not any(WORKDIR.iterdir()):
            WORKDIR.rmdir()
    lines, result = render(outcome, spec, bool(args.trace))
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
