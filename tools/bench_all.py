"""Run every ``benchmarks/bench_*.py`` and merge the JSON into one file.

The perf trajectory of this repo lives in the JSON the gated benchmarks
emit (``bench_backends``, ``bench_frontend``, ``bench_imaging``,
``bench_noise``, ``bench_serving``, ``bench_sharding``, ``bench_training``
— each a standalone ``main(argv) -> exit code`` script writing a
payload).  One invocation runs the whole directory and merges everything
into ``BENCH_<rev>.json`` (``<rev>`` = short git revision), so each PR
leaves exactly one comparable snapshot and CI uploads it as a workflow
artifact.  Gradient timing lives in ``bench_backends`` (the fused
workspace against loop re-execution) and in ``perfbench``'s
``training.gradient`` layer; the agreement of the gradient drive with its
per-gate oracle is a tier-1 test.

Two benchmark flavours are discovered automatically:

- **JSON-gate scripts** (the file defines ``def main(``): run as
  ``python benchmarks/bench_X.py <tmp.json>``; their payload is merged
  verbatim and their exit code is the gate verdict.
- **pytest-benchmark suites** (everything else, e.g. the fig4/table1
  reproduction timings): run as ``pytest --benchmark-only
  --benchmark-json=<tmp.json>``; the per-benchmark ``(name, mean,
  stddev, rounds)`` stats are merged.

Usage::

    PYTHONPATH=src python tools/bench_all.py                  # all benches
    PYTHONPATH=src python tools/bench_all.py --select backends sharding
    PYTHONPATH=src python tools/bench_all.py --gates-only     # CI set
    PYTHONPATH=src python tools/bench_all.py --out-dir bench-artifacts
    PYTHONPATH=src python tools/bench_all.py --list

Exit status is non-zero if any selected benchmark fails its gates (or
errors), so CI can use this as the single perf step.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = REPO_ROOT / "benchmarks"


def discover() -> List[Path]:
    return sorted(BENCH_DIR.glob("bench_*.py"))


def is_json_gate(path: Path) -> bool:
    """JSON-gate scripts expose ``main(argv)``; pytest suites do not."""
    return "def main(" in path.read_text(encoding="utf-8")


def git_rev() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            check=True,
        )
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def _subenv() -> Dict[str, str]:
    import os

    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src if not existing else f"{src}{os.pathsep}{existing}"
    return env


def run_one(path: Path, timeout: float) -> Dict:
    """Run one benchmark file; returns its merged-record dict."""
    name = path.stem
    kind = "json-gate" if is_json_gate(path) else "pytest-benchmark"
    record: Dict = {"kind": kind}
    with tempfile.TemporaryDirectory() as tmp:
        out_json = Path(tmp) / f"{name}.json"
        if kind == "json-gate":
            cmd = [sys.executable, str(path), str(out_json)]
        else:
            cmd = [
                sys.executable,
                "-m",
                "pytest",
                str(path),
                "--benchmark-only",
                "-q",
                f"--benchmark-json={out_json}",
            ]
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(
                cmd,
                cwd=REPO_ROOT,
                env=_subenv(),
                capture_output=True,
                text=True,
                timeout=timeout,
            )
            record["exit_code"] = proc.returncode
            record["passed"] = proc.returncode == 0
            if proc.returncode != 0:
                # Keep the tail so a red merged artifact is debuggable.
                record["stderr_tail"] = (proc.stderr or proc.stdout)[-2000:]
        except subprocess.TimeoutExpired:
            record["exit_code"] = None
            record["passed"] = False
            record["stderr_tail"] = f"timed out after {timeout}s"
        record["seconds"] = round(time.perf_counter() - t0, 3)
        if out_json.exists():
            try:
                payload = json.loads(out_json.read_text(encoding="utf-8"))
            except json.JSONDecodeError:
                payload = None
            if payload is not None:
                if kind == "json-gate":
                    record["payload"] = payload
                else:
                    record["stats"] = [
                        {
                            "name": b.get("name"),
                            "mean_s": b.get("stats", {}).get("mean"),
                            "stddev_s": b.get("stats", {}).get("stddev"),
                            "rounds": b.get("stats", {}).get("rounds"),
                        }
                        for b in payload.get("benchmarks", [])
                    ]
    return record


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--select",
        nargs="+",
        metavar="SUBSTR",
        help="only run benchmarks whose filename contains a given substring",
    )
    parser.add_argument(
        "--skip",
        nargs="+",
        default=[],
        metavar="SUBSTR",
        help="skip benchmarks whose filename contains a given substring",
    )
    parser.add_argument(
        "--gates-only",
        action="store_true",
        help="run only the JSON-gate scripts (the CI perf-floor set)",
    )
    parser.add_argument(
        "--out-dir",
        type=Path,
        default=REPO_ROOT / "bench-artifacts",
        help="directory for the merged BENCH_<rev>.json (default: "
        "bench-artifacts/)",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=1800.0,
        help="per-benchmark timeout in seconds (default 1800)",
    )
    parser.add_argument(
        "--list", action="store_true", help="list discovered benchmarks"
    )
    args = parser.parse_args(argv)

    benches = discover()
    if args.gates_only:
        benches = [b for b in benches if is_json_gate(b)]
    if args.select:
        benches = [
            b for b in benches if any(s in b.stem for s in args.select)
        ]
    benches = [
        b for b in benches if not any(s in b.stem for s in args.skip)
    ]
    if args.list:
        for b in benches:
            kind = "json-gate" if is_json_gate(b) else "pytest-benchmark"
            print(f"{b.stem:40s} {kind}")
        return 0
    if not benches:
        print("no benchmarks selected", file=sys.stderr)
        return 1

    rev = git_rev()
    merged: Dict = {
        "rev": rev,
        "python": sys.version.split()[0],
        "benches": {},
    }
    failed: List[str] = []
    for path in benches:
        print(f"== {path.stem} ==", flush=True)
        record = run_one(path, args.timeout)
        merged["benches"][path.stem] = record
        status = "ok" if record["passed"] else "FAIL"
        print(f"   {status} in {record['seconds']}s", flush=True)
        if not record["passed"]:
            failed.append(path.stem)

    args.out_dir.mkdir(parents=True, exist_ok=True)
    out_path = args.out_dir / f"BENCH_{rev}.json"
    out_path.write_text(
        json.dumps(merged, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"\nmerged benchmark JSON written to {out_path}")
    if failed:
        print(f"FAILED gates: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
