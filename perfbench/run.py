"""aoilab benchmark: one workload, measured end to end or traced by layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload mc-narrow --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

The workloads, metrics and bounds are listed in ``BENCHMARK.json``.  Each
run starts the workload in a fresh interpreter (``perfbench/child.py``) that
imports aoilab from ``src`` with one BLAS/OpenMP thread.  With ``--trace 0``
six more interpreters only set up, and ``setup_s`` is the median of the
seven set-up times, from interpreter start to the start of the timed section.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it is
the run record, which is also written to ``perfbench/out/``.

End-to-end metrics (``--trace 0``):

* ``wall_ref`` - wall time of the median repetition of the workload over
  the median time of a fixed reference loop that runs before every
  repetition, in the same process (on each CPU, for a worker pool).  The
  shared machine's speed drifts by up to 1.8x over minutes; the ratio
  cancels that drift, and a slower program still raises it in proportion.
  The raw median (``wall_s``), the fastest repetition, the reference time
  and every repetition are in the record, and ``--trace 1`` reports the raw
  values as ``e2e.*``.
* ``setup_s`` - median set-up time, see above.
* ``peak_rss_mb`` - larger of the workload process's and its pool workers'
  peak resident set size.

``--smoke`` runs every workload at tiny size with and without tracing and
checks that every metric in ``BENCHMARK.json`` is reported with its unit,
that span self times stay within the traced wall time, and that traced and
untraced outputs are bit-identical.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
OUT = HERE / "out"
SETUP_PROBES = 6
DEADLINE_S = 170.0  # the whole run, probes included

E2E_UNITS = {"wall_ref": "ref", "setup_s": "s", "peak_rss_mb": "MB"}


class BenchError(Exception):
    pass


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _spawn(args: list[str], deadline: float) -> tuple[float, dict]:
    """Run the child to completion; returns its start time and last-line record."""
    started = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(CHILD), *args], cwd=ROOT, env=_child_env(),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the child and its pool workers
        proc.communicate()
        raise BenchError(f"workload process timed out: {' '.join(args)}") from None
    if proc.returncode != 0:
        raise BenchError(f"workload process exited with {proc.returncode}:\n{err[-4000:]}")
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError(f"workload process printed nothing:\n{err[-4000:]}")
    return started, json.loads(lines[-1])


def _git_sha() -> str:
    """HEAD of the checkout, read from ``.git`` without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def measure(workload: str, seed: int, seconds: float, trace: int,
            tiny: bool = False) -> tuple[dict, dict]:
    """One benchmark run; returns the result object and the run record."""
    deadline = time.monotonic() + DEADLINE_S
    base = ["--workload", workload, "--seed", str(seed)] + (["--tiny"] if tiny else [])
    setups = []
    if not trace:
        for _ in range(SETUP_PROBES):
            started, probe = _spawn(base + ["--setup-only"], deadline)
            setups.append(probe["setup_mark"] - started)
    spans_out = OUT / f"spans-{workload}-seed{seed}.json"
    traced = ["--spans-out", str(spans_out)] if trace else []
    started, record = _spawn(
        base + ["--seconds", str(seconds), "--trace", str(trace)] + traced, deadline
    )
    setups.append(record["setup_mark"] - started)

    if trace:
        metrics = record.pop("metrics")
        record["spans_file"] = str(spans_out.relative_to(ROOT))
    else:
        values = {
            "wall_ref": record["wall_ref"],
            "setup_s": statistics.median(setups),
            "peak_rss_mb": record["peak_rss_mb"],
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in E2E_UNITS.items()}
        record["setup_s_samples"] = setups
    record["git_sha"] = _git_sha()
    record["nproc"] = os.cpu_count()
    record["cpus_usable"] = len(os.sched_getaffinity(0))
    result = {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }
    return result, record


def _load_benchmark() -> dict:
    path = ROOT / "BENCHMARK.json"
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read {path}: {exc}") from exc


def smoke(bench: dict) -> list[str]:
    """Problems found by running every workload at tiny size, both modes."""
    problems = []
    for entry in bench["workloads"]:
        name = entry["name"]
        plain, plain_record = measure(name, 1, 1.0, 0, tiny=True)
        traced, traced_record = measure(name, 1, 1.0, 1, tiny=True)
        for result, group in ((plain, "end_to_end"), (traced, "per_layer")):
            for metric in bench[group]:
                got = result["metrics"].get(metric["name"])
                if got is None or got.get("unit") != metric["unit"]:
                    problems.append(f"{name}: {group} metric {metric['name']} reported as {got}")
        problems += [
            f"{name}: {f['name']}: {f['detail']}"
            for f in traced_record["failures"] if f["name"] == "span self times within wall time"
        ]
        if plain_record["digest"] != traced_record["traced_digest"]:
            problems.append(f"{name}: traced outputs differ from untraced outputs")
        print(f"smoke {name}: correct={plain['correct']} attempted={plain['attempted']} "
              f"failed={plain['failed']} metrics={len(plain['metrics'])}+{len(traced['metrics'])}")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="aoilab benchmark")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny self-check of the benchmark")
    args = parser.parse_args(argv)
    try:
        if not (ROOT / "src" / "aoilab" / "__init__.py").is_file():
            raise BenchError(f"no aoilab sources under {ROOT / 'src'}")
        bench = _load_benchmark()
        if args.smoke:
            problems = smoke(bench)
            for problem in problems:
                print(f"smoke problem: {problem}", file=sys.stderr)
            return 1 if problems else 0
        names = [w["name"] for w in bench["workloads"]]
        if args.workload not in names:
            parser.error(f"--workload must be one of {names}")
        seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
        result, record = measure(args.workload, args.seed, seconds, args.trace)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    record_path = OUT / f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
