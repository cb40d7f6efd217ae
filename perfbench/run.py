"""rotenc benchmark: train and inference throughput, with a traced per-layer run.

Run from the repository root:

    python3 perfbench/run.py --workload train-paper --seed 1 --seconds 50 --trace 0

Workloads are defined in ``workloads.py`` and listed, with the reason for
each, in ``BENCHMARK.json``. ``--trace 0`` measures the end-to-end metrics
with tracing off; ``--trace 1`` runs fixed units of the same work alternately
untraced and traced and reports per-layer metrics. The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it list every metric with its
unit, the sample counts and the environment. A run record (and, for a traced
run, its spans) is written under ``perfbench/out/``.

The exit code is 0 when every correctness gate passes, 1 when one fails (the
result line then says ``"correct": false``) and 2 when the program under test
cannot be found next to the benchmark, in which case no result is printed.
The benchmark pins BLAS to one thread before numpy is imported.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = BENCH_DIR / "out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def pin_threads() -> None:
    for var in THREAD_VARS:
        os.environ[var] = "1"


def import_program() -> bool:
    """Put ``<root>/src`` first on the path and import rotenc from there only."""
    src = ROOT / "src"
    if not (src / "rotenc" / "__init__.py").is_file():
        return False
    sys.path.insert(0, str(src))
    import rotenc

    return Path(rotenc.__file__).resolve().is_relative_to(src.resolve())


def git_sha(root: Path) -> str:
    """HEAD commit read from ``.git`` without running git; 'none' outside a clone."""
    git = root / ".git"
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
    return "none"


def source_digest(root: Path) -> str:
    """sha256 over the program's source files, identifying the code without git."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(workload: str, seed: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model(),
        "platform": platform.platform(),
        "git_sha": git_sha(ROOT),
        "src_sha256": source_digest(ROOT),
        "workload": workload,
        "seed": seed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not import_program():
        print(f"rotenc sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    env = environment(args.workload, args.seed)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    session = workloads.Session(workloads.WORKLOADS[args.workload], args.seed, OUT_DIR / stem)
    session.setup()
    if args.trace:
        metrics = session.run_traced(args.seconds, OUT_DIR / f"{stem}.spans.jsonl.gz")
    else:
        session.run_timed(args.seconds)
        metrics = session.end_to_end()
    gates = session.check()
    summary = session.summary()
    correct = all(gates.values())

    for name, (value, unit) in metrics.items():
        print(f"{name:<40} {value:>16.6g} {unit}")
    for name, value in summary.items():
        print(f"{name:<40} {value}")
    for name, ok in gates.items():
        print(f"gate {name:<35} {'PASS' if ok else 'FAIL'}")
    print("env " + json.dumps(env))
    record = {"env": env, "metrics": metrics, "summary": summary, "gates": gates, "samples": session.samples()}
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({
        "correct": correct,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    pin_threads()
    sys.exit(main())
