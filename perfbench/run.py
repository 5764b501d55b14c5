"""End-to-end benchmark of whole ``grade`` / ``calibrate`` runs.

Usage, from the repository root::

    python3 perfbench/run.py --workload grade-cold --seed 0 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 10 --trace 1

One process runs one workload (so ``peak_rss_mb`` is that workload's),
with ``n_jobs=1`` and BLAS threads pinned to the visible cores.  It sets
the workload up ``setup_repeats`` times and computes its reference
reports once (``setup_s`` is the import time plus the reference time
plus the median set-up), then times the workload's ``passes`` passes,
and more until ``--seconds`` have gone by.  ``wall_s`` is the median
pass.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
alternates untraced and traced passes and reports the per-layer metrics
of :mod:`tracing` plus the tracing overhead, and prints the stage-share
table.  ``--workload all`` runs each workload in its own child process
and prints a summary.  The exit code is 1 when any output check fails.

Outputs are checked every pass: at the default seed each design's
result report must hash to ``spec.json``'s reference; at any seed
``grade-warm`` must reproduce the cold reports its set-up computed,
``edit-replay`` the cold reports of the edited designs, and every pass
the first pass's bytes.  The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC = os.path.join(HERE, "spec.json")
NPROC = len(os.sched_getaffinity(0))
# pinned before numpy loads its BLAS
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(NPROC)


def _declared() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def declared_metrics(kind: str) -> dict[str, str]:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them."""
    return {m["name"]: m["unit"] for m in _declared()[kind]}


def _du(path: str | None) -> int:
    if not path or not os.path.isdir(path):
        return 0
    total = 0
    for base, _dirs, files in os.walk(path):
        for f in files:
            try:
                total += os.path.getsize(os.path.join(base, f))
            except OSError:
                pass
    return total


def _git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def host_record(spec: dict) -> dict:
    import numpy

    return {
        "nproc": NPROC,
        "assumed_cores": spec["assumed_cores"],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": NPROC,
        "commit": _git_commit(),
    }


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class Run:
    """One workload's set-up, timed passes and output checks."""

    def __init__(self, workload, references: dict[str, str] | None):
        self.w = workload
        self.references = references
        self.first: dict[str, str] = {}
        self.digests: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.faults = 0

    def check(self, design: str, text: str) -> str | None:
        """Why this report is wrong, or None."""
        digest = _sha(text)
        self.digests[design] = digest
        if self.references is not None and digest != self.references.get(design):
            return f"sha256 {digest[:16]} differs from the default-seed reference"
        expected = self.w.expected.get(design)
        if expected is not None and text != expected:
            return "report differs from the cold reference computed in set-up"
        first = self.first.setdefault(design, text)
        if text != first:
            return "report differs from this run's first pass"
        return None

    def one_pass(self, tracer=None) -> tuple[float, int]:
        """Run the timed pass; returns (wall seconds, store bytes written)."""
        if tracer is None:
            store_dir = self.w.prepare()
        else:
            from tracing import Tracer

            prep = Tracer()  # the untimed build before the pass
            prep.install()
            try:
                store_dir = self.w.prepare()
            finally:
                prep.uninstall()
            tracer.note_build(prep)
        before = _du(store_dir)
        outputs = {}
        if tracer is not None:
            tracer.install()
        t0 = time.perf_counter()
        try:
            for design in self.w.designs:
                self.attempted += 1
                try:
                    outputs[design] = self.w.run_design(design, store_dir)
                except Exception:  # a failed design run is counted, not fatal
                    self.failed += 1
                    print(f"{self.w.name} {design}: run failed", file=sys.stderr)
                    traceback.print_exc()
        finally:
            wall = time.perf_counter() - t0
            if tracer is not None:
                tracer.uninstall()
        self.faults = 0
        for design, (text, n_faults) in outputs.items():
            self.faults += n_faults
            why = self.check(design, text)
            if why is not None:
                self.failed += 1
                print(f"{self.w.name} {design}: {why}", file=sys.stderr)
        return wall, _du(store_dir) - before


def measure(run: Run, seconds: float, trace: bool):
    """Timed passes; returns (untraced walls, traced walls, tracers, bytes).

    At least the workload's ``passes``, then more until ``seconds`` of
    passes have gone by; with ``trace`` every second pass is traced.
    """
    from tracing import Tracer

    plain, traced, tracers, written = [], [], [], []
    start = time.perf_counter()
    i = 0
    while i < run.w.passes or time.perf_counter() - start < seconds:
        if trace and i % 2 == 1:
            tracer = Tracer()
            wall, nbytes = run.one_pass(tracer)
            traced.append(wall)
            tracers.append(tracer)
            written.append(nbytes)
        else:
            wall, _ = run.one_pass()
            plain.append(wall)
        i += 1
    return plain, traced, tracers, written


def run_workload(args) -> int:
    sys.path.insert(0, HERE)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        import workloads
    except ImportError as exc:
        print(f"error: cannot import the program under test: {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - _T0
    with open(SPEC, encoding="utf-8") as f:
        spec = json.load(f)
    host = host_record(spec)
    print("host:", json.dumps(host, sort_keys=True))
    if NPROC < spec["assumed_cores"]:
        print(
            f"warning: host has {NPROC} core(s); the benchmark assumes "
            f"{spec['assumed_cores']}",
            file=sys.stderr,
        )
    references = None
    if args.seed == spec["default_seed"]:
        references = spec["references"][args.workload]
    work = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{os.getpid()}")
    workload = workloads.WORKLOADS[args.workload](
        workloads.Seeds.from_seed(args.seed), work, spec["workloads"][args.workload]
    )
    try:
        setups = []
        for _ in range(workload.setup_repeats):
            t0 = time.perf_counter()
            workload.setup()
            setups.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        workload.references()
        references_s = time.perf_counter() - t0
        run = Run(workload, references)
        plain, traced, tracers, written = measure(run, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass
    wall = statistics.median(plain)
    setup_s = import_s + references_s + statistics.median(setups)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    error_rate = run.failed / run.attempted
    print(
        f"{args.workload}: seed {args.seed}, {len(plain)} untraced and "
        f"{len(traced)} traced passes, {run.faults} collapsed faults per pass"
    )
    print(
        f"  wall_s        {wall:.4f} s (median of {len(plain)}: "
        + ", ".join(f"{w:.3f}" for w in plain)
        + ")"
    )
    print(f"  faults_per_s  {run.faults / wall:.2f} 1/s")
    print(
        f"  setup_s       {setup_s:.4f} s (imports {import_s:.3f} s + references "
        f"{references_s:.3f} s + median of {len(setups)} set-ups)"
    )
    print(f"  peak_rss_mb   {rss_mb:.1f} MB")
    print(
        f"  error_rate    {error_rate:.4f} ratio "
        f"({run.failed}/{run.attempted} design runs failed)"
    )
    print("  digests:", json.dumps(run.digests, sort_keys=True))
    if args.trace:
        per_pass = [t.metrics(w, b) for t, w, b in zip(tracers, traced, written)]
        metrics = {
            name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]
        }
        metrics["trace.overhead_ratio"] = statistics.median(traced) / wall
        mid = sorted(range(len(traced)), key=lambda k: traced[k])[len(traced) // 2]
        from tracing import stage_table

        print(
            stage_table(
                args.workload,
                traced[mid],
                tracers[mid].self_time,
                metrics["store.hit_ratio"],
            )
        )
        declared = declared_metrics("per_layer")
    else:
        metrics = {
            "wall_s": wall,
            "faults_per_s": run.faults / wall,
            "setup_s": setup_s,
            "peak_rss_mb": rss_mb,
        }
        declared = declared_metrics("end_to_end")
    out = {k: {"value": metrics[k], "unit": unit} for k, unit in declared.items()}
    print(
        json.dumps(
            {
                "correct": run.failed == 0,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": out,
            }
        )
    )
    return 1 if run.failed else 0


def run_all(args) -> int:
    """Each workload in its own child process, then one summary."""
    summary, ok, attempted, failed = {}, True, 0, 0
    for name in WORKLOAD_NAMES:
        cmd = [
            sys.executable,
            os.path.abspath(__file__),
            "--workload", name,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            print(f"error: workload {name} exited {proc.returncode}", file=sys.stderr)
            return 1
        ok &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        for metric, value in result["metrics"].items():
            summary[f"{name}.{metric}"] = value
    print(
        json.dumps(
            {"correct": ok, "attempted": attempted, "failed": failed, "metrics": summary}
        )
    )
    return 0 if ok else 1


WORKLOAD_NAMES = [w["name"] for w in _declared()["workloads"]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--workload",
        required=True,
        choices=[*WORKLOAD_NAMES, "all"],
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=4)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
