"""Benchmark the `ainfty` CLI end to end, or layer by layer with --trace 1.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--out FILE]

One client runs one CLI child at a time (closed loop, no worker pool) for
about S seconds and checks every child's exit code and report outside the
timed region.  With --trace 0 it reports the end-to-end metrics; with
--trace 1 it runs untraced and traced children (see trace_cli.py) and
reports the per-layer split.  The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  --out appends the run's
configuration and result to FILE as one JSON line, for compare.py.  The
package is imported from the checkout's `src`; nothing is installed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from workloads import DEFAULT_SEED, DENSE_INPUT, WORKLOADS, Oracle, OutputChecker, dense_broken

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRUBBED_ENV = ("AINFTY_PURE", "AINFTY_THREADS")
MIN_SAMPLES = 11  # the tail percentile needs ten samples beyond it
MIN_TRACED = 5  # pairs of an untraced and a traced child
HARD_CAP_S = 120.0


class Bench:
    def __init__(self, workload, seed: int, workdir: Path, backend: str):
        self.workload = workload
        self.workdir = workdir
        self.backend = backend
        self.env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
        self.env["PYTHONPATH"] = str(SRC)
        dense = None
        self.input_note = "none (built-in structure)"
        if workload.generated:
            text, dense = dense_broken(seed)
            data = text.encode("utf-8")
            (workdir / DENSE_INPUT).write_bytes(data)
            self.input_note = f"{DENSE_INPUT}, {len(data)} bytes, seed {seed}"
        pinned = json.loads((HERE / "expected.json").read_text())
        sha = pinned.get(workload.name) if seed == DEFAULT_SEED or not workload.generated else None
        self.checker = OutputChecker(workload, seed, Oracle(workload, dense), sha)
        self.out_path = workdir / "report.out"
        self.err_path = workdir / "stderr.out"
        self.attempted = 0
        self.failed = 0
        self.spawner = subprocess.Popen(
            [sys.executable, str(HERE / "spawner.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def close(self) -> None:
        self.spawner.stdin.close()
        self.spawner.stdout.close()
        self.spawner.wait()

    def setup_probe(self) -> float:
        w = self.workload
        source = f"@{DENSE_INPUT}" if w.generated else "paper-example"
        argv = [sys.executable, str(HERE / "setup_probe.py"), w.command, source,
                str(w.max_arity), ",".join(w.checks)]
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=self.workdir, env=self.env, stdout=subprocess.PIPE)
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        proc.stdout.close()
        if proc.wait() != 0 or line.split() != [b"ready", self.backend.encode()]:
            raise RuntimeError(f"set-up probe failed: exit {proc.returncode}, said {line!r}")
        return elapsed

    def run_child(self, argv: list[str]) -> dict:
        """Have the spawner run one child and time it to exit, then check its output."""
        request = {"argv": argv, "cwd": str(self.workdir), "env": self.env,
                   "stdout": str(self.out_path), "stderr": str(self.err_path)}
        self.spawner.stdin.write(json.dumps(request) + "\n")
        self.spawner.stdin.flush()
        sample = json.loads(self.spawner.stdout.readline())
        self.attempted += 1
        errors = self.checker.check(sample.pop("exit"), self.out_path.read_bytes())
        if errors:
            self.failed += 1
            stderr_tail = self.err_path.read_text(errors="replace")[-2000:]
            print(f"output check failed ({len(errors)} problems):", *errors[:10], stderr_tail,
                  sep="\n  ", file=sys.stderr)
        return sample

    def sample(self, step, seconds: float, min_samples: int) -> list[dict]:
        """Repeat `step` until the next repeat would likely overrun `seconds`."""
        samples = []
        durations = []
        start = time.perf_counter()
        while True:
            samples.append(step())
            elapsed = time.perf_counter() - start
            durations.append(elapsed - sum(durations))
            if elapsed > HARD_CAP_S or (
                len(samples) >= min_samples and elapsed + statistics.median(durations) > seconds
            ):
                return samples


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, and its percent."""
    ordered = sorted(values)
    n = len(ordered)
    return ordered[n - 11], 100.0 * (n - 10) / n


def end_to_end(bench: Bench, cli: list[str], seconds: float) -> tuple[dict, list[str]]:
    setup = []

    def child_then_probe() -> dict:
        # one set-up probe after each child spreads the probes over the run,
        # so that a slow spell of the machine moves few of them
        sample = bench.run_child(cli)
        setup.append(bench.setup_probe())
        return sample

    samples = bench.sample(child_then_probe, seconds, MIN_SAMPLES)
    walls = [s["wall_s"] for s in samples]
    tail_value, tail_pct = tail(walls)
    metrics = {
        "wall_s": statistics.median(walls),
        "wall_s_tail": tail_value,
        "cpu_s": statistics.median(s["cpu_s"] for s in samples),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in samples),
    }
    notes = [
        f"wall_s: median of {len(walls)} samples",
        f"wall_s_tail: p{tail_pct:.1f} of {len(walls)} samples, 10 samples beyond it",
        f"setup_s: median of {len(setup)} fresh set-up processes",
    ]
    return metrics, notes


def layer_split(trace: dict, cell_names: list[tuple[str, int]]) -> dict:
    """Per-layer metrics of one traced child, from its spans and counters."""
    spans = trace["spans"]
    covered = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] += s["end"] - s["start"]
    self_s: dict[str, float] = {}
    cells: dict[tuple[str, int], float] = {}
    words = {"direct": 0, "coderivation": 0}
    failures = dict(words)
    for s, inner in zip(spans, covered):
        self_s[s["layer"]] = self_s.get(s["layer"], 0.0) + (s["end"] - s["start"] - inner)
        if s["layer"] == "backend.cell":
            cells[(s["check"], s["arity"])] = s["end"] - s["start"] - inner
            words[s["check"]] += s["words"]
            failures[s["check"]] += s["failures"]
    run_s = trace["run_s"]
    m = {
        "cli.import_s": trace["import_s"],
        "cli.run_s": run_s,
        "trace.covered_pct": 100.0 * sum(self_s.values()) / run_s,
        "formats.parse_s": self_s.get("formats.parse", 0.0),
        "formats.input_bytes": sum(s.get("bytes", 0) for s in spans if s["layer"] == "formats.parse"),
        "example.generate_s": self_s.get("example.generate", 0.0),
        "engine.transfer_s": self_s.get("engine.transfer", 0.0),
    }
    for check, arity in cell_names:
        m[f"backend.cell_s.{check}.{arity}"] = cells.get((check, arity), 0.0)
    for check in ("direct", "coderivation"):
        sweep = sum((t for (c, _), t in cells.items() if c == check), 0.0)
        m[f"backend.sweep_s.{check}"] = sweep
        m[f"backend.words.{check}"] = words[check]
        m[f"backend.words_per_s.{check}"] = words[check] / sweep if sweep else 0.0
        m[f"backend.failures.{check}"] = failures[check]
    m["backend.record_s"] = self_s.get("backend.record", 0.0)
    m["report.emit_s"] = self_s.get("report.emit", 0.0)
    m["report.bytes"] = sum(s.get("bytes", 0) for s in spans if s["layer"] == "report.emit")
    m["linfty.symmetrize_s"] = self_s.get("linfty.symmetrize", 0.0)
    m["linfty.jacobi_s"] = self_s.get("linfty.jacobi", 0.0)
    m["linfty.jacobi_words"] = trace["counts"]["linfty.jacobi_words"]
    m["signs.koszul_calls"] = trace["counts"]["signs.koszul_calls"]
    return m


def per_layer(bench: Bench, cli: list[str], seconds: float) -> tuple[dict, list[str]]:
    cell_names = [
        (check, n)
        for w in WORKLOADS.values()
        for check in w.checks
        if check != "linfty"
        for n in (w.max_arity, w.max_arity - 1)
    ]
    traced_cli = [sys.executable, str(HERE / "trace_cli.py"), str(bench.workdir / "spans.json")] + cli[3:]
    splits = []

    def plain_then_traced() -> dict:
        # alternating keeps both kinds of child in the same spells of machine load
        plain = bench.run_child(cli)
        traced = bench.run_child(traced_cli)
        trace = json.loads((bench.workdir / "spans.json").read_text())
        if trace["backend"] != bench.backend:
            raise RuntimeError(f"traced child ran the {trace['backend']} backend")
        splits.append(layer_split(trace, cell_names))
        return {"overhead_s": traced["wall_s"] - plain["wall_s"]}

    pairs = bench.sample(plain_then_traced, seconds, MIN_TRACED)
    metrics = {name: statistics.median(s[name] for s in splits) for name in splits[0]}
    metrics["trace.overhead_s"] = statistics.median(p["overhead_s"] for p in pairs)
    notes = [f"per-layer values: medians of {len(splits)} traced children; "
             f"trace.overhead_s: median of {len(pairs)} traced-minus-untraced pairs"]
    return metrics, notes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="append this run's record to FILE (JSON lines)")
    args = parser.parse_args(argv)

    if not (SRC / "ainfty" / "cli.py").is_file():
        print(f"error: no ainfty sources at {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    for var in SCRUBBED_ENV:
        os.environ.pop(var, None)
    sys.path.insert(0, str(SRC))
    import ainfty

    if Path(ainfty.__file__).resolve().parent != SRC / "ainfty":
        print(f"error: imported ainfty from {ainfty.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    backend = ainfty.active_backend()
    config = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "backend": backend,
        "cli": "ainfty " + " ".join(workload.cli_args()),
    }
    print("config:", json.dumps(config))

    (HERE / ".work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=HERE / ".work"))
    bench = None
    try:
        bench = Bench(workload, args.seed, workdir, backend)
        print("input:", bench.input_note)
        cli = [sys.executable, "-m", "ainfty.cli"] + workload.cli_args()
        if args.trace:
            metrics, notes = per_layer(bench, cli, args.seconds)
        else:
            metrics, notes = end_to_end(bench, cli, args.seconds)
    finally:
        if bench is not None:
            bench.close()
        shutil.rmtree(workdir, ignore_errors=True)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if args.trace else "end_to_end"]
    if sorted(metrics) != sorted(d["name"] for d in declared):
        raise RuntimeError("metrics differ from those declared in BENCHMARK.json")
    for note in notes:
        print(note)
    for d in declared:
        print(f"  {d['name']:<34} {metrics[d['name']]:>14.6g} {d['unit']}")
    print(f"error_ratio: {bench.failed}/{bench.attempted} = {bench.failed / bench.attempted:.4g}")
    result = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {d["name"]: {"value": metrics[d["name"]], "unit": d["unit"]} for d in declared},
    }
    if args.out is not None:
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"config": config, "result": result}) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
