"""Benchmark of the evofam CLI pipelines.

Run from the repository root:

    python3 perfbench/run.py --workload certify --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

One closed-loop client calls ``evofam.cli.main`` in this process on the
bundled configs (see workloads.py) until ``--seconds`` have passed, and
checks every invocation's exit code against the intended one.  With
``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it
runs untraced for the first half, then with every layer wrapped (see
tracer.py), and reports the per-layer metrics and the tracing overhead.

On a shared machine the speed of the whole CPU drifts with neighbouring
load, by up to 1.8 times for a minute or more.  So the bounded op-time
metric, run_s_cal, is calibrated: a fixed computation that does not use
evofam (reference()) is timed between ops, and each op's seconds are
divided by the mean of the reference times on either side of it.  The raw median and tail are printed and recorded beside
it.  setup_s is calibrated the same way, over fresh-interpreter probes
spread across the run.

stdout has one line per metric with its unit and sample count, then one
JSON object as the last line; a fuller record (environment, per-op times,
output fingerprints) goes to .perfbench/results/.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import INTENDED_EXIT, WORKLOADS, configs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SEGMENTS = 4              # the timed loop is split in this many parts ...
SETUP_PROBES = 4          # ... with this many set-up probes before each part and after the last

# Certified constants copied from each report.json: name -> key path.
CONSTANTS = {
    "M": ("a1", "m"),
    "L": ("a3", "value"),
    "Cprime": ("resolvent_lipschitz", "value"),
    "C": ("semigroup_lipschitz", "value"),
    "kato_resolvent_ratio": ("kato", "max_resolvent_ratio"),
    "kato_semigroup_ratio": ("kato", "max_semigroup_ratio"),
    "oracle_error": ("oracle_error",),
    "duhamel_residual": ("duhamel_residual",),
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1,
                        help="workload seed, passed to every invocation")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measured wall time of the run (> 0)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--config-dir", type=Path,
                        default=SRC / "evofam" / "data" / "configs",
                        help="directory holding <config>.json for each stem")
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


class Checker:
    """Runs invocations and checks their outputs.

    An invocation fails when it raises or its exit code differs from
    INTENDED_EXIT.  The outputs are incorrect when an exit code is neither
    0 nor 1, a report disagrees with its exit code, or a repeat of the same
    invocation writes a different --stable report.
    """

    def __init__(self, cli, config_dir: Path, out_dir: Path, seed: int):
        self.cli = cli
        self.config_dir = config_dir
        self.out_dir = out_dir
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.problems: dict[str, int] = {}   # message -> occurrences
        self.fingerprints: dict[str, dict] = {}

    def _problem(self, message: str) -> None:
        self.problems[message] = self.problems.get(message, 0) + 1

    def _out(self, pipeline: str, stem: str) -> Path:
        return self.out_dir / f"{pipeline}-{stem}"

    def invoke(self, pipeline: str, stem: str):
        argv = [pipeline, "--config", str(self.config_dir / f"{stem}.json"),
                "--out", str(self._out(pipeline, stem)),
                "--seed", str(self.seed), "--stable"]
        sink = io.StringIO()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                return self.cli.main(argv)
        except Exception as exc:           # counted as a failed invocation
            return exc

    def run_op(self, op) -> float:
        """Run one op; returns its wall seconds."""
        for pipeline, stem in op:
            self._out(pipeline, stem).joinpath("report.json").unlink(missing_ok=True)
        codes = []
        t0 = time.perf_counter()
        for pipeline, stem in op:
            codes.append(self.invoke(pipeline, stem))
        elapsed = time.perf_counter() - t0
        for (pipeline, stem), code in zip(op, codes):
            self.check(pipeline, stem, code)
        return elapsed

    def check(self, pipeline: str, stem: str, code) -> None:
        key = f"{pipeline} {stem}"
        self.attempted += 1
        if code != INTENDED_EXIT[(pipeline, stem)]:
            self.failed += 1
        if code not in (0, 1):
            self._problem(f"{key}: exit {code!r}")
            return
        try:
            raw = self._out(pipeline, stem).joinpath("report.json").read_bytes()
            doc = json.loads(raw)
        except (OSError, ValueError) as exc:
            self._problem(f"{key}: no readable report ({exc})")
            return
        verdicts = doc.get("report", {}).get("verdicts")
        if "error" in doc:
            consistent = code == 1
        else:
            consistent = (isinstance(verdicts, dict)
                          and (code == 0) == all(verdicts.values()))
        if not consistent:
            self._problem(f"{key}: exit {code} disagrees with its report")
        digest = hashlib.sha256(raw).hexdigest()
        first = self.fingerprints.setdefault(key, {
            "exit": code, "intended": INTENDED_EXIT[(pipeline, stem)],
            "report_sha256": digest,
            "constants": constants(doc.get("report", {}))})
        if first["report_sha256"] != digest or first["exit"] != code:
            self._problem(f"{key}: repeat gave a different report")


def constants(report: dict) -> dict:
    out = {}
    for name, path in CONSTANTS.items():
        value = report
        for key in path:
            value = value.get(key) if isinstance(value, dict) else None
        if value is not None:
            out[name] = value
    return out


# reference() seconds in a quiet period on the 2-core Intel Xeon VM the
# benchmark was tuned on: run_s_cal is in seconds at that speed.  It is
# only a scale; the bounds are relative, so no check depends on it.
REFERENCE_S = 0.022


def reference() -> float:
    """Wall seconds of a fixed computation that does not use evofam: small
    numpy transforms in a Python loop, the mix the pipelines run."""
    import numpy as np
    x = np.linspace(0.0, 1.0, 1024)
    t0 = time.perf_counter()
    for k in range(400):
        y = np.exp(-x * (k % 7)) * np.cos(3.0 * x)
        float(np.abs(np.fft.ifft(np.fft.fft(y) * x)).sum())
        sum(i * 0.5 for i in range(40))
    return time.perf_counter() - t0


def run_cycles(checker: Checker, cycle, seconds: float, tracer=None):
    """Closed loop over whole cycles: start a cycle while less than
    `seconds` have passed (none when `seconds` <= 0).  Returns each op's
    seconds and the mean of the reference() seconds just before and just
    after it."""
    times, refs = [], []
    before = reference()
    until = time.perf_counter() + seconds
    while time.perf_counter() < until:
        for op in cycle:
            if tracer is not None:
                tracer.op = len(times)
            times.append(checker.run_op(op))
            after = reference()
            refs.append((before + after) / 2)
            before = after
    return times, refs


def calibrated(times: list[float], refs: list[float], cycle_len: int) -> float:
    """Seconds per cycle at the reference speed: the sum over the ops of a
    cycle of the median, over that op's runs, of op seconds / reference()
    seconds, times REFERENCE_S.  `times` holds whole cycles, op i of the
    cycle at positions i, i + cycle_len, ..."""
    return REFERENCE_S * sum(
        statistics.median(t / r for t, r in zip(times[i::cycle_len],
                                                 refs[i::cycle_len]))
        for i in range(cycle_len))


def setup_times(config_paths: list[Path], repeats: int) -> list[tuple]:
    """(wall seconds for a fresh interpreter to import evofam.cli and load
    and validate the workload's configs, mean reference() seconds just
    before and just after) for each of `repeats` probes."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), *map(str, config_paths)]
    out = []
    before = reference()
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
        elapsed = time.perf_counter() - t0
        after = reference()
        out.append((elapsed, (before + after) / 2))
        before = after
    return out


def git_sha() -> str | None:
    """HEAD of the checkout's own .git, if it has one (read, not run)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    import numpy
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "evofam").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            src_hash.update(str(path.relative_to(SRC)).encode())
            src_hash.update(path.read_bytes())
    cpu = None
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {"git_sha": git_sha(), "src_sha256": src_hash.hexdigest(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "cpu_model": cpu, "seed": seed,
            "threads": {v: os.environ[v] for v in THREAD_VARS}}


CAL_NOTE = ("seconds per cycle at the reference speed: median op / "
            "reference() seconds per op of the cycle, summed, x REFERENCE_S")


def metric(value: float, unit: str, samples: int, note: str) -> dict:
    return {"value": value, "unit": unit, "samples": samples, "note": note}


def op_time_info(times: list[float], prefix: str = "") -> dict:
    """Median and tail of per-op seconds: printed and recorded, not bounded,
    because on a shared machine they drift with neighbouring load."""
    n = len(times)
    info = {f"{prefix}run_s": metric(statistics.median(times), "s", n,
                                     "median wall seconds per op")}
    pct = int(100 * (n - 10) / n)  # highest percentile with 10 samples beyond
    if pct > 50:
        info[f"{prefix}run_s_tail"] = metric(
            statistics.quantiles(times, n=100, method="inclusive")[pct - 1], "s",
            n, f"p{pct} wall seconds per op")
    return info


def run_workload(args, cli) -> int:
    from tracer import LAYER_METRICS, Tracer     # imports numpy: after pinning
    name = args.workload
    cycle = WORKLOADS[name]
    config_paths = [args.config_dir / f"{c}.json" for c in configs(name)]
    out_dir = WORK / "out" / name
    checker = Checker(cli, args.config_dir, out_dir, args.seed)
    for pipeline, stem in cycle[0]:        # lazy imports and FFT plans
        checker.invoke(pipeline, stem)
    metrics = {}
    if args.trace == 0:
        setup_times(config_paths, 1)          # warm the page cache, untimed
        # Probes spread over the run, so a burst of neighbouring load does
        # not slow all of them.  A part that is already over its share of
        # --seconds runs no cycle.
        setup = setup_times(config_paths, SETUP_PROBES)
        times, refs, looped = [], [], 0.0
        for part in range(1, SEGMENTS + 1):
            t0 = time.perf_counter()
            t, r = run_cycles(checker, cycle, args.seconds * part / SEGMENTS
                              - looped)
            looped += time.perf_counter() - t0
            times += t
            refs += r
            setup += setup_times(config_paths, SETUP_PROBES)
        metrics["run_s_cal"] = metric(calibrated(times, refs, len(cycle)), "s",
                                      len(times), CAL_NOTE)
        metrics["setup_s"] = metric(
            REFERENCE_S * statistics.median(t / r for t, r in setup), "s",
            len(setup), "seconds at the reference speed for a fresh "
            "interpreter to import evofam.cli, load and validate configs: "
            "median probe / reference() seconds x REFERENCE_S")
        metrics["peak_rss_mb"] = metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1,
            "peak resident set of this process")
        metrics["ok_frac"] = metric(
            (checker.attempted - checker.failed) / checker.attempted, "frac",
            checker.attempted, f"{checker.failed} of {checker.attempted} "
            "invocations failed")
        info = op_time_info(times)
        info["setup_s_raw"] = metric(statistics.median(t for t, _ in setup), "s",
                                     len(setup), "median wall seconds per probe")
        op_times = {"timed": times, "reference": refs, "setup_probes": setup}
        spans_path = None
    else:
        plain, plain_refs = run_cycles(checker, cycle, args.seconds / 2)
        with Tracer() as tracer:
            traced, traced_refs = run_cycles(checker, cycle, args.seconds / 2,
                                             tracer)
        units = {m[0]: m[1] for m in LAYER_METRICS}
        for key, value in tracer.metrics(len(traced), name).items():
            metrics[key] = metric(value, units[key], len(traced), "per op")
        cal_traced = calibrated(traced, traced_refs, len(cycle))
        metrics["trace.run_s_cal"] = metric(cal_traced, "s", len(traced),
                                            "traced: " + CAL_NOTE)
        metrics["trace.overhead_s"] = metric(
            cal_traced - calibrated(plain, plain_refs, len(cycle)), "s",
            len(plain), f"trace.run_s_cal minus the same over {len(plain)} "
            "untraced ops")
        info = {**op_time_info(plain, "untraced."), **op_time_info(traced, "traced.")}
        op_times = {"untraced": plain, "traced": traced,
                    "reference": plain_refs + traced_refs}
        spans_path = WORK / "spans" / f"{name}.npz"
        tracer.write_spans(spans_path)

    correct = not checker.problems
    record = {"workload": name, "trace": args.trace, "seconds": args.seconds,
              "environment": environment(args.seed), "metrics": metrics,
              "info": info,
              "correct": correct, "problems": checker.problems,
              "attempted": checker.attempted, "failed": checker.failed,
              "fingerprints": checker.fingerprints, "op_times": op_times,
              "spans": str(spans_path.relative_to(ROOT)) if spans_path else None}
    results = WORK / "results" / f"{name}-seed{args.seed}-trace{args.trace}.json"
    results.parent.mkdir(parents=True, exist_ok=True)
    results.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")

    for key, m in {**metrics, **info}.items():
        print(f"{name}  {key} = {m['value']:.6g} {m['unit']}  "
              f"(n={m['samples']}; {m['note']})")
    for problem, count in checker.problems.items():
        print(f"{name}  INCORRECT {problem} (x{count})")
    print(json.dumps({
        "correct": correct, "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {k: {"value": m["value"], "unit": m["unit"]}
                    for k, m in metrics.items()}}))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    summary = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--config-dir", str(args.config_dir)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        summary[name] = json.loads(lines[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in summary.values()),
        "attempted": sum(r["attempted"] for r in summary.values()),
        "failed": sum(r["failed"] for r in summary.values()),
        "metrics": {f"{w}/{k}": m for w, r in summary.items()
                    for k, m in r["metrics"].items()}}))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "evofam" / "cli.py").is_file():
        print(f"error: no evofam sources at {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:                # before numpy loads its BLAS
        os.environ[var] = "1"
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    cli = importlib.import_module("evofam.cli")
    if Path(cli.__file__).resolve().parent != SRC / "evofam":
        print(f"error: evofam imported from {cli.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    return run_workload(args, cli)


if __name__ == "__main__":
    sys.exit(main())
