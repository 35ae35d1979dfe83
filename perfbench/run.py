"""The repo benchmark: one workload, one run, one JSON result line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json``
(``setup_s``, ``op_p50_s``, ``peak_rss_mb``, ``disk_mb``); ``--trace 1``
is the separate traced run that splits each op into layers and reports
the per-layer metrics plus the tracing overhead.  Either way every op's
output is checked, the metrics are printed by name with their units, a
``{"metadata": …}`` line follows, and the last line is the result::

    {"correct": true, "attempted": 6, "failed": 0, "metrics": {…}}

The benchmark builds nothing but byte-compiled ``src/`` and writes only
under ``.perfbench/`` in the checkout, which it removes when done.
``REPRO_BENCH_SMOKE=1`` shrinks every op for the self-test.  Compare two
sets of result files with ``perfbench/report.py``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from hostspeed import REFERENCE_S, HostSpeed
from layers import (PER_LAYER, TARGETS, child_trace, layer_self_times,
                    merge_traces, op_metrics)
from tracer import (LAYERS, Tracer, import_breakdown, importtime_rows,
                    wchar)
from workloads import SMOKE, WORKLOADS, CheckFailed, peak_rss_mb

MIN_OPS = 2
"""Ops per untraced run even when one op outlasts ``--seconds``."""

COLD_START_TIMEOUT_S = 60.0

END_TO_END_UNITS = {"setup_s": "s", "op_p50_s": "s", "peak_rss_mb": "MB",
                    "disk_mb": "MB"}


def cold_start(root: Path, workload: str, env: dict, workdir: Path,
               importtime: bool = False):
    """Spawn a fresh interpreter and time it until the workload is ready.

    Returns ``(seconds, -X importtime breakdown or None)``.
    """
    argv = [sys.executable, str(root / "perfbench" / "coldstart.py"),
            workload]
    if importtime:
        argv[1:1] = ["-X", "importtime"]
    stderr_path = workdir / "coldstart.err"
    with open(stderr_path, "wb") as stderr:
        start = time.perf_counter()
        child = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=stderr,
                                 env=env)
        line = child.stdout.readline()
        ready = time.perf_counter() - start
        child.stdout.read()
        child.stdout.close()
        code = child.wait(timeout=COLD_START_TIMEOUT_S)
    text = stderr_path.read_text(errors="replace")
    if code != 0 or line.strip() != b"ready":
        raise RuntimeError(f"cold start of {workload} failed (exit {code}):"
                           f"\n{text[-2000:]}")
    return ready, (import_breakdown(importtime_rows(text)) if importtime
                   else None)


class Runner:
    """Drives one workload through one untraced or traced run."""

    def __init__(self, workload, root: Path, workdir: Path, env: dict):
        self.workload = workload
        self.root = root
        self.workdir = workdir
        self.env = env
        self.in_process = workload.name != "cli-session"
        self.errors = []
        self.host = None

    def cold_start(self, importtime: bool = False):
        return cold_start(self.root, self.workload.name, self.env,
                          self.workdir, importtime)

    def op(self, index: int, tracer=None) -> dict:
        """Run, time and check one op; never raises."""
        op_dir = self.workdir / f"op-{index}"
        op_dir.mkdir()
        record = {"ok": False}
        try:
            if tracer is not None and self.in_process:
                tracer.op = index
                tracer.install(TARGETS)
            if self.host is not None:
                self.host.begin()
            written, cpu = wchar(), time.process_time()
            start = time.perf_counter()
            try:
                out = self.workload.op(op_dir, tracer)
            finally:
                record["wall"] = time.perf_counter() - start
                record["cpu"] = time.process_time() - cpu
                record["disk"] = wchar() - written
                if tracer is not None and self.in_process:
                    tracer.uninstall()
                    tracer.op = None
            if self.host is not None:
                record["scaled"] = self.host.rescale(record["wall"])
            record["kept"] = sum(path.stat().st_size
                                 for path in op_dir.rglob("*")
                                 if path.is_file())
            record["rss"] = peak_rss_mb()
            if not self.in_process:
                record["cpu"], record["rss"] = self.workload.usage(out)
            self.workload.check(op_dir, out)
            if tracer is not None:
                record.update(self.layers(index, op_dir, out, tracer,
                                          record))
            record["ok"] = True
        except CheckFailed as exc:
            self.errors.append(f"op {index}: check failed: {exc}")
        except Exception:  # noqa: BLE001 - a failed op never ends the run
            self.errors.append(f"op {index}: error:\n"
                               + traceback.format_exc())
        finally:
            shutil.rmtree(op_dir, ignore_errors=True)
        return record

    def layers(self, index, op_dir, out, tracer, record) -> dict:
        """Per-layer metrics and the layer table of one traced op."""
        supplied = {"proc.cpu_s": record["cpu"],
                    "proc.cpu_util": record["cpu"] / record["wall"],
                    "proc.rss_mb": record["rss"]}
        supplied.update(self.workload.supplied(op_dir, out))
        commands = {}
        imported = None
        if self.in_process:
            spans, op, counts = tracer.spans, index, tracer.counts[index]
            supplied.update(self.imports)
        else:
            traces = {label: child_trace(op_dir / f"{label}.trace.json",
                                         op_dir / f"{label}.err")
                      for label in out}
            spans, counts, imported = merge_traces(traces.values())
            op = None
            for label, trace in traces.items():
                commands[label] = {
                    "wall": out[label][1],
                    "import": trace["imports"].get("total", 0.0),
                    **layer_self_times(trace["spans"], None,
                                       trace["imported"])}
                supplied[f"cli.{label}_s"] = out[label][1]
                for key in ("total", "scipy", "numpy", "repro"):
                    supplied[f"import.{key}_s"] = (
                        supplied.get(f"import.{key}_s", 0.0)
                        + trace["imports"].get(key, 0.0))
        metrics = op_metrics(spans, op, counts, supplied,
                             self.workload.kept_checkpoint_bytes(op_dir),
                             imported)
        return {"metrics": metrics,
                "table": layer_self_times(spans, op, imported),
                "commands": commands}

    # -- the two kinds of run ---------------------------------------------

    def measure(self, seconds: float):
        """Untraced run: the end-to-end metrics."""
        start = time.perf_counter()
        self.host = HostSpeed()
        setups = [self.timed_cold_start()]
        ops = []
        halfway = False
        while True:
            ops.append(self.op(len(ops)))
            elapsed = time.perf_counter() - start
            if elapsed >= seconds and len(ops) >= MIN_OPS:
                break
            if not halfway and elapsed >= seconds / 2:
                setups.append(self.timed_cold_start())
                halfway = True
        setups.append(self.timed_cold_start())
        good = [op for op in ops if op["ok"] and "scaled" in op] or \
            [op for op in ops if "scaled" in op]
        metrics = {
            "setup_s": statistics.median(scaled for _, scaled in setups),
            "op_p50_s": statistics.median(op["scaled"] for op in good),
            "peak_rss_mb": max(op.get("rss", 0.0) for op in ops),
            "disk_mb": statistics.median(op["disk"] for op in good) / 1e6,
        }
        print(f"perfbench {self.workload.name}: untraced run, seed "
              f"{self.workload.seed}")
        for label, values in (
                ("op wall (s)", [op["wall"] for op in good]),
                ("op rescaled", [op["scaled"] for op in good]),
                ("cold start (s)", [raw for raw, _ in setups]),
                ("rescaled", [scaled for _, scaled in setups]),
                ("kernel (s)", self.host.samples)):
            print(f"  {label:<15} " + " ".join(f"{v:.3f}" for v in values))
        samples = {"setup_s": len(setups), "op_p50_s": len(good),
                   "peak_rss_mb": len(ops), "disk_mb": len(good)}
        for name, value in metrics.items():
            print(f"  {name:<12} {value:12.4f} {END_TO_END_UNITS[name]:<3}"
                  f"  ({samples[name]} samples)")
        # What the op left on disk, beside what it wrote (disk_mb); the
        # raw timings beside the rescaled ones (see hostspeed.py).
        samples.update({
            "disk_kept_mb": statistics.median(
                op.get("kept", 0) for op in good) / 1e6,
            "raw_setup_s": statistics.median(raw for raw, _ in setups),
            "raw_op_p50_s": statistics.median(op["wall"] for op in good),
            "kernel_s": statistics.median(self.host.samples)})
        print(f"  {'(disk kept)':<12} {samples['disk_kept_mb']:12.4f} MB "
              f"  (files left by the op; disk_mb counts every rewrite)")
        print(f"  {'(raw)':<12} setup {samples['raw_setup_s']:.4f} s, op "
              f"{samples['raw_op_p50_s']:.4f} s wall; kernel "
              f"{samples['kernel_s']:.4f} s vs reference "
              f"{REFERENCE_S:.4f} s")
        return ops, {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                     for name, value in metrics.items()}, samples

    def timed_cold_start(self):
        """One cold start: (raw seconds, rescaled seconds)."""
        self.host.begin()
        ready = self.cold_start()[0]
        return ready, self.host.rescale(ready)

    def trace(self, seconds: float):
        """Traced run: per-layer metrics, layer table, tracing overhead."""
        start = time.perf_counter()
        tracer = Tracer()
        self.imports = {}
        if self.in_process:
            # The op imports nothing; the import layer is the set-up's.
            breakdowns = [self.cold_start(importtime=True)[1]
                          for _ in range(2)]
            for key in ("total", "scipy", "numpy", "repro"):
                self.imports[f"import.{key}_s"] = statistics.median(
                    b.get(key, 0.0) for b in breakdowns)
        plain, traced = [], []
        while True:
            plain.append(self.op(2 * len(plain)))
            traced.append(self.op(2 * len(traced) + 1, tracer))
            if time.perf_counter() - start >= seconds:
                break
        ops = plain + traced
        good = [op for op in traced if op["ok"]]
        untraced_p50 = statistics.median(op["wall"] for op in plain)
        traced_p50 = statistics.median(op["wall"] for op in traced)
        metrics = {}
        for name in PER_LAYER:
            values = [op["metrics"][name] for op in good] or [0.0]
            metrics[name] = statistics.median(values)
        samples = {"traced_ops": len(traced), "untraced_ops": len(plain),
                   **self.print_trace(good, traced_p50, untraced_p50,
                                      metrics)}
        return ops, {name: {"value": value, "unit": PER_LAYER[name][0]}
                     for name, value in metrics.items()}, samples

    def print_trace(self, good, traced_p50, untraced_p50, metrics) -> dict:
        """Print the traced report; return its layer table and overhead."""
        name = self.workload.name
        overhead = traced_p50 / untraced_p50 - 1
        report = {"tracing_overhead": overhead, "layers": {}}
        print(f"perfbench {name}: traced run, seed {self.workload.seed}, "
              f"{len(good)} checked traced ops")
        if good:
            median_op = sorted(good, key=lambda op: op["wall"])[
                (len(good) - 1) // 2]
            table, wall = median_op["table"], median_op["wall"]
            print(f"  layer self times of the median traced op "
                  f"({wall:.3f} s):")
            inside = 0.0
            for layer in LAYERS:
                if layer == "import":
                    value = (sum(c["import"] for c in
                                 median_op["commands"].values())
                             if median_op["commands"]
                             else metrics["import.total_s"])
                    where = "set-up cold start, outside the op"
                    if median_op["commands"]:
                        where = "in the op"
                        inside += value
                    print(f"    {layer:<58} {value:9.4f} s  ({where})")
                    report["layers"][layer] = value
                    continue
                if layer == "process":
                    report["layers"][layer] = metrics["proc.cpu_s"]
                    print(f"    {layer:<58} cpu {metrics['proc.cpu_s']:.3f} "
                          f"s, cpu/wall {metrics['proc.cpu_util']:.2f}, "
                          f"rss {metrics['proc.rss_mb']:.1f} MB")
                    continue
                value = table.get(layer, 0.0)
                report["layers"][layer] = value
                inside += value
                print(f"    {layer:<58} {value:9.4f} s  "
                      f"{value / wall:6.1%}")
            print(f"    {'(outside every span)':<58} "
                  f"{wall - inside:9.4f} s  {(wall - inside) / wall:6.1%}")
            for label, command in median_op["commands"].items():
                layers = {layer_of_key: value for layer_of_key, value
                          in command.items()
                          if layer_of_key not in ("wall", "import")}
                largest = max(layers.items(), key=lambda kv: kv[1],
                              default=("-", 0.0))
                verdict = ("import is the largest layer"
                           if command["import"] >= largest[1]
                           else f"largest layer: {largest[0]}")
                print(f"    command {label:<9} wall {command['wall']:.3f} s,"
                      f" import {command['import']:.3f} s, next "
                      f"{largest[0]} {largest[1]:.3f} s — {verdict}")
        print(f"  tracing overhead: {overhead:+.1%} "
              f"(traced op_p50 {traced_p50:.3f} s vs untraced "
              f"{untraced_p50:.3f} s)")
        print("  per-layer metrics (median over traced ops):")
        for metric, value in metrics.items():
            print(f"    {metric:<34} {value:14.6g} {PER_LAYER[metric][0]}")
        return report


def git_sha(root: Path) -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def metadata(root, args, ops, samples) -> dict:
    from importlib.metadata import PackageNotFoundError, version

    def package_version(name):
        try:
            return version(name)
        except PackageNotFoundError:
            return "missing"

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "traced": bool(args.trace),
        "smoke": SMOKE,
        "ops": len(ops),
        "samples": samples,
        "git_sha": git_sha(root),
        "python": platform.python_version(),
        "numpy": package_version("numpy"),
        "scipy": package_version("scipy"),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: {root} is not a checkout of the repo (no "
              f"src/repro); run the benchmark from the repo root",
              file=sys.stderr)
        return 2
    workdir = root / ".perfbench" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    sys.path.insert(0, str(src))
    env = dict(os.environ, PYTHONPATH=str(src), TMPDIR=str(workdir))
    os.environ["TMPDIR"] = str(workdir)
    try:
        compileall.compile_dir(str(src), quiet=1)
        workload = WORKLOADS[args.workload](args.seed, root, workdir, env)
        workload.setup()
        runner = Runner(workload, root, workdir, env)
        if args.trace:
            ops, metrics, samples = runner.trace(args.seconds)
        else:
            ops, metrics, samples = runner.measure(args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    failed = sum(1 for op in ops if not op["ok"])
    for error in runner.errors:
        print(error)
    print(f"  ops: {len(ops)} attempted, {failed} failed")
    print(json.dumps({"metadata": metadata(root, args, ops, samples)}))
    print(json.dumps({"correct": failed == 0, "attempted": len(ops),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
