#!/usr/bin/env python3
"""dvlae benchmark: runs the real CLI on seeded synthetic inputs and checks every output.

    python3 perfbench/run.py --workload curate|bulk|store|map|all --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is ``src/`` put on
``PYTHONPATH`` (nothing needs installing).  Each run:

1. generates the workload's inputs from ``--seed`` several times and reports
   the median as ``setup_s`` (kept out of ``wall_s``);
2. runs the workload's dvlae command sequence as a closed loop with one
   client: each command is a fresh ``python -m dvlae.cli`` process started
   after the previous one exits (``DVLAE_WORKERS`` unset, so at most two
   processes live).  Each process is timed from outside and its max RSS read
   from its own ``wait4`` usage.  A new pass starts only while it is expected
   to end within ``--seconds``; at least one pass runs;
3. checks every output against oracles and invariants computed from the
   inputs; a failed check or a non-zero exit counts as a failure;
4. with ``--trace 1``, runs the same command sequence once more in-process
   through ``dvlae.cli.main`` with the layer functions wrapped (see
   ``tracing.py``), checks that its outputs are byte-identical to the
   untraced pass, and reports the per-layer metrics.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
BENCHMARK.json with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Lines above it are a human-readable report, which also prints the
per-command metrics (``fingerprint_structures_per_s``, ``screen_s``,
``ood_queries_per_s``, ``embed_s``, ``error_rate``) on the workloads whose
commands produce them.  A full record of the run (machine, input sizes,
per-command samples, sha256 of every output, spans) goes to
``.perfbench/results/``.  ``--smoke`` shrinks every input so all workloads
and the traced pass finish in seconds.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

# One thread per process: on a 2-core x86-64 host a second BLAS thread only
# spins here (t-SNE at n = 1000: same wall time, 60 % more CPU time).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import inputs as gen  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, Checks  # noqa: E402

# Set-up runs at least SETUP_MIN_REPEATS times and for at least SETUP_MIN_S
# in total: a shared 2-core VM host was seen to alternate between a fast and
# a ~2x slower state every second or so, and a median over a few seconds of
# cheap (millisecond) set-ups mixes both states far more evenly than one
# second does.
SETUP_MIN_REPEATS, SETUP_MIN_S = 3, 4.0
STARTUP_REPEATS = 3
COMMAND_TIMEOUT_S = 150
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}
WHY = {w["name"]: w["why"] for w in BENCHMARK["workloads"]}


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("DVLAE_WORKERS", None)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_process(argv, cwd: Path, log: Path) -> tuple[float, int, float, float]:
    """Run one process to completion: (wall s, exit code, max RSS in MB, user+system CPU s)."""
    with open(log, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdout=out,
                                stderr=subprocess.STDOUT, stdin=subprocess.DEVNULL)
        watchdog = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0, usage.ru_utime + usage.ru_stime


def dvlae_argv(args) -> list[str]:
    return [sys.executable, "-m", "dvlae.cli", *args]


def setup_cli(args, cwd: Path) -> None:
    """Run a dvlae command during set-up; set-up cannot continue if it fails."""
    _, rc, _, _ = run_process(dvlae_argv(args), cwd, cwd / "setup.log")
    if rc != 0:
        raise RuntimeError(f"set-up command {args} exited {rc}: {(cwd / 'setup.log').read_text()}")


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def summary(samples, unit: str) -> str:
    """Median, the highest percentile with at least ten samples beyond it, and n."""
    n = len(samples)
    tail = (f"p{100 * (n - 10) / n:.0f} {sorted(samples)[n - 11]:.4f} {unit}" if n >= 11
            else "no tail percentile (n < 11)")
    return f"median of {n}; {tail}"


def machine_record() -> dict:
    def getconf(name):
        try:
            out = subprocess.run(["getconf", name], capture_output=True, text=True, timeout=10)
            return int(out.stdout.strip()) if out.stdout.strip().isdigit() else None
        except (OSError, subprocess.SubprocessError):
            return None

    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=10).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "commit": commit or "unknown (not a git checkout)",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "l2_bytes": getconf("LEVEL2_CACHE_SIZE"),
        "l3_bytes": getconf("LEVEL3_CACHE_SIZE"),
        "machine": platform.machine(),
    }


def per_command_metrics(in_dir: Path, cmds, results) -> dict:
    """Per-command end-to-end metrics of one pass, for workloads that produce them."""
    m = {}
    for cmd, (wall, rc, _, _) in zip(cmds, results):
        if rc != 0:
            continue
        if cmd.kind == "fingerprint":
            n = len((in_dir / cmd.outputs[0]).read_text().splitlines()) - 2
            m["fingerprint_structures_per_s"] = n / wall
        elif cmd.kind == "screen":
            m["screen_s"] = m.get("screen_s", 0.0) + wall
        elif cmd.kind == "ood":
            n = len((in_dir / cmd.outputs[0]).read_text().splitlines()) - 1
            m["ood_queries_per_s"] = n / wall
        elif cmd.kind == "embed":
            m["embed_s"] = m.get("embed_s", 0.0) + wall
    return m


PER_COMMAND_UNITS = {
    "fingerprint_structures_per_s": ("1/s", "higher"), "screen_s": ("s", "lower"),
    "ood_queries_per_s": ("1/s", "higher"), "embed_s": ("s", "lower"),
}


def run_checks(w, in_dir, inp, out, checks: Checks) -> None:
    try:
        w.check(in_dir, inp, out, checks)
    except Exception as exc:    # noqa: BLE001 - a crashing check is a failed check
        checks.add("output checks ran", False, f"{type(exc).__name__}: {exc}")


def traced_pass(w, inp, in_dir: Path, untraced_cmds, checks: Checks):
    """Run the command sequence in-process with the layer functions wrapped."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    os.environ.pop("DVLAE_WORKERS", None)
    import dvlae.cli

    cmds = w.commands(inp, "out/t")
    tracer = Tracer()
    walls, failed = [], 0
    cwd = os.getcwd()
    os.chdir(in_dir)
    try:
        with tracer.patched():
            for k, cmd in enumerate(cmds):
                tracer.command = k
                sink = io.StringIO()
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                    start = time.perf_counter()
                    rc = dvlae.cli.main(list(cmd.argv))
                    walls.append(time.perf_counter() - start)
                failed += rc != 0
    finally:
        os.chdir(cwd)
    for cmd, plain in zip(cmds, untraced_cmds):
        for traced, untraced in zip(cmd.outputs, plain.outputs):
            a, b = in_dir / traced, in_dir / untraced
            checks.add(f"traced output {traced} byte-identical to the untraced run",
                       a.is_file() and b.is_file() and a.read_bytes() == b.read_bytes())
    return tracer, walls, failed, len(cmds)


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    w = WORKLOADS[name]
    wdir = WORK / (f"smoke-{name}" if smoke else name)
    in_dir = wdir / "in"

    setup_times = []
    while not setup_times or not smoke and (
            len(setup_times) < SETUP_MIN_REPEATS or sum(setup_times) < SETUP_MIN_S):
        shutil.rmtree(in_dir, ignore_errors=True)
        in_dir.mkdir(parents=True)
        start = time.perf_counter()
        inp = w.setup(in_dir, seed, smoke, setup_cli)
        setup_times.append(time.perf_counter() - start)

    # Fresh interpreters importing the CLI: compiles bytecode once, then times start-up.
    startup = []
    for _ in range(STARTUP_REPEATS if trace else 1):
        wall, rc, _, _ = run_process([sys.executable, "-c", "import dvlae.cli"], in_dir,
                                  wdir / "startup.log")
        if rc != 0:
            raise RuntimeError(f"cannot import dvlae.cli: {(wdir / 'startup.log').read_text()}")
        startup.append(wall)

    checks = Checks()
    cmds = w.commands(inp, "out/u")
    n_commands = n_failed_commands = 0
    passes, first_hashes = [], None
    loop_start = time.perf_counter()
    while True:
        results = []
        for k, cmd in enumerate(cmds):
            results.append(run_process(dvlae_argv(cmd.argv), in_dir, wdir / f"cmd{k}.log"))
        n_commands += len(cmds)
        n_failed_commands += sum(r[1] != 0 for r in results)
        run_checks(w, in_dir, inp, "out/u", checks)
        outputs = [o for c in cmds for o in c.outputs]
        hashes = {o: sha256(in_dir / o) if (in_dir / o).is_file() else None for o in outputs}
        if first_hashes is None:
            first_hashes = hashes
        else:
            checks.add("rerun outputs byte-identical to the first pass", hashes == first_hashes)
        passes.append({
            "wall_s": sum(r[0] for r in results),
            "cpu_s": sum(r[3] for r in results),
            "commands": [{"kind": c.kind, "wall_s": r[0], "exit": r[1], "max_rss_mb": r[2],
                          "cpu_s": r[3]}
                         for c, r in zip(cmds, results)],
            **per_command_metrics(in_dir, cmds, results),
        })
        elapsed = time.perf_counter() - loop_start
        if elapsed + elapsed / len(passes) > seconds:
            break

    walls = [p["wall_s"] for p in passes]
    end_to_end = {
        "wall_s": statistics.median(walls),
        "peak_rss_mb": max(c["max_rss_mb"] for p in passes for c in p["commands"]),
        "setup_s": statistics.median(setup_times),
    }
    per_command = {k: statistics.median(p[k] for p in passes)
                   for k in PER_COMMAND_UNITS if all(k in p for p in passes)}

    layers, spans = None, None
    if trace:
        tracer, traced_walls, traced_failed, traced_n = traced_pass(w, inp, in_dir, cmds, checks)
        n_commands += traced_n
        n_failed_commands += traced_failed
        traced_wall = sum(traced_walls)
        layers = tracer.layer_metrics(traced_wall)
        layers["cli.startup_s"] = statistics.median(startup)
        layers["trace.wall_s"] = traced_wall
        # The in-process pass pays no interpreter start-up; add it back per command.
        layers["trace.overhead_s"] = (traced_wall + len(cmds) * layers["cli.startup_s"]
                                      - end_to_end["wall_s"])
        spans = {"missing": tracer.missing, "command_walls": traced_walls,
                 "spans": tracer.span_records()}

    attempted = n_commands + len(checks.results)
    failed = n_failed_commands + len(checks.failed)
    frames = inp.facts.get("frames") or inp.facts.get("batch")
    if frames is not None:
        cutoff = inp.sizes["cutoff"]
        inp.sizes["neighbor_pairs"] = gen.count_neighbor_pairs(frames, cutoff)
    record = {
        "workload": name, "why": WHY[name], "seed": seed, "seconds": seconds, "trace": trace,
        "smoke": smoke, "machine": machine_record(), "inputs": inp.sizes,
        "passes": passes, "setup_samples_s": setup_times, "startup_samples_s": startup,
        "end_to_end": end_to_end, "per_command": per_command, "layers": layers,
        "error_rate": failed / attempted, "attempted": attempted, "failed": failed,
        "checks": [{"check": n, "ok": ok, "detail": d} for n, ok, d in checks.results],
        "outputs_sha256": first_hashes,
    }
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{name}-seed{seed}-trace{int(trace)}{'-smoke' if smoke else ''}"
    (results_dir / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if spans is not None:
        (results_dir / f"{stem}-spans.json").write_text(json.dumps(spans) + "\n")
    return record


def print_report(rec: dict) -> None:
    passes, e = rec["passes"], rec["end_to_end"]

    def row(name, value, unit, better, note):
        print(f"   {name:<29} {value:12.4f} {unit:<5} [{better}]{' ' * (7 - len(better))}{note}")

    print(f"== {rec['workload']} (seed {rec['seed']}): {rec['why']}")
    print(f"   inputs: {json.dumps(rec['inputs'])}")
    row("wall_s", e["wall_s"], "s", "lower", summary([x["wall_s"] for x in passes], "s"))
    row("cpu_s", statistics.median(x["cpu_s"] for x in passes), "s", "lower",
        summary([x["cpu_s"] for x in passes], "s") + "; user + system time")
    row("peak_rss_mb", e["peak_rss_mb"], "MB", "lower",
        f"max over {sum(len(x['commands']) for x in passes)} command processes")
    row("setup_s", e["setup_s"], "s", "lower", summary(rec["setup_samples_s"], "s"))
    for k, v in rec["per_command"].items():
        unit, better = PER_COMMAND_UNITS[k]
        row(k, v, unit, better, summary([x[k] for x in passes], unit))
    row("error_rate", rec["error_rate"], "ratio", "lower",
        f"{rec['failed']} failed of {rec['attempted']} commands + checks")
    for c in rec["checks"]:
        if not c["ok"]:
            print(f"   FAILED CHECK: {c['check']}: {c['detail']}")
    if rec["layers"] is not None:
        layers = rec["layers"]
        for k, v in layers.items():
            print(f"   {k:<36} {v:16.6f} {UNITS[k]}")
        own = sum(v for k, v in layers.items()
                  if k.endswith("_s") and not k.startswith(("trace.", "cli.startup")))
        print(f"   layer self times + cli.self_s = {own:.6f} s of traced wall "
              f"{layers['trace.wall_s']:.6f} s")


def result_line(records, trace: bool) -> dict:
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    metrics = {}
    for r in records:
        prefix = "" if len(records) == 1 else f"{r['workload']}."
        values = r["layers"] if trace else r["end_to_end"]
        for m in BENCHMARK["per_layer" if trace else "end_to_end"]:
            metrics[prefix + m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny inputs, for the benchmark's tests")
    args = ap.parse_args(argv)
    # Termination unwinds like an exception, so run_process stops its child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (SRC / "dvlae" / "cli.py").is_file():
        print(f"error: no dvlae sources at {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    records = []
    for name in names:
        rec = run_workload(name, args.seed, args.seconds, bool(args.trace), args.smoke)
        print_report(rec)
        records.append(rec)
    print(json.dumps(result_line(records, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
