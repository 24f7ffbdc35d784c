"""Outside-in benchmark of the nodalbubbles reduction pipeline.

Run from the repository root::

    python3 perfbench/run.py --workload WORKLOAD --seed N --seconds S --trace 0|1

WORKLOAD is one of ``pipeline``, ``reduced``, ``energy``, ``dim_sweep``, or
``all`` to run each workload listed in ``BENCHMARK.json`` in turn, each in
its own process.  A run runs one untimed warm-up pass, then repeats passes
of the workload until S seconds have gone and at least two passes ran, in
one closed loop with one client.  After each pass it times one set-up
(``setup_s``: a fresh interpreter imports the package and builds the
inputs), and at least five in all.  With ``--trace 0`` it reports the
end-to-end metrics of ``BENCHMARK.json``; with ``--trace 1`` it alternates
untraced and traced passes and reports the per-layer metrics.  It prints a readable report, writes a full result file under
``perfbench/out/``, and prints one JSON object as the last line of standard
output.

The run builds nothing: it imports the library from ``src/`` and exits with
code 2 if that is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import contextmanager, nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
# At least this many set-up probes per run.  They run one after each pass,
# not all at once: the machine this was tuned on had slow phases of tens of
# seconds, and probes taken in a row could all fall into one.
SETUP_PROBES = 5
# Untraced runs time at least this many passes, so even the longest pass
# (``reduced``, 16-28 s) reports a median of more than one sample.
MIN_PASSES = 2
# No pass starts after this long, so a run ends well within 180 s.
MEASURE_LIMIT_S = 100.0
# BLAS and OpenMP pools get one thread: on a 2-CPU machine two threads
# spun a second CPU for no speed-up (1 s of extra CPU per 3 s dim_sweep pass)
# and tripled the pass-to-pass spread of energy.
THREADS = 1
THREAD_CAPS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")
WORKLOAD_NAMES = ("pipeline", "reduced", "energy", "dim_sweep")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


# ---------------------------------------------------------------------------
# one pass
# ---------------------------------------------------------------------------

class Pass:
    """Stage times, operation outcomes and check results of one pass."""

    def __init__(self, deadline: float, tracer=None, span_prefix: str = ""):
        self.deadline = deadline
        self.tracer = tracer
        self.span_prefix = span_prefix
        self.stages: dict[str, float] = {}
        self.ops: dict[str, str] = {}          # name -> ok | failed | known
        self.errors: dict[str, list[str]] = {}
        self.notes: dict = {}
        self.counts: dict[str, int] = {}
        self.cli_probes: dict[str, dict] = {}

    @contextmanager
    def stage(self, name: str):
        t = time.perf_counter()
        with self.tracer.span(name) if self.tracer else nullcontext():
            yield
        self.stages[name] = self.stages.get(name, 0.0) + time.perf_counter() - t

    def op(self, name: str, fn, *args, known=(), **kwargs):
        """Call ``fn``; a raised ``known`` exception is a known defect."""
        self.ops[name] = "ok"
        try:
            return fn(*args, **kwargs)
        except known as e:
            self.ops[name] = "known"
            self.errors.setdefault(name, []).append(f"{type(e).__name__}: {e}")
        except Exception as e:
            traceback.print_exc(file=sys.stderr)
            self.fail(name, f"{type(e).__name__}: {e}")
        return None

    def fail(self, name: str, detail: str) -> None:
        self.ops[name] = "failed"
        self.errors.setdefault(name, []).append(detail)

    def expect(self, name: str, ok, detail: str) -> None:
        if not ok:
            self.fail(name, detail)

    def note(self, name: str, value) -> None:
        self.notes[name] = value

    def count(self, key: str, value: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def cli(self, name: str, argv: list, out: Path) -> int:
        """Run one CLI subcommand in a fresh process; return its exit code."""
        if self.tracer:
            result = out / f"{name}.probe.json"
            cmd = [sys.executable, str(HERE / "cli_probe.py"), str(result),
                   str(OUT / f"{self.span_prefix}-{name}.spans.npz"), *argv]
        else:
            cmd = [sys.executable, "-m", "nodalbubbles.cli", *argv]
        timeout = max(self.deadline - time.perf_counter(), 1.0)
        code = subprocess.run(cmd, cwd=ROOT, env=child_env(),
                              stdout=sys.stderr, timeout=timeout).returncode
        if self.tracer and result.is_file():
            with open(result, encoding="utf-8") as fh:
                self.cli_probes[name] = json.load(fh)
        return code


# ---------------------------------------------------------------------------
# set-up, environment
# ---------------------------------------------------------------------------

def setup_probe(workload: str, seed: int) -> tuple[float, dict]:
    """Time one fresh interpreter that imports the package and builds inputs."""
    t = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
        cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=60)
    wall = time.perf_counter() - t
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"set-up probe exited with {proc.returncode}")
    return wall, json.loads(proc.stdout.strip().splitlines()[-1])


def summarize_setup(probes: list[tuple[float, dict]]) -> dict:
    walls = [w for w, _ in probes]
    return {
        "setup_s": statistics.median(walls),
        "samples": walls,
        "import_s": statistics.median(p["import_s"] for _, p in probes),
        "import_modules": statistics.median(p["import_modules"]
                                            for _, p in probes),
    }


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def src_digest() -> str:
    """SHA-256 over the library sources, so results name the code measured."""
    h = hashlib.sha256()
    for path in sorted((SRC / "nodalbubbles").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(seed: int) -> dict:
    import numpy
    import scipy
    return {
        "nproc": nproc(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_caps": {k: os.environ[k] for k in THREAD_CAPS},
        "git_commit": git_commit(),
        "src_sha256": src_digest(),
        "platform": platform.platform(),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# the measured loop
# ---------------------------------------------------------------------------

def tail_percentile(samples: list) -> dict | None:
    """The highest of p50/p90/p95/p99 with at least ten samples beyond it."""
    n = len(samples)
    best = None
    for p in (50, 90, 95, 99):
        if n * (100 - p) / 100.0 >= 10:
            best = {"p": p, "value": statistics.quantiles(
                samples, n=100, method="inclusive")[p - 1]}
    return best


def summarize(samples: list) -> dict:
    return {"median": statistics.median(samples), "n": len(samples),
            "tail": tail_percentile(samples), "samples": samples}


def run_pass(name: str, inp, traced: bool, deadline: float, seed: int,
             tracer=None, watch=None) -> dict:
    import layers
    import workloads
    _, run, check = workloads.WORKLOADS[name]
    p = Pass(deadline, tracer if traced else None, f"{name}-seed{seed}")
    t = time.perf_counter()
    if traced:
        tracer.clear()
        with tracer.installed(layers.all_targets(watch)), tracer.span("pass"):
            results = run(inp, p)
    else:
        results = run(inp, p)
    wall = time.perf_counter() - t
    raw = None
    if traced:
        raw = layers.merge([layers.aggregate(tracer, watch)]
                           + [c["raw"] for c in p.cli_probes.values()])
    try:
        check(inp, results, p)
    except Exception as e:
        # A check that cannot run counts against every operation it covers.
        traceback.print_exc(file=sys.stderr)
        for op in p.ops:
            p.fail(op, f"check raised {type(e).__name__}: {e}")
    return {"traced": traced, "wall_s": wall, "stages": p.stages,
            "ops": p.ops, "errors": p.errors, "notes": p.notes,
            "counts": p.counts, "cli_probes": p.cli_probes, "raw": raw}


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import layers
    import workloads
    from tracer import Tracer, save_spans

    inp = workloads.WORKLOADS[name][0](seed)
    tracer, watch = Tracer(), layers.GridWatch()
    # One untimed pass first: lazy imports and first-call set-up inside the
    # library made the first pass up to 1.5x slower than the rest.  Its
    # outputs are checked like every other pass's.
    warmup = run_pass(name, inp, False, time.perf_counter() + MEASURE_LIMIT_S,
                      seed)
    passes, probes = [], []
    start = time.perf_counter()
    deadline = start + MEASURE_LIMIT_S + 50.0
    while True:
        n_untraced = sum(not q["traced"] for q in passes)
        traced = trace and n_untraced > len(passes) - n_untraced
        passes.append(run_pass(name, inp, traced, deadline, seed,
                               tracer, watch))
        if traced:
            save_spans(OUT / f"{name}-seed{seed}.spans.npz", tracer)
        probes.append(setup_probe(name, seed))
        elapsed = time.perf_counter() - start
        enough = (any(q["traced"] for q in passes) if trace
                  else len(passes) >= MIN_PASSES)
        if (elapsed >= seconds and enough) or elapsed >= MEASURE_LIMIT_S:
            break
    while len(probes) < SETUP_PROBES:
        probes.append(setup_probe(name, seed))
    setup = summarize_setup(probes)

    untraced = [q for q in passes if not q["traced"]]
    stages = {s: summarize([q["stages"].get(s, 0.0) for q in untraced])
              for s in workloads.STAGES[name]}
    wall = summarize([q["wall_s"] for q in untraced])
    outcomes = [v for q in [warmup] + passes for v in q["ops"].values()]
    result = {
        "workload": name,
        "seconds": seconds,
        "trace": trace,
        "passes": len(passes),
        "setup": setup,
        "wall_s": wall,
        "stages": stages,
        "peak_rss_mb": peak_rss_mb(name),
        "attempted": len(outcomes),
        "failed": outcomes.count("failed"),
        "known_defects": outcomes.count("known"),
        "errors": {op: msgs for q in [warmup] + passes
                   for op, msgs in q["errors"].items()},
        "notes": passes[-1]["notes"],
    }
    result["fail_frac"] = ((result["failed"] + result["known_defects"])
                           / result["attempted"])
    if trace:
        stage_medians = {s: v["median"] for s, v in stages.items()}
        per_pass = []
        for q in passes:
            if not q["traced"]:
                continue
            ctx = {"import_s": setup["import_s"],
                   "import_modules": setup["import_modules"],
                   "certified": q["counts"].get("certified", 0),
                   "drawn": q["counts"].get("drawn", 0),
                   "stages": stage_medians, "wall_s": wall["median"],
                   "traced_wall_s": q["wall_s"]}
            for cmd, probe in q["cli_probes"].items():
                ctx[f"cli.{cmd}.import_s"] = probe["import_s"]
                ctx[f"cli.{cmd}.main_s"] = probe["main_s"]
            per_pass.append(layers.layer_metrics(q["raw"], ctx))
        result["layers"] = layers.median_metrics(per_pass)
    return result


def peak_rss_mb(workload: str) -> float:
    """Peak resident set: of the CLI processes for ``pipeline``, else own."""
    who = (resource.RUSAGE_CHILDREN if workload == "pipeline"
           else resource.RUSAGE_SELF)
    return resource.getrusage(who).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

def print_report(result: dict, spec: dict) -> None:
    w = result["workload"]
    print(f"perfbench {w}: seed {result['environment']['seed']}, "
          f"{result['passes']} passes, trace {int(result['trace'])}")

    def line(name, value, unit, extra=""):
        print(f"  {name:<44} {value:>14.6g} {unit:<8} {extra}")

    line("setup_s", result["setup"]["setup_s"], "s",
         f"median of {len(result['setup']['samples'])}")
    for name, s in [("wall_s", result["wall_s"])] + list(
            result["stages"].items()):
        tail = s["tail"]
        extra = f"median of {s['n']}" + (
            f", p{tail['p']} {tail['value']:.6g}" if tail else "")
        line(name, s["median"], "s", extra)
    line("peak_rss_mb", result["peak_rss_mb"], "MB")
    line("fail_frac", result["fail_frac"], "fraction",
         f"{result['failed']} failed + {result['known_defects']} known "
         f"defects of {result['attempted']} ops")
    for op, msgs in result["errors"].items():
        print(f"  ! {op}: {msgs[0]}")
    if result["trace"]:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        for name, value in result["layers"].items():
            line(name, value, units.get(name, ""))
    env = result["environment"]
    print(f"  env: {env['nproc']} CPUs ({env['cpu_model']}), Python "
          f"{env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, "
          f"threads {env['thread_caps']['OMP_NUM_THREADS']}, commit "
          f"{env['git_commit']}")


def contract_line(result: dict, spec: dict) -> dict:
    if result["trace"]:
        values, wanted = result["layers"], spec["per_layer"]
    else:
        values = {"setup_s": result["setup"]["setup_s"],
                  "wall_s": result["wall_s"]["median"],
                  "peak_rss_mb": result["peak_rss_mb"]}
        wanted = spec["end_to_end"]
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }


def run_all(args, spec: dict) -> int:
    """Each workload in its own process; one merged line at the end."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in [w["name"] for w in spec["workloads"]]:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", w,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print(f"{w}: exited with {proc.returncode}", file=sys.stderr)
            return 1
        last = json.loads(lines[-1])
        merged["correct"] &= last["correct"]
        merged["attempted"] += last["attempted"]
        merged["failed"] += last["failed"]
        for k, v in last["metrics"].items():
            merged["metrics"][f"{w}.{k}"] = v
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    if not (SRC / "nodalbubbles" / "__init__.py").is_file():
        print(f"error: no library sources at {SRC / 'nodalbubbles'}; run from "
              "a checkout of the repository", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    for key in THREAD_CAPS:
        os.environ[key] = str(THREADS)
    OUT.mkdir(exist_ok=True)
    if args.workload == "all":
        return run_all(args, spec)

    sys.path.insert(0, str(SRC))
    import nodalbubbles
    if Path(nodalbubbles.__file__).resolve().parent != SRC / "nodalbubbles":
        print(f"error: imported nodalbubbles from {nodalbubbles.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    result = measure(args.workload, args.seed, args.seconds,
                     bool(args.trace))
    result["environment"] = environment(args.seed)
    out = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    print_report(result, spec)
    print(f"  result file: {out.relative_to(ROOT)}")
    print(json.dumps(contract_line(result, spec)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
