"""proxpoint benchmark: the CLI presets, small-d library engines and the
certificate sweep, timed end to end and, in a separate traced run, per
module.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload presets|engine-small|certificate \
        --seed N --seconds S --trace 0|1

The program is the checkout's own ``src/proxpoint``; nothing is
installed. A run first times SETUP_REPS fresh set-up processes, then
repeats passes over the workload, one job at a time, until ``--seconds``
have elapsed. With ``--trace 0`` it reports the end-to-end metrics; with
``--trace 1`` it alternates untraced and traced passes and reports the
per-layer metrics plus the tracing overhead. Human-readable lines come
first; the last line of standard output is the JSON result. Outputs,
spans and a result record with the environment go to
``.bench_build/perfbench/``. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import workloads as wl
from tracer import LAYERS, Tracer, load_spans, self_times

T0 = time.perf_counter()
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("presets", "engine-small", "certificate")
SETUP_REPS = 5
CHILD_TIMEOUT_S = 150
# No pass starts unless it is expected to end by then, so a run ends
# well inside 180 s.
RUN_BUDGET_S = 165

METHOD_ENGINES = ("ppm", "accelerated_ppm", "guler1", "guler2", "restarted_fixed",
                  "restarted_adaptive", "forward_yosida", "saddle_ppm", "drs")
SPLITTING_ENGINES = ("pdhg", "admm", "accelerated_prox_multipliers")
CERT_TIMED = (60, 120, 240)
PRESET_NAMES = [p[0] for p in wl.PRESETS]
FACTORIES = ("linear_resolvent", "saddle_resolvent_map", "preconditioned_resolvent_map")

class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


class ChildTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise ChildTimeout


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(cmd, name):
    """Run one process to completion; returns (exit code, wall s, rusage).

    ``os.wait4`` gives this child's own CPU time and peak RSS.
    """
    out_path, err_path = WORK / f"{name}.stdout", WORK / f"{name}.stderr"
    with open(out_path, "w") as out, open(err_path, "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=out, stderr=err)
        signal.signal(signal.SIGALRM, _on_alarm)
        signal.alarm(CHILD_TIMEOUT_S)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except ChildTimeout:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            signal.alarm(0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage


def cpu_seconds(usage):
    return usage.ru_utime + usage.ru_stime


# -- set-up ---------------------------------------------------------------

def setup_probes(workload, seed):
    """Wall time of fresh set-up processes, after one untimed warm-up that
    fills the bytecode cache; returns (walls, per-phase timings)."""
    cmd = [sys.executable, str(HERE / "probe.py"), workload, str(seed)]
    walls, phases = [], []
    for rep in range(SETUP_REPS + 1):
        code, wall, _ = run_child(cmd, "probe")
        if code != 0:
            detail = (WORK / "probe.stderr").read_text().strip().splitlines()
            raise BenchError(f"set-up probe exited {code}: {detail[-1] if detail else ''}")
        if rep:
            walls.append(wall)
            phases.append(json.loads((WORK / "probe.stdout").read_text()))
    return walls, phases


# -- passes ----------------------------------------------------------------

def presets_pass(seed, traced, ledger):
    """One pass over the CLI presets, each in a fresh process."""
    csv_dir = WORK / "csv"
    csv_dir.mkdir(exist_ok=True)
    spans, jobs, children = [], [], {}
    iters = child_cpu = csv_bytes = 0
    rss_kb = 0
    self0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    for preset, extra, seeded, rows in wl.PRESETS:
        out = csv_dir / f"{preset}.csv"
        out.unlink(missing_ok=True)
        flags = wl.preset_flags(preset, extra, seeded, seed)
        argv = ["--experiment", preset, "--out", str(out), *flags]
        span_file = WORK / "child_spans.jsonl"
        if traced:
            span_file.unlink(missing_ok=True)
            cmd = [sys.executable, str(HERE / "cli_traced.py"), str(span_file), *argv]
        else:
            cmd = [sys.executable, "-m", "proxpoint.cli", *argv]
        code, wall, usage = run_child(cmd, "cli")
        child_cpu += cpu_seconds(usage)
        rss_kb = max(rss_kb, usage.ru_maxrss)
        children[preset] = {"wall": wall, "cpu": cpu_seconds(usage)}
        error = f"exit code {code}" if code != 0 else None
        if error is None and not out.is_file():
            error = "no CSV written"
        if error is None:
            data = out.read_bytes()
            error = wl.check_csv(preset, data.decode(), rows)
            csv_bytes += len(data)
            ledger.record(preset, flags, hashlib.sha256(data).hexdigest())
        if preset != "cert":
            iters += rows
        jobs.append((preset, error))
        if traced and span_file.is_file():
            for s in load_spans(span_file):
                s["attrs"]["job"] = preset
                spans.append(s)
    wall = time.perf_counter() - t0
    self1 = resource.getrusage(resource.RUSAGE_SELF)
    return {"wall": wall, "cpu": child_cpu + cpu_seconds(self1) - cpu_seconds(self0),
            "rss_mb": rss_kb / 1024, "iters": iters, "jobs": jobs, "spans": spans,
            "children": children, "csv_bytes": csv_bytes}


JOBS = {"engine-small": wl.engine_small_jobs, "certificate": wl.certificate_jobs}


def library_pass(pp, workload, seed, traced):
    """One in-process pass: set-up, then every job of the workload."""
    tracer = Tracer(prefix="b.") if traced else None
    jobs, iters = [], 0
    self0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    if tracer:
        tracer.install(pp)
    try:
        with (tracer.span("setup", "bench") if tracer else nullcontext()):
            state, _ = wl.SETUPS[workload](pp, seed, time.perf_counter)
        for name, thunk, n in JOBS[workload](pp, state):
            try:
                with (tracer.span(name, "bench") if tracer else nullcontext()):
                    error = thunk()
            except Exception as exc:  # a failing job is counted, not fatal
                error = f"{type(exc).__name__}: {exc}"
            jobs.append((name, error))
            iters += n
    finally:
        if tracer:
            tracer.uninstall()
    wall = time.perf_counter() - t0
    self1 = resource.getrusage(resource.RUSAGE_SELF)
    return {"wall": wall, "cpu": cpu_seconds(self1) - cpu_seconds(self0),
            "rss_mb": self1.ru_maxrss / 1024, "iters": iters, "jobs": jobs,
            "spans": [s.record() for s in tracer.spans] if tracer else [],
            "children": {}, "csv_bytes": 0}


class CsvLedger:
    """sha256 of every CSV, per preset and flags, kept across runs in the
    same checkout; a changed digest is reported, not counted as a failure."""

    def __init__(self, path):
        self.path = path
        self.known = json.loads(path.read_text()) if path.is_file() else {}
        self.changed = {}
        self.seen = {}

    def record(self, preset, flags, digest):
        key = " ".join([preset, *flags])
        self.seen[key] = digest
        if key in self.known and self.known[key] != digest:
            self.changed[key] = {"was": self.known[key], "now": digest}
        self.known.setdefault(key, digest)

    def save(self):
        self.path.write_text(json.dumps(self.known, indent=1, sort_keys=True))


def run_passes(one_pass, seconds, traced_mode):
    """Closed loop: passes back to back until ``seconds`` have elapsed (at
    least one). In traced mode each step is an untraced pass followed by
    a traced one. Returns (untraced passes, traced passes)."""
    plain, traced = [], []
    start = time.perf_counter()
    longest = 0.0
    while True:
        t = time.perf_counter()
        plain.append(one_pass(False))
        if traced_mode:
            traced.append(one_pass(True))
        longest = max(longest, time.perf_counter() - t)
        now = time.perf_counter()
        if now - start >= seconds or now - T0 + longest > RUN_BUDGET_S:
            return plain, traced


# -- metrics ---------------------------------------------------------------

def summary(values):
    """Median, quartiles and sample count of a list of numbers."""
    values = list(values)
    if len(values) >= 2:
        q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = q2 = q3 = values[0]
    return {"median": q2, "p25": q1, "p75": q3, "n": len(values)}


def end_to_end(passes, setup_walls):
    return {
        "wall_s": summary(p["wall"] for p in passes),
        "cpu_s": summary(p["cpu"] for p in passes),
        "peak_rss_mb": summary(p["rss_mb"] for p in passes),
        "setup_s": summary(setup_walls),
        "iters_per_s": summary(p["iters"] / p["wall"] for p in passes),
    }


def _dur(s):
    return (s["end"] - s["start"]) / 1e9


def _per_iter_us(spans):
    iters = sum(s["attrs"]["iters"] for s in spans)
    return sum(_dur(s) for s in spans) / iters * 1e6 if iters else 0.0


def layer_metrics(p):
    """Per-layer numbers of one traced pass; a layer the workload does not
    call reads 0."""
    spans = p["spans"]
    by_id = {s["id"]: s for s in spans}
    own = self_times(spans)
    m = {f"{layer}.self_s": sum(own[s["id"]] for s in spans if s["layer"] == layer) / 1e9
         for layer in LAYERS}

    def outermost(layer):
        return [s for s in spans if s["layer"] == layer
                and by_id.get(s["parent"], {}).get("layer") != layer]

    m["problems.instance_s"] = sum(_dur(s) for s in outermost("problems"))
    m["operators.factor_s"] = sum(_dur(s) for s in spans if s["name"] in FACTORIES)

    engines = [s for s in spans if "engine" in s["attrs"]]
    calls = sum(s["attrs"].get("resolvent_calls", 0) for s in spans)
    resolvent_ns = sum(s["attrs"].get("resolvent_ns", 0) for s in spans)
    consuming = [s for s in engines if s["attrs"].get("resolvent_calls")]
    busy_ns = sum(s["end"] - s["start"] for s in consuming)
    inside_ns = sum(s["attrs"]["resolvent_ns"] for s in consuming)
    consuming_iters = sum(s["attrs"]["iters"] for s in consuming)
    m["operators.resolvent_calls"] = calls
    m["operators.resolvent_us"] = resolvent_ns / calls / 1e3 if calls else 0.0
    m["operators.resolvent_share"] = inside_ns / busy_ns if busy_ns else 0.0
    for e in METHOD_ENGINES:
        m[f"methods.us_per_iter.{e}"] = _per_iter_us(
            [s for s in engines if s["attrs"]["engine"] == e])
    m["methods.self_us_per_iter"] = ((busy_ns - inside_ns) / 1e3 / consuming_iters
                                     if consuming_iters else 0.0)
    m["methods.trace_mb"] = sum(s["attrs"].get("trace_bytes", 0) for s in engines) / 2**20
    m["methods.restarts"] = sum(s["attrs"].get("restarts", 0) for s in engines)

    split = [s for s in engines if s["layer"] == "splitting"]
    oracle = [s for s in split if s["attrs"]["oracle"]]
    requested = [s for s in split if not s["attrs"]["oracle"]]
    split_iters = sum(s["attrs"]["iters"] for s in split)
    m["splitting.oracle_s"] = sum(_dur(s) for s in oracle)
    m["splitting.oracle_share"] = (sum(s["attrs"]["iters"] for s in oracle) / split_iters
                                   if split_iters else 0.0)
    m["splitting.method_s"] = sum(_dur(s) for s in requested)
    for e in SPLITTING_ENGINES:
        m[f"splitting.us_per_iter.{e}"] = _per_iter_us(
            [s for s in requested if s["name"] == e])
    fista = sum(s["attrs"].get("fista_calls", 0) for s in spans)
    soft = sum(s["attrs"].get("soft_calls", 0) for s in spans)
    # A FISTA call applies soft_threshold once per test of its stopping
    # rule and once per step, so steps = (calls - FISTA calls) / 2.
    m["splitting.inner_per_outer"] = (soft - fista) / 2 / fista if fista else 0.0

    verify = [s for s in spans if s["name"] == "verify_certificate"]
    for n in CERT_TIMED:
        sel = [_dur(s) for s in verify if s["attrs"]["n"] == n]
        m[f"pep_cert.verify_s.N{n}"] = sum(sel) / len(sel) if sel else 0.0
    m["pep_cert.slack_s"] = sum(_dur(s) for s in spans if s["name"] == "certificate_slack")
    m["pep_cert.max_deviation"] = max((s["attrs"]["deviation"] for s in verify), default=0.0)

    for preset in PRESET_NAMES:
        m[f"cli.run_experiment_s.{preset}"] = sum(
            _dur(s) for s in spans
            if s["name"] == "run_experiment" and s["attrs"].get("job") == preset)
    m["cli.csv_bytes"] = p["csv_bytes"]
    m["trace.spans"] = len(spans)
    return m


def normals_per_s(pp):
    """SplitMix64 throughput at 10^6 normal draws, median of three."""
    times = []
    for rep in range(3):
        t = time.perf_counter()
        pp.SplitMix64(rep).normals(10**6)
        times.append(time.perf_counter() - t)
    return 1e6 / statistics.median(times)


def per_layer(pp, plain, traced, phases):
    per_pass = [layer_metrics(p) for p in traced]
    out = {k: summary(d[k] for d in per_pass) for k in per_pass[0]}
    out["cli.import_s"] = summary(ph["import_s"] for ph in phases)
    out["problems.normals_per_s"] = summary([normals_per_s(pp)])
    for preset in PRESET_NAMES:
        ratios = [p["children"][preset]["cpu"] / p["children"][preset]["wall"]
                  for p in plain if preset in p["children"]]
        out[f"cli.cpu_per_wall.{preset}"] = summary(ratios or [0.0])
    plain_wall = statistics.median(p["wall"] for p in plain)
    traced_wall = statistics.median(p["wall"] for p in traced)
    out["trace.overhead_s"] = summary([traced_wall - plain_wall])
    out["trace.overhead_frac"] = summary([(traced_wall - plain_wall) / plain_wall])
    return out


# -- environment -----------------------------------------------------------

def blas_threads():
    """Thread count reported by each OpenBLAS loaded in this process."""
    import ctypes

    found = {}
    with open("/proc/self/maps") as fh:
        paths = {ln.split()[-1] for ln in fh if "openblas" in ln.lower()}
    for path in sorted(p for p in paths if p.startswith("/")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[Path(path).name] = fn()
                break
    return found


def environment(args, n_plain, n_traced):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (ROOT / ".git").exists():
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        commit = res.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    thread_vars = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                   "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "config": blas.get("openblas configuration"),
                 "threads": blas_threads(),
                 "thread_env": {k: os.environ.get(k) for k in thread_vars}},
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "instance_seeds": ({p: wl.derived_seed(args.seed, p) if seeded else None
                            for p, _, seeded, _ in wl.PRESETS}
                           if args.workload == "presets" else {"SplitMix64": args.seed}),
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": {"untraced": n_plain, "traced": n_traced},
        "setup_reps": SETUP_REPS,
    }


# -- main ------------------------------------------------------------------

def declared_units(trace):
    """Metric name -> unit, in the order BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "proxpoint" / "__init__.py").is_file():
        raise BenchError(f"no proxpoint sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import proxpoint as pp
    if Path(pp.__file__).resolve().parent != (SRC / "proxpoint").resolve():
        raise BenchError(f"imported proxpoint from {pp.__file__}, not from {SRC}")
    WORK.mkdir(parents=True, exist_ok=True)

    setup_walls, phases = setup_probes(args.workload, args.seed)
    ledger = CsvLedger(WORK / "csv_sha256.json")
    if args.workload == "presets":
        def one_pass(traced):
            return presets_pass(args.seed, traced, ledger)
    else:
        def one_pass(traced):
            return library_pass(pp, args.workload, args.seed, traced)
    plain, traced = run_passes(one_pass, args.seconds, bool(args.trace))
    ledger.save()

    jobs = [j for p in plain + traced for j in p["jobs"]]
    failures = [f"{name}: {err}" for name, err in jobs if err]
    if args.trace:
        stats = per_layer(pp, plain, traced, phases)
        span_path = WORK / "spans" / f"{args.workload}-seed{args.seed}.jsonl"
        span_path.parent.mkdir(exist_ok=True)
        with open(span_path, "w") as fh:
            for p in traced:
                for s in p["spans"]:
                    fh.write(json.dumps(s) + "\n")
    else:
        stats = end_to_end(plain, setup_walls)
    units = declared_units(args.trace)
    if sorted(stats) != sorted(units):
        raise BenchError("metrics differ from those declared in BENCHMARK.json")
    stats = {name: stats[name] for name in units}

    record = {
        "environment": environment(args, len(plain), len(traced)),
        "metrics": {k: {**v, "unit": units[k]} for k, v in stats.items()},
        "failed_frac": len(failures) / len(jobs),
        "failures": failures,
        "csv_sha256": ledger.seen,
        "csv_changed": ledger.changed,
        "setup_phases": phases,
        "passes": [{k: p[k] for k in ("wall", "cpu", "rss_mb", "iters", "children")}
                   for p in plain + traced],
    }
    results = WORK / "results"
    results.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    record_path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}.json"
    record_path.write_text(json.dumps(record, indent=1))

    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(plain)}+{len(traced)} setup_reps={SETUP_REPS}")
    for name, v in stats.items():
        print(f"  {name:36s} {v['median']:14.6g} {units[name]:6s} "
              f"[p25 {v['p25']:.6g}, p75 {v['p75']:.6g}, n={v['n']}]")
    print(f"  {'failed_frac':36s} {record['failed_frac']:14.6g} "
          f"({len(failures)} of {len(jobs)} jobs)")
    for f in failures[:10]:
        print(f"  FAILED {f}")
    for key, change in ledger.changed.items():
        print(f"  CSV bytes changed: {key} {change['was'][:12]} -> {change['now'][:12]}")
    print(f"  record: {record_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": not failures,
        "attempted": len(jobs),
        "failed": len(failures),
        "metrics": {k: {"value": v["median"], "unit": units[k]} for k, v in stats.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
