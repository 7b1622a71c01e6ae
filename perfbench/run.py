"""Benchmark of the cocyclelab package: one workload per process.

    python3 perfbench/run.py --workload cli-suite [--seed N] [--seconds S]
                             [--trace 0|1]

The run sets up (a fresh interpreter imports ``cocyclelab`` and writes the
workload's seeded inputs; repeated, median reported as ``setup_s``), then
runs passes of the workload in a closed loop with one client until
``--seconds`` have elapsed.  Each pass is timed as a whole; oracle checks
and output digests run after the timer stops.

With ``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics (medians over passes).  With ``--trace 1`` untraced and
traced passes alternate, and the JSON holds the per-layer metrics of the
traced passes plus the tracing overhead.  Earlier lines print every metric
by name and unit, the run metadata, the failure ratio and how many output
digests differ from ``reference_digests.json``.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
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
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_out"
REFERENCE = BENCH_DIR / "reference_digests.json"

DEFAULT_SEED = 20200928
WORKLOADS = ("cli-suite", "mixing-sweep", "large-grid", "bernoulli-mc")
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 120

def _bench_config() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


# -- run metadata -----------------------------------------------------------------

def _read(path: str) -> str | None:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return None


def _l3_bytes() -> int | None:
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        if (_read(str(index / "level")) or "").strip() == "3":
            size = (_read(str(index / "size")) or "").strip()
            units = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}
            if size and size[-1] in units:
                return int(size[:-1]) * units[size[-1]]
    return None


def _openblas() -> dict:
    """Version and thread count of the OpenBLAS that numpy loaded."""
    import numpy as np

    info = {"version": None, "threads": None}
    blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    info["version"] = blas.get("version")
    maps = _read("/proc/self/maps") or ""
    libs = sorted({ln.split()[-1] for ln in maps.splitlines() if "openblas" in ln})
    for lib_path in libs:
        lib = ctypes.CDLL(lib_path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, sym):
                fn = getattr(lib, sym)
                fn.restype = ctypes.c_int
                info["threads"] = fn()
                return info
    return info


def _git_commit() -> str | None:
    head = _read(str(ROOT / ".git" / "HEAD"))
    if head is None:
        return None
    head = head.strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    direct = _read(str(ROOT / ".git" / ref))
    if direct:
        return direct.strip()
    for line in (_read(str(ROOT / ".git" / "packed-refs")) or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def metadata() -> dict:
    import numpy as np
    import scipy

    cpuinfo = _read("/proc/cpuinfo") or ""
    model = next((ln.split(":", 1)[1].strip() for ln in cpuinfo.splitlines()
                  if ln.startswith("model name")), platform.processor())
    return {
        "cpu_model": model,
        "nproc": len(os.sched_getaffinity(0)),
        "l3_bytes": _l3_bytes(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": _openblas(),
        "git_commit": _git_commit(),
    }


# -- set-up -----------------------------------------------------------------------

def timed_setup(workload: str, seed: int, work: Path) -> list[float]:
    """Wall times of SETUP_REPEATS fresh interpreters that import cocyclelab
    and write the workload's inputs."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    cmd = [sys.executable, str(BENCH_DIR / "inputs.py"), "--workload",
           workload, "--seed", str(seed), "--dir", str(work)]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, check=True, timeout=SETUP_TIMEOUT_S,
                       stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return times


# -- passes -----------------------------------------------------------------------

def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def run_pass(workload: str, params: dict, work: Path, size: str = "full",
             tracer=None) -> dict:
    """One closed-loop pass; returns its timings, check tallies, digests and
    (when traced) per-layer metrics.  Each operation's result is checked,
    digested and dropped before the next operation runs, so memory holds one
    result at a time, as in a user's run."""
    from workloads import build_ops

    wall, cpu, failures, digests = {}, {}, [], {}
    for op in build_ops(workload, params, work, size):
        result, error = None, None
        if tracer is not None:
            tracer.install()
        cpu0, t0 = _cpu_s(), time.perf_counter()
        try:
            result = op.run()
        except Exception:
            error = traceback.format_exc()
        finally:
            wall[op.name] = time.perf_counter() - t0
            cpu[op.name] = _cpu_s() - cpu0
            if tracer is not None:
                tracer.uninstall()
        if error is None:
            try:
                bad = [label for label, ok in op.check(result) if not ok]
                for name, data in op.outputs(result).items():
                    digests[name] = hashlib.sha256(data).hexdigest()
            except Exception:
                error = traceback.format_exc()
        if error is not None:
            bad = [f"raised:\n{error}"]
        if bad:
            failures.append((op.name, bad))
        del result
    out = {"wall_s": wall, "cpu_s": cpu, "attempted": len(wall),
           "failures": failures, "digests": digests}
    if tracer is not None:
        out["layers"] = tracer.take_pass()
    gc.collect()
    return out


def compare_digests(workload: str, seed: int, digests: dict) -> tuple[int, int]:
    """(compared, differing) against the reference digests: an output is
    compared when the reference marks it seed-independent or the run uses
    the reference's seed."""
    ref_doc = json.loads(_read(str(REFERENCE)) or "{}")
    refs = ref_doc.get("workloads", {}).get(workload, {})
    same_seed = seed == ref_doc.get("seed")
    compared = differing = 0
    for name, digest in digests.items():
        ref = refs.get(name)
        if ref is None or not (same_seed or ref["any_seed"]):
            continue
        compared += 1
        differing += digest != ref["sha256"]
    return compared, differing


def write_reference(workload: str, work: Path):
    """Record the digests of one pass at DEFAULT_SEED, marking outputs that a
    second seed leaves unchanged as seed-independent."""
    from inputs import write_inputs

    by_seed = {}
    for seed in (DEFAULT_SEED, DEFAULT_SEED + 1):
        params = write_inputs(workload, seed, work)
        by_seed[seed] = run_pass(workload, params, work)["digests"]
    base, other = by_seed[DEFAULT_SEED], by_seed[DEFAULT_SEED + 1]
    doc = json.loads(_read(str(REFERENCE)) or "{}")
    doc["seed"] = DEFAULT_SEED
    doc.setdefault("workloads", {})[workload] = {
        name: {"sha256": digest, "any_seed": other.get(name) == digest}
        for name, digest in sorted(base.items())}
    doc["workloads"] = dict(sorted(doc["workloads"].items()))
    with open(REFERENCE, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def _median(values) -> float:
    return float(statistics.median(values))


def pass_time(passes, key: str) -> float:
    """Time of one full pass: the sum over operations of each operation's
    median over the passes, so a stall in one operation of one pass does not
    move the figure."""
    return sum(_median(p[key][name] for p in passes) for name in passes[0][key])


def _fmt_list(values) -> str:
    return ", ".join(f"{v:.4f}" for v in values)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="cocyclelab benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-reference", action="store_true",
                    help="rewrite this workload's reference digests and exit")
    args = ap.parse_args(argv)

    if not (SRC / "cocyclelab").is_dir() or not (ROOT / "scenarios").is_dir():
        print(f"error: no cocyclelab source tree under {ROOT}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    work = WORK / args.workload
    if args.write_reference:
        write_reference(args.workload, work)
        return 0

    setup_times = timed_setup(args.workload, args.seed, work)
    with open(work / "inputs.json") as fh:
        params = json.load(fh)
    meta = metadata()

    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        plain.append(run_pass(args.workload, params, work))
        if tracer is not None:
            traced.append(run_pass(args.workload, params, work, tracer=tracer))
        elapsed = time.perf_counter() - start
        # start another round only if it can end within --seconds
        if elapsed * (len(plain) + 1) / len(plain) > args.seconds:
            break
    passes = plain + traced

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(len(p["failures"]) for p in passes)
    for p in passes:
        for name, bad in p["failures"]:
            print(f"FAILED {name}: {'; '.join(bad)}", file=sys.stderr)
    compared, differing = compare_digests(args.workload, args.seed,
                                          passes[-1]["digests"])
    unstable = sum(p["digests"] != passes[0]["digests"] for p in passes[1:])

    config = _bench_config()
    if tracer is None:
        values = {
            "wall_s": pass_time(plain, "wall_s"),
            "setup_s": _median(setup_times),
            "cpu_s": pass_time(plain, "cpu_s"),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        wanted = config["end_to_end"]
    else:
        layers = [p["layers"] for p in traced]
        names = sorted({k for lay in layers for k in lay})
        values = {k: _median(lay.get(k, 0) for lay in layers) for k in names}
        values["trace.wall_s"] = pass_time(traced, "wall_s")
        values["trace.overhead_s"] = (values["trace.wall_s"]
                                      - pass_time(plain, "wall_s"))
        values["digests.compared"] = compared
        values["digests.differing"] = differing
        over = [p for p in traced if p["layers"]["trace.self_s_total"]
                > sum(p["wall_s"].values())]
        attempted += len(traced)
        failed += len(over)
        if over:
            print("FAILED self times exceed the traced pass wall time",
                  file=sys.stderr)
        wanted = config["per_layer"]
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
               for m in wanted}

    record = {"workload": args.workload, "seed": args.seed, "meta": meta,
              "setup_s": setup_times, "metrics": metrics,
              "passes": [{k: p[k] for k in ("wall_s", "cpu_s", "digests")}
                         for p in plain],
              "traced_passes": [{k: p[k] for k in ("wall_s", "layers")}
                                for p in traced]}
    with open(work / f"run_trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    print(f"workload {args.workload}  seed {args.seed}  passes "
          f"{len(plain)} untraced, {len(traced)} traced  "
          f"(closed loop, one client)")
    print("meta " + json.dumps(meta, sort_keys=True))
    print(f"setup_s runs: {_fmt_list(setup_times)}")
    print(f"wall_s per pass: {_fmt_list(sum(p['wall_s'].values()) for p in plain)}")
    if traced:
        print("traced wall_s per pass: "
              f"{_fmt_list(sum(p['wall_s'].values()) for p in traced)}")
    largest = values.get("measure.kernel_bytes_max")
    if largest is not None:
        print(f"largest kernel {largest / 2**20:.1f} MiB vs L3 "
              f"{(meta['l3_bytes'] or 0) / 2**20:.1f} MiB")
    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:.6g} {m['unit']}")
    print(f"fail_ratio {failed / attempted:.6g} ({failed} of {attempted} "
          f"oracle-checked operations)")
    print(f"digests: {differing} of {compared} compared outputs differ from "
          f"the reference; {unstable} passes differ from the first")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
