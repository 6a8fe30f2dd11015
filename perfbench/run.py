#!/usr/bin/env python3
"""Benchmark of the post-OPC timing flow: build, run one workload, report.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --record-goldens [--workload <name>]
    python3 perfbench/run.py --short ...          (tiny designs, self-test)

Run from the repository root.  The harness (perfbench/*.cpp) is built from
source with CMake into .bench_build/ (or $CARGO_TARGET_DIR), together with
the repository libraries it links; the cell library is characterized once
into a benchmark-owned file there.  The last line of standard output is the
JSON result; the line before it is the host and build fingerprint, which is
also saved with the result under .bench_build/perfbench/results/.
See perfbench/BENCHMARK.md.
"""

import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
BENCH = Path(__file__).resolve().parent
WORKLOADS = ("unique_socs", "tiled_sharded", "tiled_warm", "sta_queries")
GOLDEN_SEEDS = 64  # must match kGoldenSeeds in harness.h
# The run must end within 180 s; the first one in a checkout also builds.
RUN_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 840


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build_root():
    root = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return root if root.is_absolute() else ROOT / root


def check_checkout():
    missing = [p for p in ("CMakeLists.txt", "src/CMakeLists.txt")
               if not (ROOT / p).is_file()]
    if missing:
        sys.exit(f"perfbench: not a repository root (missing {', '.join(missing)})")


def build(build_dir):
    cache = build_dir / "CMakeCache.txt"
    if not cache.exists():
        cmd = ["cmake", "-S", str(BENCH), "-B", str(build_dir),
               "-DCMAKE_EXPORT_COMPILE_COMMANDS=ON"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr,
                       timeout=BUILD_TIMEOUT_S)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(build_dir), "-j", jobs,
                    "--target", "perfbench"],
                   check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    return build_dir / "perfbench"


def cmake_cache(build_dir):
    values = {}
    for line in (build_dir / "CMakeCache.txt").read_text().splitlines():
        m = re.match(r"^([A-Za-z_]+):[A-Z]+=(.*)$", line)
        if m:
            values[m.group(1)] = m.group(2)
    return values


def flags_of(build_dir, source_suffix):
    try:
        commands = json.loads((build_dir / "compile_commands.json").read_text())
    except (OSError, ValueError):
        return ""
    for entry in commands:
        if entry.get("file", "").endswith(source_suffix):
            words = entry.get("command", "").split()
            return " ".join(w for w in words
                            if w.startswith(("-O", "-m", "-f", "-g", "-std")))
    return ""


def source_digest():
    h = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "perfbench"):
        path = ROOT / top
        files = [path] if path.is_file() else sorted(
            p for p in path.rglob("*") if p.is_file())
        for f in files:
            h.update(str(f.relative_to(ROOT)).encode())
            h.update(f.read_bytes())
    return h.hexdigest()[:16]


def fingerprint(build_dir, seed):
    cache = cmake_cache(build_dir)
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        version = "unknown"
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = "none"
    if (ROOT / ".git").exists():
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                           capture_output=True, text=True)
        commit = r.stdout.strip() or "none"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "kernel": platform.release(),
        "compiler": f"{compiler} ({version})",
        "build_type": cache.get("CMAKE_BUILD_TYPE", ""),
        "cxx_flags": flags_of(build_dir, "src/core/flow.cpp"),
        "kernel_flags": flags_of(build_dir, "src/common/fft.cpp"),
        "seed": seed,
        "git_commit": commit,
        "source_digest": source_digest(),
    }


def goldens_file(short):
    return BENCH / ("goldens_short.json" if short else "goldens.json")


def golden_for(workload, seed, short):
    goldens = json.loads(goldens_file(short).read_text())
    # tiled_warm replays tiled_sharded's run and must match its golden.
    key = "tiled_sharded" if workload == "tiled_warm" else workload
    table = goldens[key]
    return table.get(str(seed % GOLDEN_SEEDS), table.get("*"))


def base_args(binary, work_root, lib, workload, seed, short):
    argv = [str(binary), "--workload", workload, "--seed", str(seed),
            "--lib", str(lib), "--work-root", str(work_root)]
    return argv + (["--short"] if short else [])


def record_goldens(binary, work_root, lib, workloads, short):
    path = goldens_file(short)
    goldens = json.loads(path.read_text()) if path.exists() else {}
    for workload in workloads:
        if workload == "tiled_warm":
            continue
        # sta_queries' golden (the loaded design's drawn worst slack) does
        # not depend on the seed.
        seeds = ["*"] if workload == "sta_queries" else range(GOLDEN_SEEDS)
        table = goldens.setdefault(workload, {})
        for s in seeds:
            out = subprocess.run(
                base_args(binary, work_root, lib, workload,
                          0 if s == "*" else s, short) + ["--mode", "record"],
                check=True, capture_output=True, text=True).stdout
            table[str(s)] = out.split()[-1]
            log(f"golden {workload} seed {s}: {table[str(s)]}")
        path.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--short", action="store_true",
                    help="tiny designs (harness self-test)")
    ap.add_argument("--golden", help="override the recorded golden")
    ap.add_argument("--record-goldens", action="store_true")
    args = ap.parse_args()
    if not args.record_goldens and args.workload is None:
        ap.error("--workload is required")

    check_checkout()
    out_root = build_root()
    build_dir = out_root / "perfbench-cmake"
    work_root = out_root / "perfbench"
    work_root.mkdir(parents=True, exist_ok=True)
    binary = build(build_dir)
    # Benchmark-owned cell library: characterized once per checkout, never
    # shared with the examples' or benches' library files.
    lib = work_root / "poc_cells.lib"
    subprocess.run([str(binary), "--mode", "prepare", "--lib", str(lib)],
                   check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)

    if args.record_goldens:
        record_goldens(binary, work_root, lib,
                       [args.workload] if args.workload else WORKLOADS,
                       args.short)
        return 0

    golden = args.golden or golden_for(args.workload, args.seed, args.short)
    if golden is None:
        sys.exit(f"perfbench: no golden for {args.workload} seed {args.seed}")
    argv = base_args(binary, work_root, lib, args.workload, args.seed,
                     args.short)
    argv += ["--seconds", str(args.seconds), "--trace", str(args.trace),
             "--golden", golden]
    # Own process group, so a timeout also stops the shard workers and
    # set-up children the harness started.
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        sys.exit(f"perfbench: harness timed out after {RUN_TIMEOUT_S} s")
    sys.stderr.write(err)
    lines = out.splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"perfbench: harness exited with {proc.returncode}")
    result = json.loads(lines[-1])
    fp = fingerprint(build_dir, args.seed)
    for line in lines[:-1]:
        print(line)
    print("FINGERPRINT " + json.dumps(fp, sort_keys=True))
    results = work_root / "results"
    results.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(
        {"workload": args.workload, "fingerprint": fp, "result": result},
        indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
