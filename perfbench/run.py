#!/usr/bin/env python3
"""Builds the benchmark from source and runs it.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --write-manifest

Run it from the root of the repository. The release build goes to
$CARGO_TARGET_DIR (default: perfbench/target). The benchmark's output
passes through unchanged; its last line is the JSON result. With
--trace 1 the spans of the traced passes are written next to the build,
as perfbench-trace-<workload>-<seed>.json. --write-manifest regenerates
BENCHMARK.json from the metric definitions in perfbench/src/metrics.rs.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# A run must end within 180 s; stop a stuck one short of that.
RUN_TIMEOUT_S = 170
# glibc's allocator, told to keep freed memory in the heap: the benchmark
# measures a warm, long-lived process. By default glibc serves large
# buffers with fresh mmaps and moves that threshold as the process frees
# them, so whether a pass pays page faults for its restore buffers
# depends on allocation history. On a 2-core VM that made one workload's
# restore rate bimodal, 1.7 or 4.5 GB/s, from run to run.
ALLOCATOR_ENV = {
    "MALLOC_MMAP_THRESHOLD_": str(32 << 20),
    "MALLOC_TRIM_THRESHOLD_": str(1 << 30),
}


def build():
    """Builds the release binary and returns its path, or None."""
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", os.path.join(HERE, "target")))
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
        return None
    return os.path.join(target, "release", "perfbench")


def main(argv):
    exe = build()
    if exe is None:
        print("run.py: build failed", file=sys.stderr)
        return 1
    if argv == ["--write-manifest"]:
        manifest = subprocess.run([exe, "--manifest"], capture_output=True, text=True, check=True)
        with open("BENCHMARK.json", "w") as f:
            f.write(manifest.stdout)
        return 0

    args = list(argv)
    opts = dict(zip(args[::2], args[1::2]))
    if opts.get("--trace") == "1":
        name = "perfbench-trace-%s-%s.json" % (opts.get("--workload"), opts.get("--seed"))
        args += ["--trace-out", os.path.join(os.path.dirname(os.path.dirname(exe)), name)]
    sys.stdout.flush()
    try:
        env = dict(os.environ, **ALLOCATOR_ENV)
        return subprocess.run([exe] + args, timeout=RUN_TIMEOUT_S, env=env).returncode
    except subprocess.TimeoutExpired:
        print("run.py: benchmark did not finish within %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
