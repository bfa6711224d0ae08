#!/usr/bin/env python3
"""Build the AFE cost benchmark from source and run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload nfs_seq|eafe_seq|nfs_spark \
        --seed N --seconds S --trace 0|1

The first run in a checkout compiles the repository's main sources and the
benchmark program with sbt (perfbench/build.sbt); later runs reuse the build
while the sources are unchanged. The benchmark JVM prints a human-readable
summary and, as its last stdout line, one JSON object with the keys
correct, attempted, failed and metrics.

Seeds 1-10 were used while the benchmark was tuned; the held-out seed is
1000003. A change that claims a gain must show it on that seed too.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(HERE, ".build")
WORKLOADS = ("nfs_seq", "eafe_seq", "nfs_spark")

BUILD_TIMEOUT_S = 700
# A run sets up, then starts passes until --seconds have been measured; the
# last pass may end after that. This allowance covers set-up, the last pass
# and the checks.
RUN_ALLOWANCE_S = 165

# Everything the build reads, relative to the repository root; build output
# below them is skipped.
SOURCES = ("build.sbt", "project", "src/main", "jobs",
           "perfbench/build.sbt", "perfbench/project", "perfbench/src")


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def source_files(path):
    if os.path.isfile(path):
        return [path]
    files = []
    for d, dirs, fs in os.walk(path):
        dirs[:] = sorted(x for x in dirs if x not in ("target", "project"))
        files += [os.path.join(d, f) for f in sorted(fs)]
    return files


def source_stamp():
    h = hashlib.sha256(ROOT.encode())
    for rel in SOURCES:
        for f in source_files(os.path.join(ROOT, rel)):
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def cached_classpath(stamp):
    """The classpath of an earlier build of the same sources, if every entry
    of it still exists (sbt writes classes to target/ directories outside
    .build, which `sbt clean` removes)."""
    stamp_file = os.path.join(BUILD, "stamp")
    cp_file = os.path.join(BUILD, "classpath")
    if not (os.path.exists(cp_file) and os.path.exists(stamp_file)):
        return None
    with open(stamp_file) as fh:
        if fh.read() != stamp:
            return None
    with open(cp_file) as fh:
        classpath = fh.read()
    if all(os.path.exists(p) for p in classpath.split(os.pathsep)):
        return classpath
    return None


def build():
    """Compile with sbt unless an earlier build is still valid; return the
    classpath."""
    stamp = source_stamp()
    classpath = cached_classpath(stamp)
    if classpath is not None:
        return classpath
    os.makedirs(BUILD, exist_ok=True)
    log = os.path.join(BUILD, "build.log")
    cmd = ["sbt", "--batch", "-Dsbt.log.noformat=true", "compile",
           "export perfbench/Runtime/fullClasspath"]
    with open(log, "w") as out:
        try:
            proc = subprocess.run(cmd, cwd=HERE, stdout=subprocess.PIPE,
                                  stderr=out, text=True,
                                  stdin=subprocess.DEVNULL,
                                  timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail(f"build timed out after {BUILD_TIMEOUT_S} s (log: {log})")
        out.write(proc.stdout)
    lines = [l for l in proc.stdout.splitlines() if l and not l.startswith("[")]
    if proc.returncode != 0 or not lines:
        fail(f"build failed with exit code {proc.returncode} (log: {log})")
    classpath = lines[-1].strip()
    with open(os.path.join(BUILD, "classpath"), "w") as fh:
        fh.write(classpath)
    with open(os.path.join(BUILD, "stamp"), "w") as fh:
        fh.write(stamp)
    return classpath


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    missing = [rel for rel in ("build.sbt", "src/main/scala")
               if not os.path.exists(os.path.join(ROOT, rel))]
    if missing:
        fail(f"repository sources not found: {', '.join(missing)}")

    classpath = build()
    tmp = os.path.join(BUILD, "tmp")
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(os.path.join(tmp, "spark"))
    # Spark binds to the loopback address and keeps its scratch files here.
    env = dict(os.environ, SPARK_LOCAL_IP="127.0.0.1",
               SPARK_LOCAL_DIRS=os.path.join(tmp, "spark"))
    # A fixed heap size keeps heap resizing out of the timed passes; the
    # parallel collector gave steadier pass times than G1. With tiered
    # compilation, some runs still spent ~3 s of CPU recompiling during the
    # timed pass after the warm-up; without it, ~0.3 s.
    cmd = ["java", "-Xms2g", "-Xmx2g", "-XX:+UseParallelGC",
           "-XX:-TieredCompilation",
           f"-Dlog4j2.configurationFile={os.path.join(HERE, 'log4j2.properties')}",
           f"-Djava.io.tmpdir={tmp}",
           f"-Dperfbench.out={os.path.join(HERE, '.out')}",
           "-cp", classpath, "repro.perfbench.Main",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    timeout = args.seconds + RUN_ALLOWANCE_S
    sys.stdout.flush()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"run timed out after {timeout} s")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if proc.returncode != 0:
        fail(f"benchmark exited with code {proc.returncode}")


if __name__ == "__main__":
    main()
