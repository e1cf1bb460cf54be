#!/usr/bin/env python3
"""Builds and runs the TSJ self-join benchmark.

    python3 tsjbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a repository checkout. The first run compiles the
repository's library and the benchmark with sbt (tsjbench/build.sbt) and
stores the classpath under tsjbench/work/; later runs reuse it until a
source or build file changes. Reference results, spans and Spark's scratch
files also go under tsjbench/work/. The last line of standard output is the
benchmark's JSON result.
"""
import hashlib
import os
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / "work"
CLASSPATH = WORK / "classpath.txt"
INPUTS = ["build.sbt", "project", "src/main", "jobs",
          "tsjbench/build.sbt", "tsjbench/project", "tsjbench/src/main"]
SPARK_OPENS = [
    "--add-opens=java.base/java.lang=ALL-UNNAMED",
    "--add-opens=java.base/java.lang.invoke=ALL-UNNAMED",
    "--add-opens=java.base/java.lang.reflect=ALL-UNNAMED",
    "--add-opens=java.base/java.io=ALL-UNNAMED",
    "--add-opens=java.base/java.net=ALL-UNNAMED",
    "--add-opens=java.base/java.nio=ALL-UNNAMED",
    "--add-opens=java.base/java.util=ALL-UNNAMED",
    "--add-opens=java.base/java.util.concurrent=ALL-UNNAMED",
    "--add-opens=java.base/java.util.concurrent.atomic=ALL-UNNAMED",
    "--add-opens=java.base/jdk.internal.ref=ALL-UNNAMED",
    "--add-opens=java.base/sun.nio.ch=ALL-UNNAMED",
    "--add-opens=java.base/sun.nio.cs=ALL-UNNAMED",
    "--add-opens=java.base/sun.security.action=ALL-UNNAMED",
    "--add-opens=java.base/sun.util.calendar=ALL-UNNAMED",
    "-Djdk.reflect.useDirectMethodHandle=false",
    "-Dio.netty.tryReflectionSetAccessible=true",
]


def source_digest():
    h = hashlib.sha256()
    for rel in INPUTS:
        top = ROOT / rel
        files = [top] if top.is_file() else sorted(
            p for p in top.rglob("*") if p.is_file() and "target" not in p.relative_to(ROOT).parts)
        for p in files:
            h.update(str(p.relative_to(ROOT)).encode() + b"\0" + p.read_bytes() + b"\0")
    return h.hexdigest()


def build(env):
    digest = source_digest()
    if CLASSPATH.exists():
        stamp, cp = CLASSPATH.read_text().splitlines()[:2]
        if stamp == digest and all(Path(p).exists() for p in cp.split(os.pathsep)):
            return cp
    out = subprocess.run(
        ["sbt", "--batch", "-Dsbt.log.noformat=true", "compile", "export Runtime/fullClasspath"],
        cwd=BENCH, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True,
        timeout=600)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines or ".jar" not in lines[-1]:
        sys.stderr.write(out.stdout[-4000:])
        sys.exit("tsjbench: build failed")
    CLASSPATH.write_text(digest + "\n" + lines[-1].strip() + "\n")
    return lines[-1].strip()


def main():
    if not (ROOT / "build.sbt").is_file() or not (ROOT / "src" / "main" / "scala").is_dir():
        sys.exit(f"tsjbench: {ROOT} is not a repository checkout (no build.sbt or src/main/scala)")
    (WORK / "tmp").mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env["SBT_OPTS"] = (env.get("SBT_OPTS", "") + f" -Djava.io.tmpdir={WORK / 'tmp'}").strip()
    env["SPARK_LOCAL_DIRS"] = str(WORK / "spark-local")
    cp = build(env)
    cmd = ["java", "-Xmx4g", *SPARK_OPENS,
           f"-Djava.io.tmpdir={WORK / 'tmp'}", f"-Dtsjbench.work={WORK}",
           "-cp", cp, "repro.tsjbench.Bench", *sys.argv[1:]]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL, timeout=170)
    except subprocess.TimeoutExpired:
        sys.exit("tsjbench: run exceeded 170 s")
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
