#!/usr/bin/env python3
"""Benchmark of the Spark DBSCAN reproduction.

Builds the repository's main code and the benchmark from source with sbt,
then runs one workload in a fresh JVM with Spark local[nproc]:

    python3 perfbench/run.py --workload uniform-3d --seed 1 --seconds 7 --trace 0

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics. --trace 0 reports the end-to-end metrics, --trace 1 the
per-layer metrics of a traced replay. Other modes:

    python3 perfbench/run.py --smoke          # tiny n, all workloads, gate check
    python3 perfbench/run.py --make-digests   # compute missing reference digests

Run from the root of the repository. Build output and run state go to
.bench_build/ (CARGO_TARGET_DIR, if set) and the sbt target/ directories.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DIGESTS = os.path.join(HERE, "digests.tsv")

HEAP = "2g"  # pre-touched at start, so page faults do not land in timed calls
WARMUPS = 4       # calls before timing; the first is driver.first_call_s
PREPS = 3         # input generations per run; setup_s takes their median
RUN_TIMEOUT_S = 170
SMOKE_N = 4000

# Inputs of the build: a change to any of them triggers a rebuild.
BUILD_INPUTS = ["build.sbt", "project/build.properties", "src/main", "jobs",
                "perfbench/build.sbt", "perfbench/project/build.properties",
                "perfbench/src"]

# Module opens that spark-submit passes on JDK 17 (Kryo and Unsafe access).
JVM_OPENS = [f"--add-opens=java.base/{p}=ALL-UNNAMED" for p in (
    "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net",
    "java.nio", "java.util", "java.util.concurrent", "java.util.concurrent.atomic",
    "sun.nio.ch", "sun.nio.cs", "sun.security.action", "sun.util.calendar")]


def fail(msg, code=2):
    print(f"[perfbench] {msg}", file=sys.stderr)
    sys.exit(code)


def state_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    path = os.path.join(base, "perfbench")
    os.makedirs(os.path.join(path, "tmp"), exist_ok=True)
    return path


def build_stamp():
    h = hashlib.sha256()
    for rel in BUILD_INPUTS:
        top = os.path.join(ROOT, rel)
        files = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(top) for f in fs)
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def build(state, stamp):
    """Compiles with sbt once per source state; returns the runtime classpath."""
    cp_file = os.path.join(state, "classpath.txt")
    if os.path.exists(cp_file):
        with open(cp_file) as fh:
            lines = fh.read().splitlines()
        if len(lines) == 2 and lines[0] == stamp:
            return lines[1]
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    repos = os.path.expanduser("~/.sbt/repositories")
    if "SBT_OPTS" not in env and os.path.exists(repos):
        env["SBT_OPTS"] = ("-Dsbt.override.build.repos=true -Dsbt.offline=true "
                           f"-Dsbt.repository.config={repos}")
    print("[perfbench] building with sbt ...", file=sys.stderr)
    proc = subprocess.run(
        ["sbt", "--batch", "-Dsbt.log.noformat=true", "export perfbench/Runtime/fullClasspath"],
        cwd=HERE, env=env, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
        stdin=subprocess.DEVNULL)
    lines = proc.stdout.splitlines()
    cps = [l for l in lines if os.pathsep in l and not l.startswith("[")]
    sys.stderr.write("".join(l + "\n" for l in lines if l not in cps))
    if proc.returncode != 0 or not cps:
        fail(f"sbt build failed (exit {proc.returncode})", 1)
    with open(cp_file, "w") as fh:
        fh.write(stamp + "\n" + cps[-1] + "\n")
    return cps[-1]


def java(state, stamp, classpath, args, capture=False, timeout=RUN_TIMEOUT_S):
    java_home = os.environ.get("JAVA_HOME")
    exe = os.path.join(java_home, "bin", "java") if java_home else "java"
    cmd = [exe, f"-Xms{HEAP}", f"-Xmx{HEAP}", "-XX:+AlwaysPreTouch",
           f"-Djava.io.tmpdir={os.path.join(state, 'tmp')}", *JVM_OPENS,
           "-cp", classpath, "repro.perfbench.Main",
           "--cores", str(len(os.sched_getaffinity(0))), "--state", state,
           "--digests", DIGESTS, "--build", stamp[:16], *args]
    # Spark prefers SPARK_LOCAL_DIRS over spark.local.dir; keep both in the checkout.
    env = dict(os.environ, SPARK_LOCAL_DIRS=os.path.join(state, "spark-local"))
    try:
        return subprocess.run(cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL, text=True,
                              stdout=subprocess.PIPE if capture else None,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {timeout} s", 1)


def smoke(state, stamp, classpath):
    """Every metric of BENCHMARK.json is emitted, with its unit, on every
    workload; the gate accepts the reference and rejects corrupted results."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    proc = java(state, stamp, classpath, ["--mode", "smoke", "--n", str(SMOKE_N), "--seconds", "0.5"],
                capture=True)
    ok = proc.returncode == 0
    seen = set()
    for line in proc.stdout.splitlines():
        print(line)
        if line.startswith("SMOKE "):
            rec = json.loads(line[len("SMOKE "):])
            got = {k: v["unit"] for k, v in rec["result"]["metrics"].items()}
            if got != want[rec["trace"]]:
                ok = False
                print(f"[smoke] {rec['workload']} trace {rec['trace']}: missing "
                      f"{sorted(set(want[rec['trace']].items()) - set(got.items()))}, extra "
                      f"{sorted(set(got.items()) - set(want[rec['trace']].items()))}")
            seen.add((rec["workload"], rec["trace"]))
        elif line.startswith("SMOKE-GATE "):
            gate = json.loads(line[len("SMOKE-GATE "):])
            ok = ok and all(gate.values())
            seen.add(("gate", 0))
    names = [w["name"] for w in spec["workloads"]]
    missing = [(w, t) for w in names for t in (0, 1) if (w, t) not in seen]
    if missing or ("gate", 0) not in seen:
        ok = False
        print(f"[smoke] no output for {missing or 'the gate check'}")
    print(f"[smoke] {'ok' if ok else 'FAILED'}")
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--holdout", action="store_true",
                   help="cluster the held-out generator seed instead of the pool")
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--make-digests", action="store_true")
    a = p.parse_args()
    if not (a.smoke or a.make_digests or a.workload):
        p.error("--workload is required")
    for rel in ("build.sbt", "src/main/scala"):
        if not os.path.exists(os.path.join(ROOT, rel)):
            fail(f"{rel} not found: run from a checkout of the repository")

    state = state_dir()
    stamp = build_stamp()
    classpath = build(state, stamp)
    if a.smoke:
        sys.exit(smoke(state, stamp, classpath))
    if a.make_digests:
        sys.exit(java(state, stamp, classpath, ["--mode", "digests"],
                      timeout=None).returncode)
    sys.exit(java(state, stamp, classpath, [
        "--mode", "run", "--workload", a.workload, "--seed", str(a.seed),
        "--seconds", str(a.seconds), "--trace", str(a.trace),
        "--holdout", "1" if a.holdout else "0",
        "--warmups", str(WARMUPS), "--preps", str(PREPS)]).returncode)


if __name__ == "__main__":
    main()
