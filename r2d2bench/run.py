#!/usr/bin/env python3
"""R2D2 benchmark: parquet lake -> column stats -> SGB -> MMP -> CLP -> OPT-RET.

Run from the root of the repository:

    python3 r2d2bench/run.py --workload batch-dense --seed 1 --seconds 10 --trace 0
    python3 r2d2bench/run.py --smoke

The first call compiles the program and the benchmark with sbt (offline, from
the repository's own build) and keeps the classpath under .bench_build/; later
calls start the JVM directly. The last line of standard output is the result
object: {"correct", "attempted", "failed", "metrics"}. The exit code is
non-zero when a correctness gate fails or the program cannot be built.
"""
import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_build")
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 175
SMOKE_TIMEOUT_S = 400

# Module options Spark needs on JDK 17 (what spark-submit would add).
OPENS = [
    f"--add-opens=java.base/{p}=ALL-UNNAMED"
    for p in [
        "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net",
        "java.nio", "java.util", "java.util.concurrent", "java.util.concurrent.atomic",
        "jdk.internal.ref", "sun.nio.ch", "sun.nio.cs", "sun.security.action",
        "sun.util.calendar",
    ]
]
HEAP = "-Xmx3g"


def fail(msg):
    print(f"r2d2bench: {msg}", file=sys.stderr)
    sys.exit(2)


def source_files():
    """Every file whose change requires a rebuild."""
    roots = [
        os.path.join(ROOT, "src", "main"), os.path.join(ROOT, "jobs"),
        os.path.join(HERE, "src"),
    ]
    files = [
        os.path.join(ROOT, "build.sbt"), os.path.join(ROOT, "project", "build.properties"),
        os.path.join(HERE, "build.sbt"), os.path.join(HERE, "project", "build.properties"),
    ]
    for r in roots:
        for d, _, names in os.walk(r):
            files += [os.path.join(d, n) for n in names]
    return sorted(f for f in files if os.path.isfile(f))


def stamp():
    h = hashlib.sha256()
    for f in source_files():
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def run_group(cmd, timeout, **kw):
    """Run cmd in its own process group; kill the whole group on timeout."""
    p = subprocess.Popen(cmd, start_new_session=True, **kw)
    try:
        out, _ = p.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.wait()
        fail(f"{cmd[0]} timed out after {timeout} s")
    except BaseException:
        os.killpg(p.pid, signal.SIGKILL)
        p.wait()
        raise
    return p.returncode, out


def classpath():
    """Build with sbt if the sources changed since the last build."""
    for f in ["build.sbt", os.path.join("src", "main", "scala"), os.path.join("project", "build.properties")]:
        if not os.path.exists(os.path.join(ROOT, f)):
            fail(f"the program's sources are missing ({f}); run from a full checkout")
    os.makedirs(OUT, exist_ok=True)
    cp_file, stamp_file = os.path.join(OUT, "classpath.txt"), os.path.join(OUT, "stamp.txt")
    want = stamp()
    if os.path.isfile(cp_file) and os.path.isfile(stamp_file) and open(stamp_file).read() == want:
        return open(cp_file).read().strip()
    print("r2d2bench: building with sbt ...", file=sys.stderr)
    code, out = run_group(
        ["sbt", "--batch", "-Dsbt.log.noformat=true", "export Runtime/fullClasspath"],
        BUILD_TIMEOUT_S, cwd=HERE, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL,
        text=True,
    )
    lines = [l for l in out.splitlines() if l.strip()]
    if code != 0 or not lines or "[error]" in out:
        sys.stderr.write(out)
        fail("build failed")
    cp = lines[-1].strip()
    with open(cp_file, "w") as fh:
        fh.write(cp)
    with open(stamp_file, "w") as fh:
        fh.write(want)
    return cp


def java(cp, args, timeout, capture=False):
    """Run the benchmark JVM; returns (exit code, stdout if captured)."""
    tmp = os.path.join(OUT, "tmp")
    os.makedirs(tmp, exist_ok=True)
    cmd = ["java", *OPENS, HEAP, f"-Djava.io.tmpdir={tmp}", "-cp", cp, "r2d2bench.Main", *args]
    return run_group(cmd, timeout, cwd=ROOT, stdin=subprocess.DEVNULL,
                     stdout=subprocess.PIPE if capture else None, text=True)


def smoke(cp):
    """Shape check on Profiles.tiny: every metric BENCHMARK.json names is
    printed with its unit, and the ground-truth gate ran. Timings are not
    checked."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    problems = []
    for trace, group in [(0, "end_to_end"), (1, "per_layer")]:
        args = ["--workload", "smoke", "--seed", "1", "--seconds", "1", "--trace", str(trace), "--out", OUT]
        code, out = java(cp, args, SMOKE_TIMEOUT_S, capture=True)
        sys.stdout.write(out)
        lines = out.strip().splitlines()
        if code != 0 or not lines:
            problems.append(f"trace {trace}: exit code {code}")
            continue
        res = json.loads(lines[-1])
        if sorted(res) != ["attempted", "correct", "failed", "metrics"] or not res["correct"] or res["attempted"] < 1:
            problems.append(f"trace {trace}: bad result object {lines[-1][:200]}")
        for m in spec[group]:
            got = res["metrics"].get(m["name"])
            if got is None or got["unit"] != m["unit"] or not isinstance(got["value"], (int, float)):
                problems.append(f"trace {trace}: metric {m['name']} missing or not in {m['unit']}: {got}")
        gates = [json.loads(l[len("gate "):]) for l in lines if l.startswith("gate ")]
        if not gates or "true edges" not in gates[0].get("ground_truth", ""):
            problems.append(f"trace {trace}: ground-truth gate did not run")
    for p in problems:
        print(f"smoke: {p}", file=sys.stderr)
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)", file=sys.stderr)
    return 0 if not problems else 1


def main():
    # Turn SIGTERM into SystemExit, so run_group stops the child process group.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--structure-seed", type=int,
                    help="generate the lake's structure from this seed instead of the workload's own")
    ap.add_argument("--smoke", action="store_true",
                    help="check on Profiles.tiny that every metric is emitted with its unit")
    a = ap.parse_args()
    cp = classpath()
    if a.smoke:
        sys.exit(smoke(cp))
    if a.workload is None or a.seed is None or a.seconds is None:
        ap.error("--workload, --seed and --seconds are required")
    args = ["--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
            "--trace", str(a.trace), "--out", OUT]
    if a.structure_seed is not None:
        args += ["--structure-seed", str(a.structure_seed)]
    sys.exit(java(cp, args, RUN_TIMEOUT_S)[0])


if __name__ == "__main__":
    main()
