"""Benchmark for aalpha: three workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload {grid,campaign,large} --seed N \\
        --seconds S --trace {0,1}

Run from anywhere; the repository root is this file's parent directory.
Every run of a workload happens in fresh child interpreters (child.py)
with BLAS pinned to one thread, each started on the CPU that is fastest
at that moment (cpus.py):

  * set-up: fresh interpreters each import aalpha and build the workload's
    inputs; setup_s is the median time to their READY line, less the
    time the child spent choosing its CPU;
  * --trace 0: the run has ROUNDS rounds, each of two set-up-only children
    and one measuring child. The measuring children run untraced passes
    back to back for about S seconds in all; wall_s, items_per_s, setup_s,
    peak_rss_mb and ok_frac come from all rounds. Rounds spread the set-up
    samples over the run, as the passes are, so that a few seconds of
    host load do not decide setup_s;
  * --trace 1: one child alternates untraced passes with traced ones (the
    same pass with span-recording wrappers on aalpha's public functions),
    checks they give bit-identical records, and reports the per-layer
    metrics plus the tracing overhead.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; names and units come from BENCHMARK.json.
Work files and spans go under .bench_build/perfbench/ in the root.
"""

import os
import re

# Pin BLAS before numpy loads, here and in every child.
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
os.environ.update(dict.fromkeys(BLAS_VARS, "1"))

import argparse  # noqa: E402
import json  # noqa: E402
import select  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from cpus import allowed, pin_fastest  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEADLINE_S = 170.0  # the whole run, set-up included
ROUNDS = 3  # measuring children per --trace 0 run
SETUP_PER_ROUND = 2  # set-up-only children before each measuring child


READY = re.compile(rb"^READY (\S+)\n", re.M)


class BenchError(Exception):
    pass


def _git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _child_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(args, mode, workdir, deadline, seconds=0.0):
    """Start child.py, return (seconds to READY, parsed last line or None)."""
    cpus = allowed()
    cmd = [sys.executable, str(HERE / "child.py"), args.workload,
           str(args.seed), args.size, mode, str(seconds), str(workdir),
           ",".join(map(str, cpus))]
    pin_fastest(cpus)  # the child inherits the pin
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT,
                            env=_child_env())
    os.sched_setaffinity(0, cpus)
    buf, ready = b"", None
    fd = proc.stdout.fileno()
    try:
        while True:
            left = deadline - time.monotonic()
            if left <= 0 or not select.select([fd], [], [], left)[0]:
                raise BenchError(f"{mode} child exceeded the time limit")
            chunk = os.read(fd, 1 << 16)
            buf += chunk
            m = ready is None and READY.search(buf)
            if m:
                ready = time.perf_counter() - t0 - float(m.group(1))
            if not chunk:
                break
        rc = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if rc != 0 or ready is None:
        raise BenchError(f"{mode} child exited with code {rc}")
    if mode == "setup":
        return ready, None
    return ready, json.loads(buf.decode().splitlines()[-1])


def large_references(workdir):
    """lambda1 of each large-workload graph by numpy.linalg.eigvalsh, built
    from the edge-list files alone (no aalpha code)."""
    import numpy as np
    spec = json.loads((workdir / "refs_input.json").read_text())
    alpha, refs = spec["alpha"], {}
    for label, path in spec["graphs"].items():
        rows = Path(path).read_text().split("\n")
        n = int(rows[0].split()[0])
        edges = np.array([r.split() for r in rows[1:] if r], dtype=int)
        a = np.zeros((n, n))
        a[edges[:, 0], edges[:, 1]] = a[edges[:, 1], edges[:, 0]] = 1.0
        m = (1.0 - alpha) * a + np.diag(alpha * a.sum(axis=1))
        refs[label] = float(np.linalg.eigvalsh(m)[-1])
    (workdir / "refs.json").write_text(json.dumps(refs))


def _median_layers(traced):
    return {k: statistics.median(t["layers"][k] for t in traced)
            for k in traced[0]["layers"]}


def run(args):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    deadline = time.monotonic() + DEADLINE_S
    base = ROOT / ".bench_build" / "perfbench"
    workdir = base / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    workdir.mkdir(parents=True)
    mode = "trace" if args.trace else "measure"
    rounds = 1 if args.trace else ROUNDS
    setups, children, measured = [], [], 0.0
    try:
        for r in range(rounds):
            # Set-up-only children go first, so a cold bytecode cache lands
            # in one. A traced run still starts one: large's references are
            # computed from the files it writes, before any measuring child.
            for _ in range(1 if args.trace else SETUP_PER_ROUND):
                setups.append(run_child(args, "setup", workdir, deadline)[0])
            if r == 0 and args.workload == "large":
                large_references(workdir)
            budget = (args.seconds - measured) / (rounds - r)
            ready, res = run_child(args, mode, workdir, deadline, budget)
            setups.append(ready)
            children.append(res)
            measured += sum(p["wall_s"] for p in res["passes"])
        if args.trace:
            shutil.copy(workdir / "spans.jsonl",
                        base / f"spans-{args.workload}-seed{args.seed}.jsonl")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    peak_rss_mb = max(c["peak_rss_kb"] for c in children) / 1024.0
    untraced = [p for c in children for p in c["passes"]]
    traced = children[-1].get("traced", [])  # --trace 1 has one child
    passes = untraced + traced
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    errors = [e for p in passes for e in p["errors"]]
    walls = [p["wall_s"] for p in untraced]
    if args.trace:
        names = spec["per_layer"]
        values = _median_layers(traced)
        values["trace.overhead_s"] = (
            statistics.median(t["wall_s"] for t in traced) - statistics.median(walls))
    else:
        names = spec["end_to_end"]
        values = {
            "wall_s": statistics.median(walls),
            "items_per_s": statistics.median(
                p["items"] / p["wall_s"] for p in untraced),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": peak_rss_mb,
            # The worst pass, so that one new failure in one pass shows.
            "ok_frac": min(1.0 - p["failed"] / p["attempted"]
                           for p in untraced),
        }
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in names}

    env = {"python": res["python"], "numpy": res["numpy"],
           "nproc": os.cpu_count(), "commit": _git_commit(),
           "workload": args.workload, "seed": args.seed, "trace": args.trace,
           "size": args.size,
           "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
           "passes": len(walls), "traced_passes": len(traced),
           "setup_samples": len(setups), "spans": res.get("spans", 0)}
    print("env " + json.dumps(env))
    print(f"samples: {len(walls)} untraced passes (wall_s, items_per_s are "
          f"medians), {len(setups)} set-ups (setup_s is their median)")
    print("pass wall_s: " + " ".join(f"{w:.4f}" for w in walls))
    print("setup_s samples: " + " ".join(f"{t:.4f}" for t in setups))
    print(f"failed_frac = {failed / attempted:.6g} ({failed} of {attempted})")
    for e in errors[:20]:
        print("CHECK FAILED: " + e)
    for name, m in metrics.items():
        print(f"{name:36s} {m['value']:<24.10g} {m['unit']}")
    print(json.dumps({"correct": not errors, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("grid", "campaign", "large"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny shrinks every input, for the smoke test")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    if not (ROOT / "src" / "aalpha" / "__init__.py").is_file():
        print(f"error: no aalpha sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        run(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
