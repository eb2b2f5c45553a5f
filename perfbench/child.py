"""One fresh interpreter running one workload; started by run.py.

  python3 perfbench/child.py WORKLOAD SEED SIZE MODE SECONDS WORKDIR CPUS

Imports aalpha, builds the workload's inputs, prints "READY <seconds>"
(run.py times start-up to that line as set-up, less the seconds the CPU
pinning took), then by MODE:

  setup    exits.
  measure  runs untraced passes back to back, a closed loop with one caller,
           for about SECONDS.
  trace    alternates an untraced pass with a traced one (the same pass with
           the workload's hooks installed), checks that both give
           bit-identical records, and writes the spans to
           WORKDIR/spans.jsonl.

During set-up and each pass the child keeps itself pinned to the fastest
of CPUS (a comma list; see cpus.py). The last line of standard output is
one JSON object with the passes.
"""

import contextlib
import json
import resource
import sys
import time

from cpus import Repinning


def _passes(seconds, step):
    """Call step() at least once, and again while another call of the same
    length still fits in the time budget."""
    out = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        out.append(step())
        now = time.perf_counter()
        if now - start + (now - t0) > seconds:
            return out


def _timed(wl, cpus, tracer=None):
    with Repinning(cpus) as pin, (tracer.installed(wl.hooks()) if tracer
                                  else contextlib.nullcontext()):
        t0 = time.perf_counter()
        out = wl.run_pass()
        wall = time.perf_counter() - t0 - pin.spent
    if tracer:
        with Repinning(cpus):
            wl.replay(out)
    result = wl.check(out)
    result["wall_s"] = wall
    result["items"] = wl.items
    return result


def main(argv):
    name, seed, size, mode, seconds, workdir, cpus = argv
    seed, seconds = int(seed), float(seconds)
    cpus = [int(c) for c in cpus.split(",")]
    with Repinning(cpus) as pin:
        from workloads import WORKLOADS  # imports aalpha: part of set-up
        tracer = None
        if mode == "trace":
            from spans import Tracer
            tracer = Tracer()
            tracer.pass_id = -1  # set-up spans
        wl = WORKLOADS[name](seed, size, workdir, tracer)
    print(f"READY {pin.spent!r}", flush=True)
    if mode == "setup":
        return 0
    if hasattr(wl, "load_refs"):
        wl.load_refs(f"{workdir}/refs.json")

    result = {}
    if mode == "measure":
        result["passes"] = _passes(seconds, lambda: _timed(wl, cpus))
    else:
        from metrics import layer_values

        def pair():
            plain = _timed(wl, cpus)
            tracer.pass_id += 1
            traced = _timed(wl, cpus, tracer)
            if traced["digest"] != plain["digest"]:
                traced["errors"].append(
                    "traced pass records differ from the untraced pass")
            traced["layers"] = layer_values(
                tracer.totals({-1, tracer.pass_id}))
            return plain, traced

        pairs = _passes(seconds, pair)
        result["passes"] = [p for p, _ in pairs]
        result["traced"] = [t for _, t in pairs]
        result["spans"] = len(tracer.spans)
        tracer.write(f"{workdir}/spans.jsonl")
    for p in result["passes"] + result.get("traced", []):
        del p["digest"]
    import numpy
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result["python"] = sys.version.split()[0]
    result["numpy"] = numpy.__version__
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
