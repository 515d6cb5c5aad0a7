"""One benchmark iteration in a fresh process, so caches start cold and the
peak resident memory is this iteration's own.

    python3 -I perfbench/child.py WORKLOAD CONFIG SEED TRACE [SPANS]

Times the set-up (importing ``qhoch`` and ``qhoch.cli.load_config``) and
then the workload's work, and prints one JSON object.  With TRACE 1 the
per-layer wrappers are installed before ``load_config`` and the spans are
written to SPANS.
"""

from __future__ import annotations

import json
import resource
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def main(argv):
    name, config_path, seed, trace = argv[:4]
    seed, trace = int(seed), trace == "1"
    sys.path[:0] = [str(SRC), str(HERE)]
    import workloads

    t0 = perf_counter()
    import qhoch
    import qhoch.cli
    if not Path(qhoch.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"imported qhoch from {qhoch.__file__}, not {SRC}")
    tracer = None
    if trace:
        import tracer as tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)
    loaded = qhoch.cli.load_config(config_path)
    setup_s = perf_counter() - t0

    # The CLI workloads call qhoch.cli.main, which would load the config
    # again; hand it the Algebra built during set-up so the work excludes it.
    qhoch.cli.load_config = lambda path: loaded
    A, max_degree, _seeds = loaded
    work = workloads.WORK[name]
    if tracer is not None:
        work = tracer.wrap(work, "workload")
    t1 = perf_counter()
    record, attempted, failed, output_bytes = work(A, max_degree,
                                                   config_path, seed)
    wall_s = perf_counter() - t1

    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
        "record": record,
        "attempted": attempted,
        "failed": failed,
    }
    if tracer is not None:
        result["layers"], result["ratio_bases"] = tracer.metrics({
            "resolution.cache.entries": len(A.caches),
            "cli.output_bytes": output_bytes,
        })
        tracer.write_spans(argv[4])
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
