"""Benchmark for qhoch.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                             [--trace 0|1]

Runs one workload (or all four, one after another) as a closed loop: one
caller starts one fresh child process at a time (``child.py``), each doing
one cold iteration, until ``--seconds`` have passed.  Every iteration's
output is checked against the golden reference in ``golden/``.

With ``--trace 0`` it reports the end-to-end metrics (medians over the
iterations): ``wall_s`` (the work, set-up excluded), ``setup_s`` (importing
qhoch and ``qhoch.cli.load_config``) and ``peak_rss_mb``.  With ``--trace 1``
it alternates untraced and traced iterations and reports the per-layer
metrics of ``tracer.py``, including ``trace.overhead_share``.  The last line
of output is one JSON object; checks failed over checks attempted is the
failed share.  The exit code is 0 when every check passed, 1 when one
failed, and 2 when the program is not there to run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

WORKLOADS = tuple(workloads.WORK)
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
CHILD_TIMEOUT_S = 150


def run_child(name, config_path, seed, trace):
    """One iteration in a fresh process; returns its result dict, or None
    (with the reason on stderr) if it did not produce one."""
    cmd = [sys.executable, "-I", str(HERE / "child.py"), name,
           str(config_path), str(seed), "1" if trace else "0"]
    if trace:
        cmd.append(str(OUT / f"{name}.spans.json"))
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"{name}: iteration exceeded {CHILD_TIMEOUT_S} s",
              file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"{name}: iteration exited {proc.returncode}\n{proc.stderr}",
              file=sys.stderr)
        return None
    return json.loads(proc.stdout.splitlines()[-1])


def run_workload(name, seed, seconds, trace, degree=None):
    """Iterate one workload for ``seconds``.  Returns checks attempted and
    failed, the per-iteration values of each metric, and (traced) the base
    of each ratio."""
    OUT.mkdir(exist_ok=True)
    config = workloads.run_config(name, seed, degree)
    config_path = OUT / f"{name}.config.json"
    config_path.write_text(json.dumps(config, indent=2))
    plain, traced = [], []
    attempted = failed = 0
    start = perf_counter()
    while True:
        tracing = trace and len(traced) < len(plain)
        result = run_child(name, config_path, seed, tracing)
        attempted += 1
        if result is None:
            failed += 1
            break
        failed += workloads.golden_failures(name, config["max_degree"],
                                            result["record"])
        attempted += result["attempted"]
        failed += result["failed"]
        (traced if tracing else plain).append(result)
        if perf_counter() - start >= seconds and (traced or not trace):
            break
    samples, bases = {}, {}
    if trace and traced:
        samples = {key: [r["layers"][key] for r in traced]
                   for key in traced[0]["layers"]}
        samples["trace.overhead_share"] = [
            statistics.median(r["wall_s"] for r in traced)
            / statistics.median(r["wall_s"] for r in plain) - 1]
        bases = traced[0]["ratio_bases"]
    elif plain and not trace:
        samples = {key: [r[key] for r in plain] for key in END_TO_END}
    return attempted, failed, samples, bases


def describe(values, unit):
    """Median, and the highest percentile with ten values beyond it when
    there are enough values for one above the median."""
    text = f"median {statistics.median(values):.6g} {unit}"
    n = len(values)
    if n > 20:
        text += f"  p{100 * (n - 10) // n} {sorted(values)[n - 11]:.6g} {unit}"
    return text + f"  (n={n})"


def report(prefix, name, seed, seconds, trace, degree=None):
    """Run and print one workload; returns (attempted, failed, metrics)."""
    attempted, failed, samples, bases = run_workload(name, seed, seconds,
                                                     trace, degree)
    units = tracer.metric_units() if trace else END_TO_END
    # A per-layer value is one traced iteration's, so counts stay whole.
    median = statistics.median_low if trace else statistics.median
    metrics = {}
    for key, unit in units.items():
        if key not in samples:
            continue
        metrics[prefix + key] = {"value": median(samples[key]), "unit": unit}
        base = f"  of {bases[key]}" if key in bases else ""
        print(f"{name}  {key}  {describe(samples[key], unit)}{base}")
    print(f"{name}  failed_share  {failed / attempted:.6g} ratio  "
          f"({failed} of {attempted} checks)")
    return attempted, failed, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",),
                        default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "qhoch" / "__init__.py").is_file():
        print(f"no qhoch sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    metrics = {}
    for name in names:
        prefix = f"{name}." if args.workload == "all" else ""
        a, f, m = report(prefix, name, args.seed, args.seconds,
                         bool(args.trace))
        attempted, failed = attempted + a, failed + f
        metrics.update(m)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
