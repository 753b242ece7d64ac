"""The repository's benchmark: one workload, one seed, one measured window.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it measures the program under ``src/``
of that checkout (and exits 2 when there is none).  Workloads:

* ``alt_arrivals`` — long-tail scenarios onboarded by one ALT deployment,
  with batch-1 predictions between arrivals (``alt_arrivals.py``);
* ``tune_fleet`` — two SDK users running tuning jobs through a router in
  front of two tune servers (``tune_fleet.py``).

``BENCHMARK.json`` at the checkout root names the metrics.  With ``--trace
0`` the run prints every end-to-end metric; with ``--trace 1`` it runs the
window twice on the same seed, untraced and then with the layer wrappers of
``tracer.py`` installed, and prints every per-layer metric plus
``trace.overhead_pct`` (the traced run's CPU per item over the untraced
one's).  Layers a workload does not exercise read 0 with 0 samples.  Each
metric line shows its unit and sample count; the last line is the JSON
result.  Every op is checked and each failure is printed with its cause.
"""

from __future__ import annotations

import argparse
import importlib
import json
import signal
import sys
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.common import (  # noqa: E402
    ROOT, Metrics, emit_result, make_run_dir, provenance, remove_run_dir,
    require_program, steal_ticks)

WORKLOADS = ("alt_arrivals", "tune_fleet")


def _catalogue():
    with open(ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def _select(metrics: Metrics, units) -> dict:
    for name, unit in units.items():
        got = metrics.values[name]["unit"]
        if got != unit:
            raise RuntimeError(f"{name} measured in {got}, BENCHMARK.json says {unit}")
    return metrics.result(units)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run still stops every process it started (finally blocks).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    require_program()
    e2e_units, layer_units = _catalogue()
    workload = importlib.import_module(f"perfbench.{args.workload}")
    print("provenance " + json.dumps(provenance(args.seed, args.workload,
                                                args.seconds, bool(args.trace))))
    steal0 = steal_ticks()
    run_dir = make_run_dir(args.workload)
    try:
        if not args.trace:
            tally, e2e, info, _ = workload.run(run_dir, args.seed, args.seconds,
                                               workload.SETUPS, False)
            e2e.print(f"{args.workload} end-to-end (untraced)")
            info.print(f"{args.workload} as measured, under the workload's own names")
            result = _select(e2e, e2e_units)
        else:
            tally, base, _, _ = workload.run(run_dir, args.seed, args.seconds, 1, False)
            traced_tally, e2e, _, layers = workload.run(run_dir, args.seed, args.seconds,
                                                        1, True)
            tally.attempted += traced_tally.attempted
            tally.failures += traced_tally.failures
            untraced = base.values["cpu_ms_per_item"]["value"]
            traced = e2e.values["cpu_ms_per_item"]["value"]
            layers["trace.overhead_pct"] = ((traced / untraced - 1.0) * 100.0, "%", 2)
            per_layer = Metrics()
            for name, unit in layer_units.items():
                value, got_unit, n = layers.get(name, (0.0, unit, 0))
                per_layer.put(name, value, got_unit, n)
            per_layer.print(f"{args.workload} per layer (traced)")
            result = _select(per_layer, layer_units)
        tally.print()
    finally:
        remove_run_dir(run_dir)
    print(f"provenance cpu_steal_ticks={steal_ticks() - steal0}")
    emit_result(tally, result)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:  # noqa: BLE001 - report and exit non-zero, no result
        traceback.print_exc()
        sys.exit(1)
