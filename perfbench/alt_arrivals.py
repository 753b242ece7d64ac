"""alt_arrivals: long-tail scenarios arriving at an ALT deployment.

The parent side (:func:`measure`) starts this file as a worker process
``SETUPS`` times, one after another.  Each worker imports the program, builds
the deployment, initialises it on 8 scenarios and onboards one warm-up
arrival, then prints ``READY``; the time from spawn to ``READY`` is one
``setup_s`` sample.  Each worker is then told ``GO`` and runs its share of
the measured window in one thread: every ``SETUPS``-th of a fixed list of
arrivals, each through ``ALTSystem.add_scenario`` and each followed by a
fixed slice of batch-1 ``ALTSystem.predict`` calls round-robin over the
deployed scenarios (the first call of a slice goes to the new scenario).
Splitting the window over the set-up workers spreads it over the run and
over several processes.  The tune service is not involved.

The deployment is pinned to the benchmark scale of the paper tables
(``benchmarks/common.py``'s ``bench_strategy_config("lstm")`` when this
benchmark was defined: LSTM heavy model of depth 2, NAS light model over
the ten ``BENCH_NAS_CANDIDATES``) and to that file's Dataset A world (seed
7); it is copied here so that a change to the table presets does not
silently change this workload.  The seed draws the arrivals: their data,
base rates and order.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.common import (  # noqa: E402
    BENCH, ROOT, Metrics, Probe, Tally, child_env, cpu_seconds, mean,
    peak_rss_mb, quantile, require_program)

NAS_CANDIDATES = ("std_conv_1", "std_conv_3", "std_conv_5", "std_conv_7",
                  "dil_conv_3", "dil_conv_5", "avg_pool_3", "max_pool_3",
                  "lstm", "self_att")
SEQ_LEN, PROFILE_DIM, VOCAB = 12, 24, 24
WORLD_SEED = 7
N_INITIAL = 8
PREDICTS_PER_ARRIVAL = 40
SETUPS = 3


def arrival_count(seconds: int) -> int:
    """Arrivals in the window: whole cycles through the 18 Table I sizes,
    about ``seconds`` of work on a 2-vCPU host."""
    return 18 * max(1, round(seconds / 5))


# --------------------------------------------------------------------- #
# Worker process
# --------------------------------------------------------------------- #
def _build(seed: int, arrivals: int, part: int, parts: int):
    import numpy as np

    from repro.data.dataset_a import DATASET_A_SIZES, scaled_sizes
    from repro.data.synthetic import (ScenarioCollection, ScenarioSpec,
                                      SyntheticWorld, WorldConfig)
    from repro.meta import DistillationConfig, FineTuneConfig, MetaUpdateConfig
    from repro.models import ModelConfig
    from repro.nas import NASConfig
    from repro.system import (AgnosticInitConfig, ALTSystem, ALTSystemConfig,
                              SpecificBuildConfig)

    world = SyntheticWorld(WorldConfig(profile_dim=PROFILE_DIM, vocab_size=VOCAB,
                                       seq_len=SEQ_LEN), seed=WORLD_SEED)
    sizes = scaled_sizes(DATASET_A_SIZES, scale=4e-4, min_size=200, max_size=500)

    def scenario(scenario_id: int, size: int, rng, shift_seed: int):
        spec = ScenarioSpec(scenario_id=scenario_id, name=f"scenario-{scenario_id}",
                            size=size, base_rate_logit=float(rng.normal(-0.3, 0.3)),
                            shift_seed=shift_seed)
        return world.generate(spec, rng=rng)

    # The head of Table I seeds the agnostic model (the same in every run);
    # arrivals cycle through every Table I size in a seeded order, so most
    # of them are small.
    initial = [scenario(i + 1, size, np.random.default_rng([WORLD_SEED, i + 1]),
                        WORLD_SEED) for i, size in enumerate(sizes[:N_INITIAL])]
    warmup = scenario(99, sizes[-1], np.random.default_rng([WORLD_SEED, 99]), WORLD_SEED)
    rng = np.random.default_rng([seed, 7])
    order: List[int] = []
    while len(order) < arrivals:
        order.extend(int(size) for size in rng.permutation(sizes))
    stream = [scenario(100 + k, order[k], np.random.default_rng([seed, 100 + k]), seed)
              for k in range(part, arrivals, parts)]

    model = ModelConfig(profile_dim=PROFILE_DIM, vocab_size=VOCAB, max_seq_len=SEQ_LEN,
                        embed_dim=8, encoder_type="lstm", num_encoder_layers=2,
                        num_heads=2, ff_dim=16, learning_rate=0.01, batch_size=64,
                        epochs=6)
    config = ALTSystemConfig(
        model=model,
        init=AgnosticInitConfig(strategy="predesigned", final_epochs=3, batch_size=64),
        fine_tune=FineTuneConfig(inner_lr=0.005, epochs=3, batch_size=64),
        meta=MetaUpdateConfig(outer_lr=0.02),
        specific=SpecificBuildConfig(
            nas=NASConfig(num_layers=2, epochs=1, batch_size=64,
                          max_batches_per_epoch=4, candidates=NAS_CANDIDATES),
            distillation=DistillationConfig(epochs=6, batch_size=64,
                                            learning_rate=0.01)))
    system = ALTSystem(config, rng=np.random.default_rng([seed, part]))
    system.initialize(ScenarioCollection(world, initial),
                      initial_ids=[s.scenario_id for s in initial])
    system.add_scenario(warmup)
    return system, warmup, stream


def _batches(scenario, count: int = 20):
    test = scenario.test
    return [test.batch([i]) for i in range(min(count, len(test)))]


def _window(system, warmup, stream, tally: Tally, pause) -> Dict[str, object]:
    import numpy as np

    deployed = [warmup.scenario_id]
    batches = {warmup.scenario_id: _batches(warmup)}
    for scenario in stream:
        batches[scenario.scenario_id] = _batches(scenario)
    cursor = {sid: 0 for sid in batches}
    onboard, first, predict, aucs, flops = [], [], [], [], []
    rr = 0

    def predict_once(sid: int) -> float:
        tally.attempt()
        batch = batches[sid][cursor[sid] % len(batches[sid])]
        cursor[sid] += 1
        start = time.perf_counter()
        try:
            scores = system.predict(sid, batch)
        except Exception as exc:  # noqa: BLE001 - counted, with its cause
            tally.fail(f"predict scenario {sid}", repr(exc))
            return time.perf_counter()
        end = time.perf_counter()
        predict.append((end - start) * 1e3)
        scores = np.asarray(scores)
        if scores.shape != (1,) or not (0.0 <= float(scores[0]) <= 1.0):
            tally.fail(f"predict scenario {sid}", f"bad scores {scores!r}", True)
        return end

    pid = os.getpid()
    cpu0, t0, busy = cpu_seconds(pid), time.monotonic(), 0.0
    for scenario in stream:
        sid = scenario.scenario_id
        tally.attempt()
        start = time.perf_counter()
        try:
            artifacts = system.add_scenario(scenario)
        except Exception as exc:  # noqa: BLE001 - counted, with its cause
            tally.fail(f"arrival {sid}", repr(exc))
            continue
        onboard.append((time.perf_counter() - start) * 1e3)
        auc = artifacts.light_auc
        if not system.server.is_deployed(sid):
            tally.fail(f"arrival {sid}", "light model not deployed", True)
        elif auc is None or not (0.0 <= auc <= 1.0) or math.isnan(auc):
            tally.fail(f"arrival {sid}", f"light model AUC {auc!r} on its test split", True)
        else:
            aucs.append(auc)
            flops.append(artifacts.light_flops)
        deployed.append(sid)
        first.append((predict_once(sid) - start) * 1e3)
        for _ in range(PREDICTS_PER_ARRIVAL - 1):
            predict_once(deployed[rr % len(deployed)])
            rr += 1
        busy += time.perf_counter() - start
        pause()  # the parent times the host-speed probe while this waits
    t1 = time.monotonic()
    cpu = cpu_seconds(pid) - cpu0
    return {"onboard_ms": onboard, "first_ms": first, "predict_ms": predict,
            "aucs": aucs, "light_flops": flops, "window": [[t0, t1]],
            "elapsed": busy, "cpu": cpu, "arrivals": len(stream),
            "rss_mb": peak_rss_mb(pid)}


def worker_main(argv: List[str]) -> int:
    import argparse
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--arrivals", type=int, required=True)
    parser.add_argument("--part", type=int, required=True)
    parser.add_argument("--parts", type=int, required=True)
    parser.add_argument("--trace", default=None)
    args = parser.parse_args(argv)
    require_program()
    tracer = None
    if args.trace:
        from perfbench.tracer import Tracer, install
        tracer = Tracer()
        install("alt", tracer)
    system, warmup, stream = _build(args.seed, args.arrivals, args.part, args.parts)
    print("READY", flush=True)
    if sys.stdin.readline().strip() != "GO":
        return 0

    def pause() -> None:
        print("PROBE", flush=True)
        sys.stdin.readline()

    tally = Tally()
    window = _window(system, warmup, stream, tally, pause)
    window.update(attempted=tally.attempted, failures=tally.failures)
    if tracer is not None:
        tracer.dump(args.trace)
    print("RESULT " + json.dumps(window), flush=True)
    return 0


# --------------------------------------------------------------------- #
# Parent side
# --------------------------------------------------------------------- #
def _worker_env() -> Dict[str, str]:
    env = child_env()
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"  # the workload is one process, one thread
    return env


def _read_marker(proc, marker: str) -> str:
    for line in proc.stdout:
        if line.startswith(marker):
            return line[len(marker):].strip()
    raise RuntimeError(f"alt worker exited (code {proc.wait()}) before {marker!r}")


def _worker(seed: int, arrivals: int, part: int, parts: int, trace: Optional[Path],
            probe: Probe) -> Tuple[float, Dict[str, object]]:
    """One worker: (its set-up seconds, its share of the window).

    The worker pauses after each arrival's slice of predictions while this
    process samples the host-speed probe.
    """
    cmd = [sys.executable, str(BENCH / "alt_arrivals.py"), "--seed", str(seed),
           "--arrivals", str(arrivals), "--part", str(part), "--parts", str(parts)]
    if trace is not None:
        cmd += ["--trace", str(trace)]
    start = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_worker_env(), stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, text=True)
    try:
        _read_marker(proc, "READY")
        setup = time.monotonic() - start
        while True:
            proc.stdin.write("GO\n")
            proc.stdin.flush()
            line = proc.stdout.readline()
            if line.startswith("PROBE"):
                probe.sample()
            elif line.startswith("RESULT "):
                share = json.loads(line[len("RESULT "):])
                break
            elif not line:
                raise RuntimeError(f"alt worker exited (code {proc.wait()}) mid-window")
        proc.wait(timeout=60)
        return setup, share
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdin.close()
        proc.stdout.close()


def measure(seed: int, seconds: int, setups: int, trace: Optional[Path],
            probe: Probe):
    """``setups`` workers, each a set-up and a share of the window.

    Returns the set-up samples and the window with the shares merged; each
    share's timings also appear taken to reference speed by the probe
    samples taken during it (keys ending ``_ref``).
    """
    arrivals = arrival_count(seconds)
    setup_samples: List[float] = []
    window: Dict[str, object] = {}
    for part in range(setups):
        mark = len(probe.samples)
        setup, share = _worker(seed, arrivals, part, setups, trace, probe)
        setup_samples.append(setup)
        scale = probe.scale((mark, len(probe.samples)))
        for key in ("onboard_ms", "first_ms", "predict_ms"):
            share[key + "_ref"] = [x * scale for x in share[key]]
        for key in ("elapsed", "cpu"):
            share[key + "_ref"] = share[key] * scale
        for key, value in share.items():
            if isinstance(value, list):
                window.setdefault(key, []).extend(value)
            elif key == "rss_mb":
                window[key] = max(window.get(key, 0.0), value)
            else:
                window[key] = window.get(key, 0) + value
    return setup_samples, window


def e2e_metrics(setup_samples: List[float], window: Dict[str, object],
                tally: Tally, scale: float) -> Metrics:
    """Every metric here but RSS and ops is CPU-bound: taken to reference speed."""
    m = Metrics()
    arrivals = max(1, len(window["onboard_ms"]))
    m.put("setup_s", quantile(setup_samples, 0.5) * scale, "s", len(setup_samples))
    m.timing("job_ms.p50", window["onboard_ms_ref"], "ms", 0.5)
    m.timing("first_ms.p50", window["first_ms_ref"], "ms", 0.5)
    m.put("serve_ms.mean", mean(window["predict_ms_ref"]), "ms", len(window["predict_ms"]))
    m.timing("serve_ms.p90", window["predict_ms_ref"], "ms", 0.9)
    m.put("items_per_s", arrivals / window["elapsed_ref"], "1/s", arrivals)
    m.put("cpu_ms_per_item", window["cpu_ref"] * 1e3 / arrivals, "ms", arrivals)
    m.put("peak_rss_mb", window["rss_mb"], "MB", 1)
    m.put("ops_ok_frac", tally.ok_frac(), "fraction", tally.attempted)
    return m


def info_metrics(window: Dict[str, object], probe: Probe) -> Metrics:
    """The workload's own names, as measured (not taken to reference speed)."""
    m = Metrics()
    m.put("onboard_s", mean(window["onboard_ms"]) / 1e3, "s", len(window["onboard_ms"]))
    m.timing("predict_ms.p50", window["predict_ms"], "ms", 0.5)
    m.timing("predict_ms.p90", window["predict_ms"], "ms", 0.9)
    m.timing("predict_ms.p99", window["predict_ms"], "ms", 0.99)
    m.put("light_auc", mean(window["aucs"]), "AUC", len(window["aucs"]))
    m.put("window_s", window["elapsed"], "s", window["arrivals"])
    m.put("probe_ms", quantile(probe.samples, 0.5), "ms", len(probe.samples))
    return m


def run(run_dir: Path, seed: int, seconds: int, setups: int, traced: bool):
    """One measured window: (tally, end-to-end, as-measured, per-layer)."""
    trace = run_dir / "trace-alt.json" if traced else None
    probe = Probe()
    setup_samples, window = measure(seed, seconds, setups, trace, probe)
    tally = Tally()
    tally.attempted = window["attempted"]
    tally.failures = [tuple(f) for f in window["failures"]]
    return (tally, e2e_metrics(setup_samples, window, tally, probe.scale()),
            info_metrics(window, probe), per_layer(trace, window) if traced else None)


def per_layer(trace_file: Path, window: Dict[str, object]) -> Dict[str, tuple]:
    """Per-layer numbers from the worker's spans: name -> (value, unit, n)."""
    from perfbench.tracer import NN_CLASSES, Trace
    trace = Trace.load(trace_file, window["window"])
    arrivals = max(1, len(window["onboard_ms"]))
    out: Dict[str, tuple] = {}

    def per_arrival(name: str, values: List[float]) -> None:
        out[name] = (sum(values) * 1e3 / arrivals, "ms", len(values))

    per_arrival("meta.adapt_ms", trace.durations("meta.adapt"))
    per_arrival("meta.feedback_ms", trace.durations("meta.feedback"))
    per_arrival("meta.distill_ms", trace.durations("meta.distill"))
    per_arrival("nas.search_ms", trace.durations("nas.search"))
    per_arrival("training.evaluate_auc_ms", trace.durations("training.evaluate_auc"))
    flops = window["light_flops"]
    out["nas.light_kflops"] = (mean(flops) / 1e3 if flops else 0.0, "kflop", len(flops))
    for cls_name in NN_CLASSES:
        per_arrival(f"nn.forward_ms.{cls_name}", trace.self_times(f"nn.forward.{cls_name}"))
    per_arrival("nn.backward_ms", trace.durations("nn.backward"))
    per_arrival("nn.optim_step_ms", trace.durations("nn.optim_step"))
    adds = [s[6] for s in trace.named("system.add_scenario")]
    predicts = [s[6] for s in trace.named("system.alt_predict")]
    out["nn.tensors_per_arrival"] = (mean(adds) if adds else 0.0, "count", len(adds))
    out["nn.tensors_per_predict"] = (mean(predicts) if predicts else 0.0, "count",
                                     len(predicts))
    serve = {s[0]: s for s in trace.named("system.serve")}
    forward = [s for s in trace.named("models.predict_proba") if s[4] in serve]
    out["models.predict_proba_us.p50"] = (
        quantile([(s[3] - s[2]) * 1e6 for s in forward], 0.5) if forward else 0.0,
        "us", len(forward))
    overhead = [trace.self_time(s) * 1e6 for s in serve.values()]
    out["system.serve_overhead_us.p50"] = (
        quantile(overhead, 0.5) if overhead else 0.0, "us", len(overhead))
    return out


if __name__ == "__main__":
    sys.exit(worker_main(sys.argv[1:]))
