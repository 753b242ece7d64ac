"""Helpers shared by the workloads: paths, statistics, /proc readings,
service processes, failure accounting and the result line."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import select
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = ROOT / "perfbench"
#: Scratch space for one run (databases, event logs, traces, server logs).
#: Listed in the repository's .gitignore and removed when the run ends.
TMP_ROOT = ROOT / ".perfbench-tmp"
CLK_TCK = os.sysconf("SC_CLK_TCK")
NCPU = os.cpu_count() or 1


def require_program() -> None:
    """Put the checkout's ``src`` first on ``sys.path``; exit 2 without it.

    The benchmark measures the program in the checkout it runs from, never
    an installed copy, so a directory holding only the benchmark fails.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: {SRC / 'repro'} is missing; run from the root of a "
              f"checkout of the repository", file=sys.stderr)
        raise SystemExit(2)
    for path in (str(ROOT), str(SRC)):
        if path in sys.path:
            sys.path.remove(path)
        sys.path.insert(0, path)
    import repro
    if Path(repro.__file__).resolve().parent != SRC / "repro":
        print(f"error: imported repro from {repro.__file__}, not {SRC}",
              file=sys.stderr)
        raise SystemExit(2)


def child_env() -> Dict[str, str]:
    """Environment for child processes: this checkout's code, default edge."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(ROOT)])
    env["PYTHONUNBUFFERED"] = "1"
    env.pop("ANTTUNE_EDGE", None)  # measure the CLI's default serving edge
    return env


def make_run_dir(label: str) -> Path:
    TMP_ROOT.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=f"{label}-", dir=TMP_ROOT))


def remove_run_dir(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
    try:
        TMP_ROOT.rmdir()  # only when no other run is using it
    except OSError:
        pass


# --------------------------------------------------------------------- #
# Statistics
# --------------------------------------------------------------------- #
def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile (numpy's default method)."""
    xs = sorted(values)
    if not xs:
        return float("nan")
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else float("nan")


class Metrics:
    """Named values with unit and sample count, printed one per line."""

    def __init__(self) -> None:
        self.values: Dict[str, Dict[str, object]] = {}

    def put(self, name: str, value: float, unit: str, n: int) -> None:
        self.values[name] = {"value": float(value), "unit": unit, "n": int(n)}

    def timing(self, name: str, samples: Sequence[float], unit: str,
               q: float) -> None:
        """A percentile; warns when fewer than ten samples lie beyond it."""
        self.put(name, quantile(samples, q), unit, len(samples))
        if q > 0.5 and len(samples) * (1.0 - q) < 10:
            print(f"warning: {name} has {len(samples)} samples, fewer than "
                  f"ten beyond the percentile")

    def print(self, title: str) -> None:
        print(f"-- {title}")
        for name, entry in self.values.items():
            print(f"{name:<38} {entry['value']:>14.6g} {entry['unit']:<9} "
                  f"n={entry['n']}")

    def result(self, names: Iterable[str]) -> Dict[str, Dict[str, object]]:
        return {name: {"value": self.values[name]["value"],
                       "unit": self.values[name]["unit"]} for name in names}


class Tally:
    """Attempted and failed ops; every failure keeps its cause.

    A failure is *wrong* when the program delivered wrong data (a duplicate
    or reordered event, a wrong trace id, a failed trial, a score out of
    range); otherwise the op did not deliver everything (an error, a
    timeout, a gap in a stream).  ``correct`` means no op was wrong.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: List[Tuple[str, str, bool]] = []

    def attempt(self, count: int = 1) -> None:
        self.attempted += count

    def fail(self, op: str, cause: str, wrong: bool = False) -> None:
        self.failures.append((op, cause, wrong))

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def correct(self) -> bool:
        return not any(wrong for _, _, wrong in self.failures)

    def ok_frac(self) -> float:
        return 1.0 - self.failed / max(1, self.attempted)

    def print(self) -> None:
        print(f"-- ops: attempted={self.attempted} failed={self.failed} "
              f"correct={self.correct}")
        for op, cause, wrong in self.failures:
            print(f"FAILED {op}: {cause}{' [wrong output]' if wrong else ''}")


def check_stream(events: List[object], rid: str, trials: int,
                 reports: int) -> Optional[Tuple[str, bool]]:
    """Why a job's event stream is wrong, as ``(cause, wrong)``, or None.

    ``wrong`` is False when events are only missing (a gap, no terminal
    event) and True when the stream carries wrong data.
    """
    from repro.automl.events import (JobStateChanged, TrialFinished,
                                     TrialReport, TrialStarted)
    seqs = [e.seq for e in events]
    if seqs != sorted(set(seqs)):
        return f"seqs duplicated or out of order: {seqs[:8]}...", True
    if seqs != list(range(len(seqs))):
        missing = sorted(set(range(seqs[-1] + 1)) - set(seqs))
        return (f"gap: {len(missing)} of {seqs[-1] + 1} seqs missing "
                f"(first {missing[:3]})"), False
    terminals = [e for e in events if isinstance(e, JobStateChanged) and e.terminal]
    if not terminals:
        return f"stream ended after {len(events)} events without a terminal event", False
    if len(terminals) > 1 or events[-1] is not terminals[0]:
        return f"{len(terminals)} terminal events, last is {type(events[-1]).__name__}", True
    if terminals[0].state != "completed":
        return f"job ended {terminals[0].state}: {terminals[0].error}", True
    wrong_trace = [e.seq for e in events if e.trace_id != rid]
    if wrong_trace:
        return f"{len(wrong_trace)} events without trace_id {rid!r}", True
    started = {e.trial_id for e in events if isinstance(e, TrialStarted)}
    finished = [e for e in events if isinstance(e, TrialFinished)]
    if len(started) != trials or len(finished) != trials:
        return f"{len(started)} trials started, {len(finished)} finished, want {trials}", True
    bad = [e.trial_id for e in finished if e.state != "completed"]
    if bad:
        return f"trials {bad} not completed", True
    steps: Dict[int, List[int]] = {}
    for e in events:
        if isinstance(e, TrialReport):
            steps.setdefault(e.trial_id, []).append(e.step)
    for trial_id in started:
        if steps.get(trial_id) != list(range(reports)):
            return f"trial {trial_id} reports steps {steps.get(trial_id)}", True
    return None


def emit_result(tally: Tally, metrics: Dict[str, Dict[str, object]]) -> None:
    print(json.dumps({"correct": tally.correct,
                      "attempted": max(1, tally.attempted),
                      "failed": tally.failed, "metrics": metrics}),
          flush=True)


# --------------------------------------------------------------------- #
# Host speed probe
# --------------------------------------------------------------------- #
class Probe:
    """A fixed piece of work owned by the benchmark, timed to read host speed.

    The host's speed drifts by more than half between minutes (other tenants
    share its cores and caches); a CPU-bound duration measured at a slow
    moment says little about the program.  The probe mixes what the
    workloads do — Python objects, small matrix products and a strided
    pass over memory larger than the caches — and is timed in the same run,
    between the measured ops and never concurrently with them.  A CPU-bound
    metric is reported at the reference speed: multiplied by
    ``NOMINAL_MS / median probe time`` (``tune_fleet`` raises that factor to
    its ``SPEED_EXPONENT``).  The probe never changes with the program, so a
    change to the program still moves the metric.
    """

    NOMINAL_MS = 10.0

    def __init__(self) -> None:
        import numpy as np
        rng = np.random.default_rng(0)
        self._np = np
        self._memory = rng.normal(size=8_000_000)
        self._objects = [float(i) for i in range(400_000)]
        self._weights = rng.normal(size=(16, 16))
        self._turn = 0
        self.samples: List[float] = []

    def sample(self) -> float:
        np = self._np
        self._turn = (self._turn + 1) % 16
        start = time.perf_counter()
        total = float(self._memory[self._turn::16].sum())
        for value in self._objects[self._turn::8]:
            total += value
        x = self._weights
        for _ in range(300):
            x = np.tanh(x @ self._weights * 0.05)
        elapsed = (time.perf_counter() - start) * 1e3
        self.samples.append(elapsed)
        return elapsed

    def run_for(self, seconds: float) -> None:
        end = time.monotonic() + seconds
        while time.monotonic() < end:
            self.sample()

    def scale(self, *runs: Tuple[int, int]) -> float:
        """Factor that takes a CPU-bound duration to the reference speed.

        ``runs`` are ``(start, stop)`` index ranges of :attr:`samples`; all
        samples count when none is given.
        """
        samples = ([x for lo, hi in runs for x in self.samples[lo:hi]] if runs
                   else self.samples)
        return self.NOMINAL_MS / quantile(samples, 0.5)


# --------------------------------------------------------------------- #
# Host and process readings
# --------------------------------------------------------------------- #
def cpu_seconds(pid: int) -> float:
    """User+system CPU of one process, from ``/proc/<pid>/stat``."""
    with open(f"/proc/{pid}/stat", "rb") as handle:
        fields = handle.read().rsplit(b")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / CLK_TCK


def peak_rss_mb(pid: int) -> float:
    """``VmHWM`` of one process in MB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def steal_ticks() -> int:
    with open("/proc/stat") as handle:
        fields = handle.readline().split()
    return int(fields[8]) if len(fields) > 8 else 0


def provenance(seed: int, workload: str, seconds: int, trace: bool) -> Dict[str, object]:
    import numpy
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    # A checkout without git history is identified by its source instead.
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {"workload": workload, "seed": seed, "seconds": seconds,
            "trace": trace, "nproc": os.cpu_count(), "cpu": cpu_model,
            "kernel": platform.release(),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "commit": commit,
            "src_sha256": digest.hexdigest()[:16],
            "loadavg_1m": os.getloadavg()[0]}


# --------------------------------------------------------------------- #
# Service processes
# --------------------------------------------------------------------- #
class Service:
    """One ``repro.automl.cli`` process started through ``launch.py``.

    The URL is read from the line the CLI prints once it listens.  ``stop``
    sends SIGINT (the CLI shuts down cleanly and a traced launcher writes its
    spans), then kills after a grace period, and always reaps the process.
    """

    def __init__(self, role: str, cli_args: List[str], run_dir: Path,
                 trace_file: Optional[Path] = None) -> None:
        self.role = role
        cmd = [sys.executable, str(BENCH / "launch.py"), "--role", role]
        if trace_file is not None:
            cmd += ["--trace", str(trace_file)]
        self.log_path = run_dir / f"{role}-{time.monotonic_ns()}.log"
        self._log = open(self.log_path, "wb")
        self.started = time.monotonic()
        self.proc = subprocess.Popen(cmd + ["--"] + cli_args, cwd=ROOT,
                                     env=child_env(), stdout=subprocess.PIPE,
                                     stderr=self._log, stdin=subprocess.DEVNULL)
        self.url = ""

    @property
    def pid(self) -> int:
        return self.proc.pid

    def await_url(self, marker: str, timeout: float = 90.0) -> str:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            ready, _, _ = select.select([self.proc.stdout], [], [],
                                        max(0.0, deadline - time.monotonic()))
            if not ready:
                break
            line = self.proc.stdout.readline().decode("utf-8", "replace")
            if not line:
                raise RuntimeError(f"{self.role} exited early:\n{self.log_tail()}")
            if marker in line:
                self.url = line.split(marker, 1)[1].split()[0]
                return self.url
        raise RuntimeError(f"{self.role} did not report its URL:\n{self.log_tail()}")

    def log_tail(self) -> str:
        try:
            return self.log_path.read_text(errors="replace")[-2000:]
        except OSError:
            return ""

    def stop(self, grace: float = 20.0) -> None:
        if self.proc.poll() is None:
            try:
                self.proc.send_signal(signal.SIGINT)
                self.proc.wait(timeout=grace)
            except subprocess.TimeoutExpired:
                self.proc.kill()
            except ProcessLookupError:
                pass
        self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        self._log.close()


class Services:
    """Every service a run started; ``close`` stops them all, newest first."""

    def __init__(self) -> None:
        self.items: List[Service] = []

    def start(self, *args, **kwargs) -> Service:
        service = Service(*args, **kwargs)
        self.items.append(service)
        return service

    def close(self) -> None:
        while self.items:
            self.items.pop().stop()

    def __enter__(self) -> "Services":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def wait_healthy(url: str, timeout: float = 60.0, backends: int = 0) -> None:
    """Poll a server until it answers (and, for a router, sees its backends)."""
    from repro.automl.remote import AntTuneClient
    client = AntTuneClient(url, timeout=5.0)
    deadline = time.monotonic() + timeout
    last: Optional[Exception] = None
    while time.monotonic() < deadline:
        try:
            client.health()
            if not backends:
                return
            status = client.server_status()
            healthy = [b for b in status.get("backends", []) if b.get("healthy")]
            if len(healthy) >= backends:
                return
        except Exception as exc:  # noqa: BLE001 - not up yet; retry
            last = exc
        time.sleep(0.02)
    raise RuntimeError(f"{url} not healthy after {timeout}s: {last}")


def serve_args(run_dir: Path, name: str) -> List[str]:
    """``cli serve`` with its defaults, a fresh file-backed db and port 0."""
    db_dir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=run_dir))
    return ["--db", str(db_dir / "anttune.db"), "serve", "--port", "0"]


#: Probe time before tune_fleet's window (half after each segment), so the
#: probe samples the host's speed across the whole run.
PROBE_SECONDS = 1.0
#: Segments tune_fleet's window is cut into.
SEGMENTS = 4


def run_segments(seconds: float, probe: Probe, pids: Sequence[int],
                 run_segment) -> List[Dict[str, object]]:
    """Run a service window as ``SEGMENTS`` parts with the probe between them.

    ``run_segment(index, end)`` runs the closed loops until ``end`` and lets
    the ops they started finish.  After each segment the probe runs while
    the servers are idle.  A segment's ``cores`` is the share of the
    machine's core time the hypervisor left to it (one minus the steal read
    from ``/proc/stat``).
    """
    probe.run_for(PROBE_SECONDS)
    segments: List[Dict[str, object]] = []
    for index in range(SEGMENTS):
        steal0, begin = steal_ticks(), time.monotonic()
        cpu0 = [cpu_seconds(pid) for pid in pids]
        run_segment(index, begin + seconds / SEGMENTS)
        end, steal1 = time.monotonic(), steal_ticks()
        cpu = [cpu_seconds(pid) - before for pid, before in zip(pids, cpu0)]
        probe.run_for(PROBE_SECONDS / 2)
        stolen = (steal1 - steal0) / CLK_TCK / (NCPU * (end - begin))
        segments.append({"start": begin, "stop": end, "cpu": cpu,
                         "cores": min(1.0, max(0.0, 1.0 - stolen))})
        print(f"segment {index}: {end - begin:.2f} s, cores "
              f"{segments[-1]['cores']:.3f}")
    return segments


SERVE_MARKER = "serving AntTune on "
ROUTE_MARKER = "routing AntTune on "
