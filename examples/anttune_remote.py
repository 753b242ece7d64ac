"""Remote AntTune example: HTTP server, SDK client, streamed events.

The tune service becomes a network product here: a
:class:`~repro.automl.remote.http_server.RemoteTuneServer` serves the
in-process :class:`~repro.automl.server.AntTuneServer` over HTTP/JSON on a
loopback port, and an :class:`~repro.automl.remote.client.AntTuneClient`
submits two jobs against it — a bulk sweep and a high-priority ``preempt``
job — then follows the urgent job's NDJSON event stream live.

Because only *references* cross the wire (never code), the search space and
objective below are addressed as ``__main__:SPACE`` / ``__main__:objective``;
with a standalone server you would point them at an importable module, e.g.
``mypkg.search:SPACE``.

Run with ``python examples/anttune_remote.py`` (add ``--port 8123`` to keep
the server on a fixed port, ``--token secret`` to require bearer auth).
"""

from __future__ import annotations

import argparse
import time

from repro.automl.events import JobStateChanged, TrialFinished, TrialReport
from repro.automl.remote import AntTuneClient, RemoteTuneServer
from repro.automl.search_space import SearchSpace, Uniform

SPACE = SearchSpace({"x": Uniform(0.0, 1.0)})


def objective(trial):
    """A toy objective streaming three intermediate values per trial."""
    for step in range(3):
        trial.report(trial.params["x"] * (step + 1))
        time.sleep(0.01)
    return 1.0 - abs(trial.params["x"] - 0.7)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--port", type=int, default=0,
                        help="HTTP port (default: pick a free one)")
    parser.add_argument("--token", default=None,
                        help="require bearer auth with this token")
    args = parser.parse_args()

    with RemoteTuneServer(port=args.port, token=args.token, num_workers=2,
                          max_concurrent_jobs=2, backend="thread") as remote:
        print(f"tune server listening on {remote.url}\n")
        client = AntTuneClient(remote.url, token=args.token)

        bulk = client.submit("__main__:SPACE", "__main__:objective",
                             config={"n_trials": 8}, study_name="bulk-sweep")
        urgent = client.submit("__main__:SPACE", "__main__:objective",
                               config={"n_trials": 4}, priority=4.0,
                               preempt=True, study_name="urgent")
        print(f"submitted bulk job {bulk} and urgent preempting job {urgent};"
              f" streaming the urgent job's events:\n")

        for event in client.subscribe(urgent):
            if isinstance(event, TrialReport):
                print(f"  [seq {event.seq:3d}] trial {event.trial_id} "
                      f"step {event.step}: {event.value:.3f}")
            elif isinstance(event, TrialFinished):
                value = "-" if event.value is None else f"{event.value:.3f}"
                print(f"  [seq {event.seq:3d}] trial {event.trial_id} "
                      f"finished {event.state} (value {value})")
            elif isinstance(event, JobStateChanged):
                print(f"  [seq {event.seq:3d}] job {event.state}"
                      + (" (terminal)" if event.terminal else ""))

        for job_id, label in ((urgent, "urgent"), (bulk, "bulk")):
            best = client.wait(job_id, timeout=60.0)
            print(f"\n{label} job {job_id}: best x = {best.params['x']:.3f}, "
                  f"value = {best.value:.3f}")

        status = client.server_status()
        dropped = {name: sum(sample["value"]
                             for sample in status["metrics"][name]["samples"])
                   for name in ("anttune_transport_dropped_total",
                                "anttune_event_queue_dropped_total")}
        print(f"\nserver status: {status['num_jobs']} jobs "
              f"{status['job_states']}, drops {dropped}")


if __name__ == "__main__":
    main()
