"""Search space and objective the tune-service workload submits by reference.

The backends import them through ``perfbench.objectives:...`` references, so
the checkout root must be on their ``sys.path`` (``launch.py`` puts it there).
Every reported value is the reporting thread's ``time.monotonic()``: client
and server share the host's monotonic clock, so a client subtracts the value
from an event's arrival time to get that report's end-to-end lag.
"""

from __future__ import annotations

import time

from repro.automl.search_space import SearchSpace, Uniform

SPACE = SearchSpace({"x": Uniform(0.0, 1.0)})

#: tune_fleet: 10 reports, 5 ms apart (a 50 ms trial).
FLEET_REPORTS = 10
FLEET_REPORT_INTERVAL_S = 0.005


def fleet_objective(trial) -> float:
    for _ in range(FLEET_REPORTS):
        time.sleep(FLEET_REPORT_INTERVAL_S)
        trial.report(time.monotonic())
    return float(trial.params["x"])
