"""What the benchmark measures, read from ``BENCHMARK.json``.

``BENCHMARK.json`` is the single source of the workload names, the
metric names, units and bounds, and the default run length.  Which
layer each per-layer metric observes, and which end-to-end metric it
should move on which workload, is documented in README.md.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Optional, Tuple

SPEC = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text(
        encoding="utf-8"
    )
)


@dataclasses.dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    #: End-to-end metrics only: the share by which it may get worse.
    bound: Optional[float] = None


RUN_SECONDS: int = SPEC["run_seconds"]
WORKLOADS: Tuple[str, ...] = tuple(w["name"] for w in SPEC["workloads"])
END_TO_END: Tuple[Metric, ...] = tuple(Metric(**m) for m in SPEC["end_to_end"])
PER_LAYER: Tuple[Metric, ...] = tuple(Metric(**m) for m in SPEC["per_layer"])
