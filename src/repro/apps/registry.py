"""Registry of the evaluation applications (Table 1 rows)."""

from __future__ import annotations

from typing import Dict

from repro.apps.base import AppSpec
from repro.apps.bfs import BfsParams, bfs
from repro.apps.fft import PAPER_PARAMS as FFT_PAPER
from repro.apps.fft import FftParams, fft
from repro.apps.hashtab import HashTabParams, hashtab
from repro.apps.lu import PAPER_PARAMS as LU_PAPER
from repro.apps.lu import LuParams, lu
from repro.apps.queue_racy import QueueParams, queue_app
from repro.apps.wsdeque import WsDequeParams, wsdeque
from repro.apps.sor import PAPER_PARAMS as SOR_PAPER
from repro.apps.sor import SorParams, footprint_words as sor_footprint, sor
from repro.apps.tsp import PAPER_PARAMS as TSP_PAPER
from repro.apps.tsp import TspParams, tsp
from repro.apps.water import PAPER_PARAMS as WATER_PAPER
from repro.apps.water import WaterParams, water

APPLICATIONS: Dict[str, AppSpec] = {
    "fft": AppSpec(
        name="fft", func=fft,
        default_params=FftParams(), paper_params=FFT_PAPER,
        input_description="32 x 32 x 2", synchronization="barrier",
        expect_races=False),
    "sor": AppSpec(
        name="sor", func=sor,
        default_params=SorParams(), paper_params=SOR_PAPER,
        input_description="48x64", synchronization="barrier",
        expect_races=False, footprint_words=sor_footprint),
    "tsp": AppSpec(
        name="tsp", func=tsp,
        default_params=TspParams(), paper_params=TSP_PAPER,
        input_description="11 cities", synchronization="lock",
        expect_races=True),
    "water": AppSpec(
        name="water", func=water,
        default_params=WaterParams(), paper_params=WATER_PAPER,
        input_description="48 mols, 3 iters", synchronization="lock, barrier",
        expect_races=True),
}

#: Auxiliary programs (not Table 1 rows).
EXTRAS: Dict[str, AppSpec] = {
    "lu": AppSpec(
        name="lu", func=lu,
        default_params=LuParams(), paper_params=LU_PAPER,
        input_description="24x24", synchronization="barrier",
        expect_races=False),
    "queue_racy": AppSpec(
        name="queue_racy", func=queue_app,
        default_params=QueueParams(), paper_params=QueueParams(),
        input_description="fig. 5 queue", synchronization="none (buggy)",
        expect_races=True),
    # Irregular DSL workloads: compiled kernel-language programs run on
    # the instrument->dsm bridge (repro.apps.dsl).  Defaults are the racy
    # variants; params(with_sync=True) runs the race-free twin.
    "wsdeque": AppSpec(
        name="wsdeque", func=wsdeque,
        default_params=WsDequeParams(), paper_params=WsDequeParams(),
        input_description="8 tasks, 3 steals", synchronization="none (buggy)",
        expect_races=True),
    "bfs": AppSpec(
        name="bfs", func=bfs,
        default_params=BfsParams(), paper_params=BfsParams(),
        input_description="depth-3 tree", synchronization="none (buggy)",
        expect_races=True),
    "hashtab": AppSpec(
        name="hashtab", func=hashtab,
        default_params=HashTabParams(), paper_params=HashTabParams(),
        input_description="4 buckets, 2 rounds",
        synchronization="none (buggy)",
        expect_races=True),
}


def get_app(name: str) -> AppSpec:
    spec = APPLICATIONS.get(name) or EXTRAS.get(name)
    if spec is None:
        raise KeyError(f"unknown application {name!r}; known: "
                       f"{sorted(APPLICATIONS) + sorted(EXTRAS)}")
    return spec
