"""Parallel FastLSA: tiles, wavefront scheduling, the process backend, and models."""

from .tiles import Tile, TileGrid, default_uv, refine_bounds
from .wavefront import PhaseBreakdown, three_phases, wavefront_stage_schedule
from .simmachine import ScheduleReport, list_schedule, simulate_schedule
from .gantt import render_gantt, schedule_gantt
from .model import (
    PhaseModel,
    alpha,
    ideal_speedup,
    pbasecase_time,
    pfillcache_time,
    phase_model,
    wt_bound,
)
from .lifecycle import (
    active_shm_names,
    get_process_pool,
    shutdown_pools,
)
from .pfastlsa import (
    SimulationReport,
    build_base_tiles,
    build_fill_tiles,
    simulated_parallel_fastlsa,
)
from .procpool import ProcessPool
from .shm import SharedArena, arena_spec

__all__ = [
    "Tile",
    "TileGrid",
    "default_uv",
    "refine_bounds",
    "PhaseBreakdown",
    "three_phases",
    "wavefront_stage_schedule",
    "ScheduleReport",
    "list_schedule",
    "simulate_schedule",
    "render_gantt",
    "schedule_gantt",
    "PhaseModel",
    "alpha",
    "ideal_speedup",
    "pbasecase_time",
    "pfillcache_time",
    "phase_model",
    "wt_bound",
    "SimulationReport",
    "build_base_tiles",
    "build_fill_tiles",
    "simulated_parallel_fastlsa",
    "ProcessPool",
    "SharedArena",
    "arena_spec",
    "active_shm_names",
    "get_process_pool",
    "shutdown_pools",
]
