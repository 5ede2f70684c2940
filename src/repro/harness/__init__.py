"""Experiment harness: one entry point per paper figure."""

from repro.harness.experiment import ExperimentConfig, run_benchmark
from repro.harness.parallel import aggregate_stats
from repro.harness.report import format_table
from repro.harness.sweep import best, sweep
from repro.harness.checks import (check_all, check_directory,
                                  check_epoch, check_home_metadata,
                                  check_inclusion, check_shadow_values,
                                  check_sharer_lists, check_single_writer)
from repro.harness import figures

__all__ = [
    "ExperimentConfig",
    "run_benchmark",
    "format_table",
    "best",
    "sweep",
    "aggregate_stats",
    "check_all",
    "check_directory",
    "check_epoch",
    "check_home_metadata",
    "check_inclusion",
    "check_shadow_values",
    "check_sharer_lists",
    "check_single_writer",
    "figures",
]
