"""Workloads: canonical figure scenarios and synthetic generators.

The scenario builders are shared by the integration tests, the examples and
the benchmark harness so that "Figure 4" means exactly one thing everywhere
in the repository.
"""

from repro.workloads.scenarios import (
    ScenarioResult,
    fig1_programs,
    fig6_programs,
    fig7_programs,
    run_fig2_no_streaming,
    run_fig3_streaming,
    run_fig4_time_fault,
    run_fig5_value_fault,
    run_fig6_two_threads,
    run_fig7_cycle,
    run_update_write,
)
from repro.workloads.generators import (
    chain_workload,
    run_chain_optimistic,
    run_chain_sequential,
    unreliable_server,
)
from repro.workloads.pipelines import (
    PipelineSpec,
    build_pipeline,
    run_pipeline_optimistic,
    run_pipeline_sequential,
)

__all__ = [
    "ScenarioResult",
    "fig1_programs",
    "fig6_programs",
    "fig7_programs",
    "run_update_write",
    "run_fig2_no_streaming",
    "run_fig3_streaming",
    "run_fig4_time_fault",
    "run_fig5_value_fault",
    "run_fig6_two_threads",
    "run_fig7_cycle",
    "chain_workload",
    "run_chain_sequential",
    "run_chain_optimistic",
    "unreliable_server",
    "PipelineSpec",
    "build_pipeline",
    "run_pipeline_sequential",
    "run_pipeline_optimistic",
]
