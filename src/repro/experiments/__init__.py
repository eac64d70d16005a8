"""Experiment harness: one module per paper figure, plus ablations.

Each ``figNN.run(dataset)`` reproduces one figure's analysis from the
shared, cached campaign dataset and returns a typed result with a
``rows()`` paper-vs-measured table.  Importing this package registers
every experiment with :mod:`~repro.experiments.registry`, which is how
the CLI, the viz layer and the multi-seed
:mod:`~repro.experiments.campaign` runner discover them.
"""

from . import (
    ablations,
    cc_study,
    ext_roleprior,
    ext_sampling,
    fig02,
    fig03,
    fig04,
    fig05,
    fig06,
    fig07,
    fig08,
    fig09,
    fig10,
    fig11,
    fig12,
    fig13,
    fig14,
    table_s2,
    tomography_study,
    topo_study,
)
from . import scheduler
from .cache import (
    DatasetDiskCache,
    config_fingerprint,
    dataset_content_hash,
)
from .campaign import (
    CampaignResult,
    SeedRun,
    campaign_manifest,
    render_campaign_report,
    run_campaign,
)
from .scheduler import (
    DEFAULT_LEASE_TTL,
    campaign_queue_id,
    queue_status,
)
from .common import (
    DAY_LENGTH,
    NUM_DAYS,
    ExperimentDataset,
    build_dataset,
    clear_dataset_cache,
    dataset_cache_stats,
    dataset_from_trace,
    set_dataset_cache_limit,
    small_config,
    standard_config,
)
from .registry import (
    ExperimentSpec,
    experiment,
    experiment_names,
    experiment_specs,
    get_experiment,
)
from .reporting import Row, format_table

__all__ = [
    "ExperimentDataset",
    "build_dataset",
    "dataset_from_trace",
    "clear_dataset_cache",
    "set_dataset_cache_limit",
    "dataset_cache_stats",
    "standard_config",
    "small_config",
    "DAY_LENGTH",
    "NUM_DAYS",
    "Row",
    "format_table",
    "ExperimentSpec",
    "experiment",
    "get_experiment",
    "experiment_names",
    "experiment_specs",
    "DatasetDiskCache",
    "config_fingerprint",
    "dataset_content_hash",
    "CampaignResult",
    "SeedRun",
    "run_campaign",
    "campaign_manifest",
    "render_campaign_report",
    "scheduler",
    "DEFAULT_LEASE_TTL",
    "campaign_queue_id",
    "queue_status",
    "fig02",
    "fig03",
    "fig04",
    "fig05",
    "fig06",
    "fig07",
    "fig08",
    "fig09",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "fig14",
    "table_s2",
    "tomography_study",
    "topo_study",
    "ablations",
    "cc_study",
    "ext_roleprior",
    "ext_sampling",
]
