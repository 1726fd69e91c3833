"""hetsim: cooperative training of branched networks across heterogeneous devices.

Devices train networks of different complexity that share a common stem;
only the shared parameters are synchronized through a coordinator. This
package provides the network engine, topology construction, the sync
protocol, per-device learners, data/environments, and a deterministic
experiment harness with a CLI.
"""

from . import nn
from .config import ExperimentConfig, load_config, parse_config
from .data import Dataset, generate_synthetic_dataset, load_cifar10_binary, partition_dataset
from .gridworld import GridWorld
from .harness import RlRun, SupervisedRun, describe, make_run, run_experiment
from .learners import DdqlLearner, EpsilonSchedule, ReplayBuffer, SupervisedTrainer
from .protocol import (
    Coordinator,
    GradientUpdate,
    ParamBroadcast,
    compute_merge_weights,
    merge_deltas,
    sync_round,
)
from .topology import (
    BranchedTopology,
    DeviceNetwork,
    ParameterPartition,
    build_cascaded,
    build_share_first,
    count_parameters,
)

__version__ = "0.1.0"

__all__ = [
    "BranchedTopology", "Coordinator", "Dataset", "DdqlLearner", "DeviceNetwork",
    "EpsilonSchedule", "ExperimentConfig", "GradientUpdate",
    "GridWorld", "ParamBroadcast", "ParameterPartition", "ReplayBuffer",
    "RlRun", "SupervisedRun", "SupervisedTrainer", "build_cascaded",
    "build_share_first", "compute_merge_weights", "count_parameters",
    "describe", "generate_synthetic_dataset",
    "load_cifar10_binary", "load_config", "make_run", "merge_deltas", "nn",
    "parse_config", "partition_dataset", "run_experiment",
    "sync_round",
]
