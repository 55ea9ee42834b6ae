"""repro — a reproduction of KnowTrans (ICDE 2025).

KnowTrans boosts the few-shot transferability of data preparation LLMs
with two components: Selective Knowledge Concentration (LoRA knowledge
patches extracted per upstream dataset, dynamically fused and few-shot
fine-tuned) and Automatic Knowledge Bridging (an iterative, closed-LLM
driven search for dataset-informed prompt knowledge).

Quickstart::

    from repro import get_bundle, KnowTrans, load_splits
    from repro.eval.harness import evaluate_method

    bundle = get_bundle("mistral-7b")          # upstream DP-LLM + patches
    splits = load_splits("em/abt_buy")         # a novel downstream dataset
    adapted = KnowTrans(bundle).fit(splits)    # SKC + AKB adaptation
    print(evaluate_method(adapted, splits.test.examples, adapted.task.name))

Importing the package pins BLAS to one thread per process (before numpy
loads) unless the environment already sets a count: the engine's GEMMs
are small, a second thread mostly adds synchronisation, and forked
workers would otherwise oversubscribe the CPUs.  An explicit
``OPENBLAS_NUM_THREADS`` / ``OMP_NUM_THREADS`` / ``MKL_NUM_THREADS``
wins; a process that loaded numpy before importing ``repro`` keeps the
thread count numpy started with.
"""

import os as _os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    _os.environ.setdefault(_name, "1")

from .baselines.jellyfish import UpstreamBundle, get_bundle
from .core.config import AKBConfig, KnowTransConfig, SKCConfig
from .core.knowtrans import AdaptedModel, KnowTrans
from .data.schema import Dataset, Example, Profile, Record
from .data.splits import DatasetSplits, split_dataset
from .eval.experiments import ExperimentContext
from .eval.harness import load_splits
from .knowledge.rules import Knowledge
from .llm.mockgpt import MockGPT
from .tasks.base import get_task, task_names

__version__ = "1.0.0"

__all__ = [
    "KnowTrans",
    "AdaptedModel",
    "KnowTransConfig",
    "SKCConfig",
    "AKBConfig",
    "UpstreamBundle",
    "get_bundle",
    "load_splits",
    "split_dataset",
    "DatasetSplits",
    "Dataset",
    "Example",
    "Record",
    "Profile",
    "Knowledge",
    "MockGPT",
    "get_task",
    "task_names",
    "ExperimentContext",
    "__version__",
]
