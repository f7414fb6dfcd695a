"""Experiment harness: one entry point per paper table and figure.

:class:`~repro.experiments.runner.Experiments` owns the shared
artifacts (corpora, probing populations, pipeline runs) and exposes
``table1()`` … ``table9()`` and ``fig3()`` … ``fig6()``, each returning
the regenerated artifact plus the paper's published values for
comparison.  ``repro.experiments.paperdata`` holds every published cell
so EXPERIMENTS.md is generated, never hand-edited.
"""

from repro.experiments.config import ExperimentConfig
from repro.experiments.environment import EnvironmentModel

__all__ = ["ExperimentConfig", "EnvironmentModel", "Experiments"]


def __getattr__(name: str):
    # the runner pulls in the metrics stack (numpy, ~12 MB); a process
    # that needs only a submodule, such as a fuzz campaign's pool
    # asking ``sharding`` for its start method, never loads it
    if name == "Experiments":
        from repro.experiments.runner import Experiments

        return Experiments
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
