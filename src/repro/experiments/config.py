"""Experiment configuration: scales, seeds, issue mixes.

``scale="paper"`` reproduces the paper's population sizes (1335/431
files for Part One, 1782/296 for Part Two); ``scale="small"`` shrinks
everything ~6x for tests and benchmarks while preserving the issue
mix, languages and protocol.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.experiments.environment import DEFAULT_FLAKE_RATES

#: Issue mixes matching the published per-issue counts.
PART1_ACC_WEIGHTS = {0: 0.304, 1: 0.187, 2: 0.162, 3: 0.175, 4: 0.171}
PART1_OMP_WEIGHTS = {0: 0.274, 1: 0.181, 2: 0.153, 3: 0.237, 4: 0.153}
PART2_ACC_WEIGHTS = {0: 0.305, 1: 0.164, 2: 0.169, 3: 0.164, 4: 0.198}
PART2_OMP_WEIGHTS = {0: 0.331, 1: 0.189, 2: 0.176, 3: 0.135, 4: 0.169}

_SCALES = {
    # (part1 acc, part1 omp, part2 acc, part2 omp)
    "paper": (1336, 432, 1782, 296),
    "small": (220, 120, 280, 148),
    "tiny": (60, 32, 72, 32),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """All knobs of the reproduction, with paper-faithful defaults."""

    scale: str = "paper"
    seed: int = 20240822
    model_seed: int = 99
    #: fraction of issue-3 random files that are themselves compilable
    random_code_valid_fraction: float = 0.6
    #: toolchain nonconformance rates on valid files (see environment.py)
    flake_rates: dict[str, float] = field(default_factory=lambda: dict(DEFAULT_FLAKE_RATES))
    openmp_max_version: float = 4.5
    step_limit: int = 3_000_000
    #: interpreter evaluator: any name in
    #: :data:`repro.runtime.interpreter.EXECUTION_BACKENDS` ("closure"
    #: is the fast default, "walk" the executable spec, "codegen" the
    #: generated-code backend)
    execution_backend: str = "closure"
    #: content-addressed result caching (see repro.cache): reuses
    #: compile/execute/judge artifacts within and across runs
    cache_enabled: bool = True
    #: directory for JSON persistence of the compile/execute/judge namespaces
    #: (None = in-memory only)
    cache_dir: str | None = None
    #: LRU bound per cache namespace
    cache_max_entries: int = 65536
    #: worker processes for the experiment matrix (see
    #: repro.experiments.sharding): 1 = sequential in-process, N > 1
    #: fans independent (part × flavor) cells over N processes that
    #: share compile/execute/judge results through an on-disk cache
    jobs: int = 1

    def __post_init__(self) -> None:
        if self.scale not in _SCALES:
            raise ValueError(f"scale must be one of {sorted(_SCALES)}, got {self.scale!r}")
        from repro.runtime.interpreter import EXECUTION_BACKENDS

        if self.execution_backend not in EXECUTION_BACKENDS:
            raise ValueError(
                f"execution_backend must be one of {EXECUTION_BACKENDS},"
                f" got {self.execution_backend!r}"
            )
        if self.cache_max_entries < 1:
            raise ValueError(
                f"cache_max_entries must be >= 1, got {self.cache_max_entries}"
            )
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs}")

    # population sizes -----------------------------------------------------

    @property
    def part1_acc_count(self) -> int:
        return _SCALES[self.scale][0]

    @property
    def part1_omp_count(self) -> int:
        return _SCALES[self.scale][1]

    @property
    def part2_acc_count(self) -> int:
        return _SCALES[self.scale][2]

    @property
    def part2_omp_count(self) -> int:
        return _SCALES[self.scale][3]

    def part2_count(self, flavor: str, tag: str = "part2") -> int:
        """Part-Two population size for a run tag.

        Non-standard tags (the extension runs, e.g. ``fortran-ext``)
        use a shrunk population: a quarter of the scale, floored at 24
        so per-issue cells stay populated.  The experiment runner and
        the sharding cost model both rely on this being the single
        source of that rule.
        """
        count = self.part2_acc_count if flavor == "acc" else self.part2_omp_count
        if tag != "part2":
            count = max(24, count // 4)
        return count

    # protocol details -----------------------------------------------------

    @property
    def part1_acc_languages(self) -> tuple[str, ...]:
        """Part One OpenACC used C, C++ and a small set of Fortran files."""
        return ("c", "cpp", "f90")

    @property
    def part1_omp_languages(self) -> tuple[str, ...]:
        """Part One OpenMP used only C files (paper §V-A)."""
        return ("c",)

    @property
    def part2_languages(self) -> tuple[str, ...]:
        """Part Two used C and C++ for both models (paper §V-B)."""
        return ("c", "cpp")
