"""Shared fixtures: compilers, executors, small cached corpora; and the
hygiene check every run of this directory ends with."""

from __future__ import annotations

import multiprocessing
import random
import threading
import time
from pathlib import Path

import pytest

from repro.compiler.driver import Compiler
from repro.corpus.generator import CorpusGenerator
from repro.corpus.suite import TestSuite
from repro.llm.model import DeepSeekCoderSim
from repro.pipeline import pool
from repro.probing.prober import NegativeProber
from repro.runtime.executor import Executor


TESTS_DIR = Path(__file__).resolve().parent
#: threads a ValidationService starts (daemon threads, so only this
#: check notices one a test forgot to drain)
SERVICE_THREADS = ("microbatch-", "job-runner")


def _leaks() -> list[str]:
    threads = [
        f"thread {t.name!r}" for t in threading.enumerate()
        if t is not threading.main_thread()
        and (not t.daemon or t.name.startswith(SERVICE_THREADS))
    ]
    children = [f"child {p.pid} ({p.name})" for p in multiprocessing.active_children()]
    return threads + children


@pytest.fixture(autouse=True)
def _close_shared_pool():
    """Close the process's shared compute pool after each test: workers
    forked for one test would not see the next test's monkeypatches."""
    yield
    pool.close_shared()


@pytest.fixture()
def only_shared_workers():
    """A check for after a pooled run: the live children are exactly
    the shared compute pool's workers, and none is left once it is
    closed."""

    def check() -> None:
        shared = pool._shared
        workers = set() if shared is None else {p.pid for p in shared._processes}
        assert {p.pid for p in multiprocessing.active_children()} == workers
        pool.close_shared()
        assert multiprocessing.active_children() == []

    return check


@pytest.hookimpl(trylast=True)
def pytest_runtest_teardown(item, nextitem):
    """After the last test of this directory, once its fixtures are torn
    down: fail on a leaked service or non-daemon thread, or a live
    child process.

    A pooled validation run forks; a thread holding a lock at fork time
    can deadlock the child, and the benchmarks that run next measure
    whatever is left running.
    """
    if nextitem is not None and TESTS_DIR in Path(str(nextitem.fspath)).parents:
        return
    deadline = time.monotonic() + 5.0
    while _leaks() and time.monotonic() < deadline:
        time.sleep(0.1)
    leaks = _leaks()
    if leaks:
        pytest.fail("tests leaked: " + ", ".join(leaks), pytrace=False)


@pytest.fixture(scope="session")
def acc_compiler() -> Compiler:
    return Compiler(model="acc")


@pytest.fixture(scope="session")
def omp_compiler() -> Compiler:
    return Compiler(model="omp", openmp_max_version=4.5)


@pytest.fixture()
def executor() -> Executor:
    return Executor(step_limit=2_000_000)


@pytest.fixture(scope="session")
def acc_corpus() -> list:
    """A small validated OpenACC corpus (C + C++), session-cached."""
    return CorpusGenerator(seed=11).generate("acc", 36, languages=("c", "cpp"))


@pytest.fixture(scope="session")
def omp_corpus() -> list:
    return CorpusGenerator(seed=11).generate("omp", 36, languages=("c", "cpp"))


@pytest.fixture(scope="session")
def fortran_corpus() -> list:
    return CorpusGenerator(seed=13).generate("acc", 6, languages=("f90",))


@pytest.fixture(scope="session")
def acc_probed(acc_corpus):
    suite = TestSuite("acc-fixture", "acc", list(acc_corpus))
    return NegativeProber(seed=21).probe(suite)


@pytest.fixture(scope="session")
def omp_probed(omp_corpus):
    suite = TestSuite("omp-fixture", "omp", list(omp_corpus))
    return NegativeProber(seed=22).probe(suite)


@pytest.fixture()
def model() -> DeepSeekCoderSim:
    return DeepSeekCoderSim(seed=4242)


@pytest.fixture()
def rng() -> random.Random:
    return random.Random(77)


VALID_ACC_SOURCE = r"""
#include <stdio.h>
#include <stdlib.h>
#include <openacc.h>
#define N 64

int main() {
    double a[N];
    double expected[N];
    int err = 0;
    for (int i = 0; i < N; i++) {
        a[i] = (double)i;
        expected[i] = a[i] * 3.0 + 1.0;
    }
#pragma acc parallel loop copy(a[0:N])
    for (int i = 0; i < N; i++) {
        a[i] = a[i] * 3.0 + 1.0;
    }
    for (int i = 0; i < N; i++) {
        if (a[i] != expected[i]) {
            err = err + 1;
        }
    }
    if (err != 0) {
        printf("FAILED with %d errors\n", err);
        return 1;
    }
    printf("PASSED\n");
    return 0;
}
"""

VALID_OMP_SOURCE = r"""
#include <stdio.h>
#include <omp.h>
#define N 64

int main() {
    int a[N];
    int sum = 0;
    int expected = 0;
    for (int i = 0; i < N; i++) {
        a[i] = i % 5;
        expected += a[i];
    }
#pragma omp target teams distribute parallel for map(to: a[0:N]) reduction(+:sum)
    for (int i = 0; i < N; i++) {
        sum += a[i];
    }
    if (sum != expected) {
        printf("FAILED: %d != %d\n", sum, expected);
        return 1;
    }
    printf("PASSED\n");
    return 0;
}
"""

VALID_F90_SOURCE = """
program demo
  implicit none
  integer :: i, n
  real(8) :: a(32), expected(32)
  integer :: err
  n = 32
  err = 0
  do i = 1, n
    a(i) = i * 1.0
    expected(i) = a(i) * 2.0
  end do
  !$acc parallel loop copy(a)
  do i = 1, n
    a(i) = a(i) * 2.0
  end do
  do i = 1, n
    if (abs(a(i) - expected(i)) > 1.0e-9) then
      err = err + 1
    end if
  end do
  if (err > 0) then
    print *, "FAILED"
    stop 1
  end if
  print *, "PASSED"
end program demo
"""


@pytest.fixture()
def valid_acc_source() -> str:
    return VALID_ACC_SOURCE


@pytest.fixture()
def valid_omp_source() -> str:
    return VALID_OMP_SOURCE


@pytest.fixture()
def valid_f90_source() -> str:
    return VALID_F90_SOURCE
