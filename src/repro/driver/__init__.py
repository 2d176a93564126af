"""Batch-capable, parallel, incrementally-cached checking driver.

Public surface::

    from repro import driver

    outcome = driver.check_program(source, jobs=4, disk=driver.open_store())
    outcome.report.all_proved          # the usual CheckReport
    outcome.driver.utilization         # plus driver telemetry

    corpus = driver.check_corpus(jobs=4, cache_dir=".repro-cache")
    print(corpus.render())

The persistent verdict store (``driver.open_store(dir)``) is one
sqlite database that concurrent writers share safely.  See
:mod:`repro.driver.core` for the architecture,
:mod:`repro.driver.store` for the store and its merge semantics, and
:mod:`repro.driver.hashing` for the incrementality/invalidation
rules.
"""

from repro.driver.core import (
    CorpusReport,
    DriverReport,
    DriverStats,
    ProgramResult,
    check_corpus,
    check_program,
)
from repro.driver.hashing import decl_keys, prelude_hash
from repro.driver.store import (
    DEFAULT_CACHE_DIR,
    SqliteVerdictStore,
    open_store,
)

__all__ = [
    "DEFAULT_CACHE_DIR",
    "SqliteVerdictStore",
    "open_store",
    "CorpusReport",
    "DriverReport",
    "DriverStats",
    "ProgramResult",
    "check_corpus",
    "check_program",
    "decl_keys",
    "prelude_hash",
]
