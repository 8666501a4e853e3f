"""Neutralise process-wide engine defaults around a timed region.

The acceptance benchmarks time real compiles and walks; an installed
default engine-result cache or ``--jobs`` shard count
(``REPRO_RESULT_CACHE`` / ``set_default_jobs``) would silently turn the
timed runs into disk loads or change their parallelism, fabricating the
gated speedups.  :func:`neutral_defaults` clears both for the duration of
the ``with`` block and restores whatever was installed afterwards, so a
mixed benchmark session (``pytest benchmarks/``) keeps the user's
configuration for the experiment-replay benchmarks that *should* use it.
"""

from __future__ import annotations

from contextlib import contextmanager


@contextmanager
def neutral_defaults():
    from repro.engine import (
        get_default_jobs,
        get_default_result_cache,
        set_default_jobs,
        set_default_result_cache,
    )

    saved_result = get_default_result_cache()
    saved_jobs = get_default_jobs()
    set_default_result_cache(None)
    set_default_jobs(None)
    try:
        yield
    finally:
        set_default_result_cache(saved_result)
        set_default_jobs(saved_jobs)
