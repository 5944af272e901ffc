"""Process exit codes of the single-run CLI.

The mapping lets any shell caller — CI scripts, a batch driver, a cron
wrapper — classify a run's outcome without parsing stdout:

====  =========================================================
code  meaning
====  =========================================================
0     clean run, no data races detected
1     run completed and data races were found (the product, not
      an error — mirrors ``grep``)
2     configuration error: the flag combination or input can
      never work; retrying is pointless
3     runtime failure or degraded result (crash, protocol error,
      replay divergence, unreadable trace...); possibly transient
4     wall-clock deadline exceeded (``--deadline``)
====  =========================================================

A retry policy can key off exactly these classes: 2 fails permanently,
3 and 4 may succeed on a second attempt.
"""

from __future__ import annotations

EXIT_CLEAN = 0
EXIT_RACES = 1
EXIT_CONFIG = 2
EXIT_RUNTIME = 3
EXIT_TIMEOUT = 4


def classify_exception(exc: BaseException) -> int:
    """Exit code for an exception escaping a run.

    :class:`~repro.errors.DeadlineExceeded` and
    :class:`~repro.errors.ConfigError` are ``ReproError`` subclasses with
    classes of their own; plain ``ValueError`` covers
    :class:`~repro.dsm.config.DsmConfig`'s scalar validation.  Everything
    else is a runtime failure.
    """
    from repro.errors import ConfigError, DeadlineExceeded
    if isinstance(exc, DeadlineExceeded):
        return EXIT_TIMEOUT
    if isinstance(exc, (ConfigError, ValueError)):
        return EXIT_CONFIG
    return EXIT_RUNTIME
