"""Logging helpers.

The library never configures the root logger; applications (CLI, benches)
call :func:`setup_logging` once.  Library modules obtain loggers through
:func:`get_logger`, which namespaces everything under ``repro``.
"""

from __future__ import annotations

import logging
import sys

_ROOT_NAME = "repro"


def get_logger(name: str) -> logging.Logger:
    """Return a logger namespaced under ``repro``.

    ``get_logger("core.pipeline")`` → logger ``repro.core.pipeline``.
    Passing a name already starting with ``repro`` keeps it unchanged.
    """
    if name == _ROOT_NAME or name.startswith(_ROOT_NAME + "."):
        return logging.getLogger(name)
    return logging.getLogger(f"{_ROOT_NAME}.{name}")


def setup_logging(level: int = logging.INFO, stream=None) -> None:
    """Configure a simple handler for the ``repro`` logger tree."""
    logger = logging.getLogger(_ROOT_NAME)
    logger.setLevel(level)
    if logger.handlers:
        return
    handler = logging.StreamHandler(stream or sys.stderr)
    handler.setFormatter(
        logging.Formatter("%(asctime)s %(levelname)-7s %(name)s: %(message)s")
    )
    logger.addHandler(handler)
    logger.propagate = False
