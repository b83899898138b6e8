"""Global numeric precision switch.

Two modes exist: "verify" (float64, the default everywhere, the CLI
included, and the mode every oracle and gradient check uses) and "train"
(float32, the faster mode, selected with `--set precision=train`).  The
switch is process-global; set it before building tensors or models, not in
the middle of a run.  `checkpoint.network_from_checkpoint` sets it to the
mode the checkpoint was saved in.
"""
from __future__ import annotations

import contextlib

import numpy as np

from .errors import ConfigError

_MODES = {"verify": np.float64, "train": np.float32}
_dtype = np.float64


def set_mode(mode: str) -> None:
    global _dtype
    if mode not in _MODES:
        raise ConfigError(f"unknown precision mode {mode!r}; expected one of {sorted(_MODES)}")
    _dtype = _MODES[mode]


def mode() -> str:
    return "verify" if _dtype == np.float64 else "train"


def dtype() -> np.dtype:
    return np.dtype(_dtype)


@contextlib.contextmanager
def scoped_mode(mode_name: str):
    """Temporarily switch precision; used by tests and the benchmark's replica
    record count (`tegraph gradcheck` sets "verify" for the whole process)."""
    previous = mode()
    set_mode(mode_name)
    try:
        yield
    finally:
        set_mode(previous)
