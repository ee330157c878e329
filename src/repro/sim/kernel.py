"""Simulation-kernel selection (cached vs. eager candidate scans).

``CmpSystem.run`` ticks every DRAM cycle under both kernels; they differ
only in how the memory controller builds its per-channel command
candidates, and produce bit-identical results:

* ``event`` (default) — the controller caches per-bank candidate lists
  between bank-state changes and builds the interference side-info only
  for the command that issues (see DESIGN.md §3.14).
* ``naive`` — eager candidate scans rebuilt every tick, kept as the
  differential-testing oracle.

Selection uses the ``STFM_SIM_KERNEL`` environment variable, following
the same pattern as ``STFM_SIM_SANITIZE`` / ``STFM_SIM_FAULTS``: the
toggle is inherited by engine worker processes and never perturbs result
cache keys (results are identical either way, so cross-kernel cache
sharing is sound by construction).
"""

from __future__ import annotations

import os

KERNEL_ENV = "STFM_SIM_KERNEL"

#: Known kernel names.
KERNELS = ("event", "naive")


def kernel_name() -> str:
    """The selected simulation kernel ('event' unless overridden).

    Read at every call (not cached at import) so tests and the CLI can
    flip ``STFM_SIM_KERNEL`` at runtime.
    """
    value = os.environ.get(KERNEL_ENV, "").strip().lower()
    if not value:
        return "event"
    if value not in KERNELS:
        raise ValueError(
            f"{KERNEL_ENV}={value!r} is not a known kernel "
            f"(choose from: {', '.join(KERNELS)})"
        )
    return value


def event_kernel_enabled() -> bool:
    """True when the controller should use its cached candidate scans."""
    return kernel_name() == "event"
