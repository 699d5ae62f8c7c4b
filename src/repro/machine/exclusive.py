"""Exclusive functional units (FFU sub-units, Data Streamer channels).

Some resource-list entries need exclusive access to a functional unit —
the paper's example is the 3D graphics task, some of whose entries use
the FFU's video scaler and some of which do not (section 5.5).  Grant
control must never grant the same exclusive unit to two threads at once,
and when the Policy Box invents a policy it gives "an arbitrary thread
... control of exclusive resources" (section 6.3).
"""

from __future__ import annotations

from repro.errors import GrantError


class ExclusiveUnitRegistry:
    """Ownership ledger for the machine's exclusive units."""

    def __init__(self, unit_names: tuple[str, ...]) -> None:
        self._owners: dict[str, int | None] = {name: None for name in unit_names}

    @property
    def unit_names(self) -> tuple[str, ...]:
        return tuple(self._owners)

    def validate_units(self, units_: frozenset[str]) -> None:
        """Raise if any requested unit does not exist on this machine."""
        unknown = units_ - set(self._owners)
        if unknown:
            raise GrantError(
                f"unknown exclusive unit(s) {sorted(unknown)}; machine has "
                f"{sorted(self._owners)}"
            )

    def owner(self, unit: str) -> int | None:
        """Thread id currently holding ``unit``, or None."""
        if unit not in self._owners:
            raise GrantError(f"unknown exclusive unit {unit!r}")
        return self._owners[unit]

    def assign(self, assignments: dict[str, int | None]) -> None:
        """Replace ownership for the listed units atomically.

        ``assignments`` maps unit name to owning thread id (or None to
        release).  Validates all names before mutating anything.
        """
        for unit in assignments:
            if unit not in self._owners:
                raise GrantError(f"unknown exclusive unit {unit!r}")
        self._owners.update(assignments)

    def release_thread(self, thread_id: int) -> None:
        """Release every unit held by ``thread_id`` (thread exit)."""
        for unit, owner in self._owners.items():
            if owner == thread_id:
                self._owners[unit] = None
