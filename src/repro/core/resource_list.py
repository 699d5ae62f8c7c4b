"""Resource lists: the discrete QOS levels an application supports.

The key insight of the paper is that multimedia QOS degradations are
*discrete*: an MPEG decoder can drop B frames or halve resolution, but a
fractional allocation between two such levels is wasted.  An application
therefore presents, at admission time, an ordered list of entries — one
per supported QOS level — each naming a period, a CPU requirement (both
in 27 MHz ticks), and the function that implements that level
(Table 1).  The Resource Manager then has complete knowledge of every
load-shedding possibility in the system.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

from repro import units
from repro.errors import ResourceListError

#: The function associated with a resource-list entry.  In this
#: reproduction it is a generator function driven by the kernel; see
#: ``repro.tasks.base`` for the protocol.
EntryFunction = Callable[..., object]

_INFINITY = float("inf")


@dataclass(frozen=True)
class ResourceListEntry:
    """One QOS level: a period, a CPU requirement, and a function.

    ``rate`` (CPU requirement / period) is the fraction of the processor
    this level consumes; it is the quantity admission control and grant
    control reason about.  It is derived, so it is stored once at
    construction and takes no part in equality, hashing or the repr.

    ``bandwidth`` is the fraction of Data Streamer throughput the level
    needs.  The paper's Table 1 "omits several fields that manage
    resources other than CPU cycles"; managing bandwidth explicitly is
    the paper's first named piece of future work (§7), implemented here
    as a second admission/grant dimension.
    """

    period: int
    cpu_ticks: int
    function: EntryFunction
    #: Human-readable name of the level, e.g. ``"FullDecompress"``.
    label: str = ""
    #: Exclusive functional units this level needs (e.g. FFU video scaler).
    exclusive: frozenset[str] = field(default_factory=frozenset)
    #: Fraction of Data Streamer bandwidth this level consumes.
    bandwidth: float = 0.0
    #: Fraction of the CPU this entry consumes (computed, Table 1).
    rate: float = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        units.validate_period(self.period)
        if not 0.0 <= self.bandwidth <= 1.0:
            raise ResourceListError(
                f"bandwidth must be a fraction in [0, 1], got {self.bandwidth}"
            )
        if not isinstance(self.cpu_ticks, int):
            raise ResourceListError(
                f"CPU requirement must be an int tick count, got "
                f"{type(self.cpu_ticks).__name__}"
            )
        if self.cpu_ticks <= 0:
            raise ResourceListError(
                f"CPU requirement must be positive, got {self.cpu_ticks}"
            )
        if self.cpu_ticks > self.period:
            raise ResourceListError(
                f"CPU requirement {self.cpu_ticks} exceeds the period "
                f"{self.period}: rate would be over 100%"
            )
        if not callable(self.function):
            raise ResourceListError("entry function must be callable")
        object.__setattr__(self, "rate", self.cpu_ticks / self.period)

    def describe(self) -> str:
        name = self.label or getattr(self.function, "__name__", "fn")
        return (
            f"{self.period:>12,d} {self.cpu_ticks:>12,d} {self.rate * 100:6.1f}%  {name}"
        )


class ResourceList:
    """An ordered sequence of entries, best QOS first.

    The paper's Table 1 orders entries from the maximum (top-quality)
    entry down to the minimum entry.  Entries must be strictly decreasing
    in rate: two entries with the same rate would be indistinguishable to
    grant control.

    A list is immutable, so what grant control asks of it on every
    correlation pass is computed once, here, and read as plain
    attributes: the ``entries`` tuple, the per-entry ``rates`` and
    ``bandwidths``, the ascending ``negated_rates`` a bisection for a
    target rate reads, the ``indices`` every candidate search starts
    from, the ``smallest_step`` between adjacent rates, and whether any
    entry ``names_exclusive`` units.
    """

    def __init__(self, entries: Sequence[ResourceListEntry]) -> None:
        if not entries:
            raise ResourceListError("a resource list needs at least one entry")
        #: The entries, best QOS first.
        self.entries = entries = tuple(entries)
        #: ``entry.rate`` / ``entry.bandwidth`` by index (0 = maximum QOS).
        self.rates = rates = tuple([entry.rate for entry in entries])
        self.bandwidths = tuple([entry.bandwidth for entry in entries])
        #: ``-entry.rate`` by index, ascending because ``rates`` strictly
        #: descends (checked below): ``bisect_right(negated_rates, -r)``
        #: is the number of entries whose rate is at least ``r``.
        self.negated_rates = tuple([-rate for rate in rates])
        #: ``(0, ..., len - 1)``, shared by every reader.
        self.indices = tuple(range(len(entries)))
        #: Smallest rate gap between adjacent entries (inf for one entry).
        self.smallest_step = _INFINITY
        for higher, lower in zip(rates, rates[1:]):
            if lower >= higher:
                raise ResourceListError(
                    f"resource list entries must be ordered by strictly "
                    f"decreasing rate; got {higher:.4f} then {lower:.4f}"
                )
            if higher - lower < self.smallest_step:
                self.smallest_step = higher - lower
        #: Does any entry need an exclusive functional unit?
        self.names_exclusive = any([entry.exclusive for entry in entries])

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[ResourceListEntry]:
        return iter(self.entries)

    def __getitem__(self, index: int) -> ResourceListEntry:
        return self.entries[index]

    @property
    def maximum(self) -> ResourceListEntry:
        """The top-quality entry (largest rate)."""
        return self.entries[0]

    @property
    def minimum(self) -> ResourceListEntry:
        """The lowest-quality entry (smallest rate).

        Admission control admits a thread iff the sum of *minimum*
        entries of all threads fits on the machine.
        """
        return self.entries[-1]

    def describe(self) -> str:
        """Render the list in the paper's Table 1 format."""
        header = f"{'Period':>12} {'CPU Req.':>12} {'Rate':>7}  Function"
        return "\n".join([header] + [entry.describe() for entry in self.entries])
