"""Inter-thread signalling.

The paper's EDF rules forbid blocking synchronization between admitted
tasks ("a task must be willing to accept its allocation at any point in
the period"); non-blocking synchronization is acceptable, and a task
that does block simply voids its guarantee for the affected periods.

:class:`Channel` supports both styles:

* non-blocking: a task polls :attr:`ready` / calls :meth:`try_take`
  (the Figure 4 data-management threads poll — the paper calls the
  resulting spin "a bug in the application");
* blocking: a task yields ``Block(channel)`` and is woken by the next
  :meth:`post`, regaining its guarantees in the following full period.

A channel knows nothing about kernels.  While a thread is blocked on
it, the kernel that owns the thread parks a callable in :attr:`waker`;
:meth:`post` calls it with the channel, and the kernel delivers the
wake at its next delivery point.  With nobody blocked the slot is
``None`` and a post is two additions.  One slot means a channel wakes
the blocked threads of one kernel at a time.
"""

from __future__ import annotations


class Channel:
    """A counting event channel (post/take semantics)."""

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._pending = 0
        self._posts = 0
        #: Called with this channel after every post while a thread is
        #: blocked here; set and cleared by the kernel owning the waiters.
        self.waker = None

    @property
    def ready(self) -> bool:
        """Non-blocking poll: is at least one post available?"""
        return self._pending > 0

    @property
    def pending(self) -> int:
        return self._pending

    @property
    def total_posts(self) -> int:
        return self._posts

    def post(self, count: int = 1) -> None:
        """Make ``count`` items available, waking blocked takers."""
        if count <= 0:
            raise ValueError(f"post count must be positive, got {count}")
        self._pending += count
        self._posts += count
        if self.waker is not None:
            self.waker(self)

    def try_take(self) -> bool:
        """Consume one item if available (non-blocking)."""
        if self._pending > 0:
            self._pending -= 1
            return True
        return False
