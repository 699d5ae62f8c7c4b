"""Fixture: a ``self.bus`` receiver typed by an annotated ``__init__``
parameter (clean: the call graph resolves it to ``MessageBus.send``)."""

from repro.sim.messages import MessageBus


class MiniBroker:
    def __init__(self, bus: MessageBus) -> None:
        self.bus = bus

    def place(self, task, node, now):
        return self.bus.send("broker", node, "admit", {"task": task}, now)
