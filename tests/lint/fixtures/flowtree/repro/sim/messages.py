"""Fixture: the mini MessageBus seam `cluster/mini_broker.py` sends through."""


class BusError(Exception):
    pass


class MessageBus:
    def __init__(self) -> None:
        self.endpoints: dict = {}

    def send(self, src, dst, kind, payload, now):
        if dst not in self.endpoints:
            raise BusError(f"unknown endpoint {dst!r}")
        return True

    def deliver(self, now):
        return []
