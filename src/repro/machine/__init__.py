"""Simulated MAP1000-like machine model.

The real MAP1000 is a 200 MHz VLIW core plus a multi-element Fixed
Function Unit (FFU) and a programmable DMA engine (the Data Streamer).
The Resource Distributor's behaviour depends on the machine only through
three things, which this package models:

* the cost of context switches (``cpu``),
* the slice of the processor reserved for interrupt handling
  (``interrupts``), and
* the exclusive functional units a grant can confer (``exclusive``).
"""

from repro.machine.cpu import ContextSwitchModel
from repro.machine.exclusive import ExclusiveUnitRegistry
from repro.machine.interrupts import InterruptReserve

__all__ = [
    "ContextSwitchModel",
    "ExclusiveUnitRegistry",
    "InterruptReserve",
]
