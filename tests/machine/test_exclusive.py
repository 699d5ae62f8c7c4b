"""Exclusive functional-unit ledger."""

import pytest

from repro.errors import GrantError
from repro.machine.exclusive import ExclusiveUnitRegistry


@pytest.fixture
def registry():
    return ExclusiveUnitRegistry(("ffu.video_scaler", "data_streamer"))


class TestOwnership:
    def test_unowned_initially(self, registry):
        assert registry.owner("ffu.video_scaler") is None

    def test_assign_and_query(self, registry):
        registry.assign({"ffu.video_scaler": 3})
        assert registry.owner("ffu.video_scaler") == 3

    def test_release_thread(self, registry):
        registry.assign({"ffu.video_scaler": 3, "data_streamer": 3})
        registry.release_thread(3)
        assert registry.owner("ffu.video_scaler") is None
        assert registry.owner("data_streamer") is None

    def test_holdings(self, registry):
        registry.assign({"ffu.video_scaler": 3})
        held = {unit: registry.owner(unit) for unit in registry.unit_names}
        assert held == {"ffu.video_scaler": 3, "data_streamer": None}

    def test_assign_none_releases(self, registry):
        registry.assign({"data_streamer": 5})
        registry.assign({"data_streamer": None})
        assert registry.owner("data_streamer") is None


class TestValidation:
    def test_unknown_unit_on_owner(self, registry):
        with pytest.raises(GrantError):
            registry.owner("bogus")

    def test_unknown_unit_on_assign_is_atomic(self, registry):
        with pytest.raises(GrantError):
            registry.assign({"ffu.video_scaler": 1, "bogus": 2})
        # The valid part must not have been applied.
        assert registry.owner("ffu.video_scaler") is None

    def test_validate_units(self, registry):
        registry.validate_units(frozenset({"data_streamer"}))
        with pytest.raises(GrantError):
            registry.validate_units(frozenset({"gpu"}))
