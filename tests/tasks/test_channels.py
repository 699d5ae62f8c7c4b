"""Channels: post/take semantics."""

import pytest

from repro.tasks.channels import Channel


class TestChannel:
    def test_initially_empty(self):
        ch = Channel("c")
        assert not ch.ready
        assert not ch.try_take()

    def test_post_then_take(self):
        ch = Channel("c")
        ch.post()
        assert ch.ready
        assert ch.try_take()
        assert not ch.ready

    def test_counts_accumulate(self):
        ch = Channel("c")
        ch.post(3)
        assert ch.pending == 3
        assert ch.try_take() and ch.try_take() and ch.try_take()
        assert not ch.try_take()

    def test_total_posts_monotonic(self):
        ch = Channel("c")
        ch.post(2)
        ch.try_take()
        ch.post()
        assert ch.pending == 2

    def test_post_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            Channel("c").post(0)
