"""The serialization property (satellite of the serving control plane).

The service promises that any concurrent client interleaving of
mutations produces broker state *byte-identical* to a sequential
replay of the oplog the single writer recorded — the oplog IS the
serialization, group-commit boundaries included.  Two angles:

* a hypothesis property over the engine alone: arbitrary op sequences
  (submits, batches, removes, specs rejected before their RPC) chopped
  into arbitrary commit groups replay, one ``apply`` at a time, to the
  same digest and re-record the same oplog;
* a live-wire test: genuinely concurrent HTTP POST/DELETE clients
  racing into one app, whose captured oplog replays to the same
  digest on a fresh engine.
"""

import asyncio
import json
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve.app import ServeApp
from repro.serve.engine import ServeEngine
from repro.serve.loadgen import PlannedRequest, _Connection

NAMES = ("alpha", "beta", "gamma", "delta")
#: Rates chosen so some mixes fit and some force denials (node
#: schedulable capacity is 0.96), making admission order-sensitive.
RATES = (0.1, 0.4, 0.7, 0.99)


def fresh_engine():
    return ServeEngine(nodes=2, seed=7, policy="first-fit")


#: A spec rejected before any RPC fires (never logged), mixed in with
#: the placeable names.
spec_strategy = st.tuples(st.sampled_from(NAMES + ("",)), st.sampled_from(RATES))

ops_strategy = st.lists(
    st.one_of(
        st.tuples(st.just("submit"), spec_strategy),
        st.tuples(st.just("batch"), st.lists(spec_strategy, max_size=3)),
        st.tuples(st.just("remove"), st.sampled_from(NAMES)),
    ),
    min_size=1,
    max_size=24,
)


def to_spec(pair):
    name, rate = pair
    return {"name": name, "rate": rate, "period_ms": 5.0}


def to_op(step):
    kind, arg = step
    if kind == "submit":
        return {"op": "submit", "spec": to_spec(arg)}
    if kind == "batch":
        return {"op": "batch", "specs": [to_spec(pair) for pair in arg]}
    return {"op": "remove", "task": arg}


class TestEngineCommitGrouping:
    @settings(max_examples=25, deadline=None)
    @given(ops=ops_strategy, data=st.data())
    def test_any_commit_grouping_replays_to_same_digest(self, ops, data):
        live = fresh_engine()
        queue = [to_op(step) for step in ops]
        while queue:
            size = data.draw(
                st.integers(min_value=1, max_value=len(queue)), label="batch"
            )
            live.commit(queue[:size])
            queue = queue[size:]
        twin = fresh_engine()
        twin.replay(live.oplog)
        assert twin.state_digest() == live.state_digest()
        assert twin.oplog == live.oplog

    @settings(max_examples=25, deadline=None)
    @given(ops=ops_strategy)
    def test_one_element_commits_equal_apply(self, ops):
        committed, applied = fresh_engine(), fresh_engine()
        for step in ops:
            [result] = committed.commit([to_op(step)])
            assert result == applied.apply(to_op(step))
        assert committed.state_digest() == applied.state_digest()
        assert committed.oplog == applied.oplog

    @settings(max_examples=25, deadline=None)
    @given(ops=ops_strategy)
    def test_per_op_sequential_replay_matches(self, ops):
        live = fresh_engine()
        for step in ops:
            live.apply(to_op(step))
        twin = fresh_engine()
        twin.replay(live.oplog)
        assert twin.state_digest() == live.state_digest()
        assert twin.oplog == live.oplog


class TestLiveWireInterleaving:
    def test_concurrent_http_clients_equal_sequential_replay(self):
        """Racing POST/DELETE clients == sequential replay, byte for byte."""
        rng = random.Random(1234)
        client_scripts = []
        for c in range(8):
            script = []
            for i in range(12):
                name = f"c{c}-{rng.randrange(4)}"
                if rng.random() < 0.6:
                    script.append(
                        PlannedRequest(
                            at_s=0.0,
                            method="POST",
                            path="/v1/tasks",
                            body=json.dumps(
                                {
                                    "name": name,
                                    "rate": rng.choice(RATES),
                                    "period_ms": 5.0,
                                }
                            ).encode(),
                        )
                    )
                else:
                    script.append(
                        PlannedRequest(
                            at_s=0.0, method="DELETE", path=f"/v1/tasks/{name}"
                        )
                    )
            client_scripts.append(script)

        async def run_client(port, script):
            conn = _Connection("127.0.0.1", port)
            try:
                for planned in script:
                    status, _ = await conn.request(planned)
                    assert status < 500
                    await asyncio.sleep(0)  # maximize interleaving
            finally:
                conn.close()

        async def main():
            engine = fresh_engine()
            app = ServeApp(engine, port=0)
            await app.start()
            try:
                await asyncio.gather(
                    *(run_client(app.server.port, s) for s in client_scripts)
                )
                # Every mutation was answered, and a mutation is
                # answered only once its group has committed.
                # Snapshot before stop(): shutdown drains the cluster,
                # which is deliberately not an oplog mutation.
                return list(engine.oplog), engine.state_digest()
            finally:
                await app.stop()

        oplog, live_digest = asyncio.run(main())
        assert oplog, "the run must have recorded mutations"
        twin = fresh_engine()
        twin.replay(oplog)
        assert twin.state_digest() == live_digest
