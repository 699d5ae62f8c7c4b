"""Closed-loop client and server lifecycle for ``serve_closed``.

Two keep-alive connections, one thread each; a connection sends its next
request only after the previous reply arrived (a control-plane caller
waits for admitted/denied before its next step).  Two, so the generator
never outnumbers the cores of a small box.  Every cycle is::

    POST /v1/tasks  ->  GET /v1/tasks/{name}  ->  DELETE /v1/tasks/{name}  ->  GET /v1/nodes

and every 50th cycle's task is a whale (rate 0.99) that must be denied.

The server is a child process (``serve_launcher.py``).  Its lifecycle is
defensive: the launcher announces its port, every socket operation has a
timeout, a connection that errors or times out stops sending and counts
everything it had left as failed, and the server is killed if it does
not exit after SIGTERM — a dead or hung server costs failed requests,
never a stalled run.
"""

from __future__ import annotations

import hashlib
import json
import os
import queue
import random
import signal
import socket
import subprocess
import sys
import threading
import time

CONNECTIONS = 2
WHALE_EVERY = 50
WHALE_RATE = 0.99
PERIOD_MS = 2.0
REQUESTS_PER_CYCLE = 4
NODES = 16

STARTUP_TIMEOUT_S = 30.0
REQUEST_TIMEOUT_S = 10.0
SHUTDOWN_TIMEOUT_S = 30.0

HERE = os.path.dirname(os.path.abspath(__file__))


class Connection:
    """One blocking keep-alive HTTP/1.1 connection."""

    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port), REQUEST_TIMEOUT_S)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._buffer = b""

    def request(self, method: str, path: str, body: bytes = b"") -> tuple[int, bytes]:
        head = (
            f"{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            f"Content-Length: {len(body)}\r\nContent-Type: application/json\r\n\r\n"
        )
        self.sock.sendall(head.encode("latin-1") + body)
        while b"\r\n\r\n" not in self._buffer:
            self._fill()
        head_bytes, _, rest = self._buffer.partition(b"\r\n\r\n")
        lines = head_bytes.decode("latin-1").split("\r\n")
        status = int(lines[0].split(" ", 2)[1])
        length = 0
        for line in lines[1:]:
            name, _, value = line.partition(":")
            if name.strip().lower() == "content-length":
                length = int(value.strip())
        while len(rest) < length:
            self._buffer = rest
            self._fill()
            rest = self._buffer
        self._buffer = rest[length:]
        return status, rest[:length]

    def _fill(self) -> None:
        chunk = self.sock.recv(65536)
        if not chunk:
            raise ConnectionError("server closed the connection")
        self._buffer += chunk

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass


def plan_cycles(seed: int, connection: int, cycles: int) -> list[dict]:
    """The inputs of one connection, all derived from the seed."""
    rng = random.Random(f"{seed}/{connection}")
    plan = []
    for cycle in range(cycles):
        whale = (cycle + 1) % WHALE_EVERY == 0
        name = f"c{connection}-{cycle:05d}-{rng.randrange(16 ** 6):06x}"
        rate = WHALE_RATE if whale else round(rng.uniform(1e-5, 4e-5), 8)
        spec = {"name": name, "period_ms": PERIOD_MS, "rate": rate}
        plan.append(
            {
                "name": name,
                "whale": whale,
                "body": json.dumps(spec, sort_keys=True).encode(),
            }
        )
    return plan


class _Worker(threading.Thread):
    """Drives one connection through its cycles, window by window."""

    def __init__(self, session: "ServeSession", index: int, plan: list[dict]) -> None:
        super().__init__(daemon=True, name=f"serve-conn-{index}")
        self.session = session
        self.plan = plan
        self.conn: Connection | None = None
        self.dead = False
        self.failed = 0
        self.failures: list[str] = []
        self.outcomes: dict[str, int] = {}
        #: Per window: wall seconds of write and of read requests.
        self.writes: list[list[float]] = [[] for _ in range(session.windows)]
        self.reads: list[list[float]] = [[] for _ in range(session.windows)]

    def _fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(message)

    def _tally(self, tag: str) -> None:
        self.outcomes[tag] = self.outcomes.get(tag, 0) + 1

    def _exchange(self, method: str, path: str, body: bytes, sink: list[float]):
        """One timed request; returns (status, decoded JSON) or None."""
        if self.dead:
            self.failed += 1
            return None
        clock = time.perf_counter
        start = clock()
        try:
            status, payload = self.conn.request(method, path, body)
        except (OSError, ValueError, IndexError) as exc:
            self.dead = True
            self._fail(f"{method} {path}: {type(exc).__name__}: {exc}")
            return None
        sink.append(clock() - start)
        if status >= 500:
            self._fail(f"{method} {path}: HTTP {status}")
            return None
        try:
            return status, json.loads(payload)
        except json.JSONDecodeError:
            self._fail(f"{method} {path}: reply is not JSON")
            return None

    def _cycle(self, item: dict, writes: list[float], reads: list[float]) -> None:
        name, whale = item["name"], item["whale"]
        expect = "denied" if whale else "admitted"
        reply = self._exchange("POST", "/v1/tasks", item["body"], writes)
        if reply is not None:
            outcome = reply[1].get("status")
            self._tally(f"post:{outcome}")
            if outcome != expect:
                self._fail(f"POST {name}: {outcome}, expected {expect}")
        reply = self._exchange("GET", f"/v1/tasks/{name}", b"", reads)
        if reply is not None:
            outcome = reply[1].get("status")
            self._tally(f"get:{outcome}")
            if reply[0] != 200 or outcome != expect:
                self._fail(f"GET {name}: {reply[0]} {outcome}, expected {expect}")
        expect = "denied" if whale else "removed"
        reply = self._exchange("DELETE", f"/v1/tasks/{name}", b"", writes)
        if reply is not None:
            outcome = reply[1].get("status")
            self._tally(f"delete:{outcome}")
            if outcome != expect:
                self._fail(f"DELETE {name}: {outcome}, expected {expect}")
        reply = self._exchange("GET", "/v1/nodes", b"", reads)
        if reply is not None:
            nodes = len(reply[1].get("nodes", ()))
            self._tally(f"nodes:{nodes}")
            if nodes != NODES:
                self._fail(f"GET /v1/nodes: {nodes} nodes, expected {NODES}")

    def run(self) -> None:
        session = self.session
        per_window = session.cycles_per_window
        try:
            for window in range(session.windows):
                session.barrier.wait()
                lo = window * per_window
                for item in self.plan[lo:lo + per_window]:
                    self._cycle(item, self.writes[window], self.reads[window])
                session.barrier.wait()
        except threading.BrokenBarrierError:
            pass  # the runner gave up on the window; finish() reports it


class ServeSession:
    """The server child, the two connections, and the window protocol."""

    def __init__(
        self, seed: int, windows: int, cycles_per_window: int, traced: bool = False
    ) -> None:
        self.seed = seed
        self.windows = windows
        self.cycles_per_window = cycles_per_window
        self.traced = traced
        self.barrier = threading.Barrier(CONNECTIONS + 1)
        self.process: subprocess.Popen | None = None
        self.workers: list[_Worker] = []
        self.reads: list[list[float]] = []
        self.client_cpu_s = 0.0
        self.window_wall_s = 0.0
        self._stdout: queue.Queue = queue.Queue()
        self._stderr: list[str] = []
        self._readers: list[threading.Thread] = []

    # -- server lifecycle ----------------------------------------------------

    def start(self) -> None:
        command = [sys.executable, os.path.join(HERE, "serve_launcher.py"),
                   str(self.seed)]
        if self.traced:
            command.append("--traced")
        self.process = subprocess.Popen(
            command,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        for stream, sink in (
            (self.process.stdout, self._stdout.put),
            (self.process.stderr, self._stderr.append),
        ):
            reader = threading.Thread(
                target=self._pump, args=(stream, sink), daemon=True
            )
            reader.start()
            self._readers.append(reader)
        try:
            line = self._stdout.get(timeout=STARTUP_TIMEOUT_S)
            port = json.loads(line)["port"]
        except (queue.Empty, ValueError, KeyError, TypeError):
            self.close()
            raise RuntimeError(
                "serve launcher did not announce a port; stderr:\n"
                + "".join(self._stderr[-20:])
            ) from None
        cycles = self.windows * self.cycles_per_window
        for index in range(CONNECTIONS):
            worker = _Worker(self, index, plan_cycles(self.seed, index, cycles))
            worker.conn = Connection(port)
            self.workers.append(worker)
        self._control = Connection(port)
        for worker in self.workers:
            worker.start()

    @staticmethod
    def _pump(stream, sink) -> None:
        for line in stream:
            sink(line)
        sink(None)

    # -- the measured windows ------------------------------------------------

    def run_window(self, index: int, ops: list[float]) -> int:
        """Release both connections for one window; wait until both end."""
        cpu0, wall0 = time.process_time(), time.perf_counter()
        budget = REQUEST_TIMEOUT_S * 2 + self.cycles_per_window * 2.0
        try:
            self.barrier.wait(timeout=budget)
            self.barrier.wait(timeout=budget)
        except threading.BrokenBarrierError:
            raise RuntimeError(f"serve window {index} did not finish") from None
        self.client_cpu_s += time.process_time() - cpu0
        self.window_wall_s += time.perf_counter() - wall0
        done = 0
        reads: list[float] = []
        for worker in self.workers:
            ops.extend(worker.writes[index])
            reads.extend(worker.reads[index])
            done += len(worker.writes[index]) + len(worker.reads[index])
        self.reads.append(reads)
        return done

    # -- checks ----------------------------------------------------------------

    def finish(self) -> dict:
        cycles = self.windows * self.cycles_per_window
        whales = CONNECTIONS * (cycles // WHALE_EVERY)
        expected = {"admitted": CONNECTIONS * cycles - whales, "denied": whales}
        attempted = CONNECTIONS * cycles * REQUESTS_PER_CYCLE
        failed = 0
        failures: list[str] = []
        outcomes: dict[str, int] = {}
        for worker in self.workers:
            worker.join(timeout=REQUEST_TIMEOUT_S)
            failed += worker.failed
            failures.extend(worker.failures)
            for tag, count in worker.outcomes.items():
                outcomes[tag] = outcomes.get(tag, 0) + count
        stats: dict = {}
        scraped: dict = {}
        try:
            stats = json.loads(self._control.request("GET", "/v1/stats")[1])
            if self.traced:
                scraped = _scrape(self._control.request("GET", "/metrics")[1].decode())
        except (OSError, ValueError, IndexError) as exc:
            failed += 1
            failures.append(f"GET /v1/stats: {type(exc).__name__}: {exc}")
        for key, want in expected.items():
            if stats.get(key) != want:
                failed += 1
                failures.append(f"/v1/stats {key}={stats.get(key)}, expected {want}")
        server = self._shutdown()
        if not server:
            failed += 1
            failures.append(
                "server did not report on shutdown; stderr:\n"
                + "".join(self._stderr[-20:])
            )
        server.setdefault("counters", {}).update(scraped)
        return {
            "attempted": attempted,
            "failed": min(failed, attempted),
            "failures": failures,
            "delivered_qos": server.get("delivered_qos", 1.0),
            "sim_digest": self._digest(outcomes),
            "counts": dict(sorted(outcomes.items())),
            "server": server,
        }

    def client_cpu_share(self) -> float:
        """Generator CPU over wall, inside the windows only."""
        return self.client_cpu_s / self.window_wall_s if self.window_wall_s else 0.0

    def _digest(self, outcomes: dict[str, int]) -> str:
        """SHA-256 over the generated inputs and the outcome tallies."""
        digest = hashlib.sha256()
        for worker in self.workers:
            for item in worker.plan:
                digest.update(item["body"])
        digest.update(json.dumps(outcomes, sort_keys=True).encode())
        return digest.hexdigest()

    def _shutdown(self) -> dict:
        """Close our sockets, SIGTERM the server, wait for its report."""
        for worker in self.workers:
            if worker.conn is not None:
                worker.conn.close()
        self._control.close()
        process = self.process
        report: dict = {}
        if process is not None and process.poll() is None:
            process.send_signal(signal.SIGTERM)
            deadline = time.monotonic() + SHUTDOWN_TIMEOUT_S
            while True:
                try:
                    line = self._stdout.get(
                        timeout=max(0.0, deadline - time.monotonic())
                    )
                except queue.Empty:
                    break
                if line is None:  # stdout closed: the server is exiting
                    break
                try:
                    report = json.loads(line).get("final", report)
                except ValueError:
                    continue
            try:
                process.wait(timeout=max(0.1, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                pass  # close() kills it
        self.close()
        return report

    def close(self) -> None:
        """Make sure the server is gone and reaped; safe to call twice."""
        self.barrier.abort()
        process, self.process = self.process, None
        if process is None:
            return
        if process.poll() is None:
            process.kill()
        process.wait()
        process.stdin.close()
        for reader in self._readers:
            reader.join(timeout=5.0)


def _scrape(prom_text: str) -> dict[str, float]:
    """The numbers the server itself exports through /metrics."""
    values: dict[str, float] = {}
    for line in prom_text.splitlines():
        if line.startswith("#") or " " not in line:
            continue
        name, _, value = line.rpartition(" ")
        try:
            values[name] = float(value)
        except ValueError:
            continue
    count = values.get("repro_http_commit_batch_size_count", 0.0)
    return {
        "serve.app.commit_batch_mean": values.get("repro_http_commit_batch_size_sum", 0.0)
        / count
        if count
        else 0.0,
        "serve.app.backpressure_429": values.get("repro_http_backpressure_total", 0.0),
        "serve.engine.ops": values.get("repro_http_commit_batch_size_sum", 0.0),
    }
