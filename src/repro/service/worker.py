"""The remote simulator worker daemon (stdlib-only).

A :class:`WorkerServer` is the host-side half of the streaming remote
engine (:class:`~repro.engine.remote.RemoteEngine`): a small
``ThreadingHTTPServer`` — the same shape as the optimization service's
:mod:`~repro.service.server` — that holds problems warm and evaluates
chunk requests with the local fused serial path
(:func:`~repro.engine.base.evaluate_pending`).

==========  ====================  ==========================================
verb        path                  meaning
==========  ====================  ==========================================
``GET``     ``/v1/health``        liveness + loaded problems + chunk/cache
                                  counters
``POST``    ``/v1/problems``      install a pickled problem (idempotent)
``POST``    ``/v1/evaluate``      evaluate one chunk; 409 if the problem
                                  token is unknown (parent re-installs)
==========  ====================  ==========================================

Workers are *pure*: they receive ``(designs, samples)`` chunks and return
performance rows.  All RNG streams, screener state, ledger accounting and
the warm-start cache partition stay in the parent, so a worker never has
to be consistent with anything — a crashed worker is replaced by
re-dispatching its in-flight chunks, bit-identically.

Worker-side evaluation cache
----------------------------
Each daemon keeps its own sample-keyed
:class:`~repro.engine.cache.LRUEvaluationCache` (on by default; disable
with ``repro worker --no-cache``): a re-dispatched chunk, a replayed
round from a parent running without its own cache, or a ladder rung
re-covering rows a cheaper rung already simulated is served from worker
memory instead of the simulator.  This is pure wall-clock — the rows a
hit returns are the rows the simulator would produce, ledger accounting
happens in the parent, and the parent-side warm cache (which sees hits
*before* dispatch) composes with it unchanged.  Hit counts ride back on
every ``/v1/evaluate`` response (``cache_hit_rows``) so the engine can
fold them into ``MOHECOResult.engine_decision``.

Problems arrive pickled (the ``_init_worker`` pattern of the process
pool, over HTTP): run workers only for parents you trust, exactly as you
would a ``multiprocessing`` pool.

Start one with ``repro worker --port 9101``, optionally self-registering
with a running service via ``--register http://service-host:8032``.
"""

from __future__ import annotations

import json
import logging
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.engine.base import evaluate_pending, evaluate_round
from repro.engine.cache import EvaluationCache, LRUEvaluationCache
from repro.engine.wire import ChunkRequest, decode_problem, encode_array

__all__ = ["WorkerServer", "serve_worker"]

log = logging.getLogger("repro.worker")


class WorkerServer(ThreadingHTTPServer):
    """HTTP simulator worker: problem store + chunk evaluator.

    Parameters
    ----------
    address:
        ``(host, port)`` to bind; port ``0`` picks an ephemeral port (read
        it back from :attr:`url`).
    fail_after:
        Fault-injection knob for tests and failure drills: after this many
        successfully evaluated chunks the worker answers 503 to every
        further evaluate call — a deterministic stand-in for a worker
        dying mid-round.  ``None`` (default) never fails.
    cache:
        Worker-side evaluation cache shared by every handler thread
        (:class:`~repro.engine.cache.LRUEvaluationCache` is
        thread-safe); ``None`` disables caching.  Hits skip the simulator
        but return identical rows, so caching never changes what a parent
        receives.
    """

    daemon_threads = True

    def __init__(
        self,
        address,
        fail_after: int | None = None,
        cache: EvaluationCache | None = None,
    ) -> None:
        #: token -> warm problem instance.
        self.problems: dict[str, object] = {}
        #: Chunks evaluated since start (monotonic; health reports it).
        self.chunks_served = 0
        self.rows_served = 0
        #: Rows served from the worker cache instead of the simulator.
        self.cache_hit_rows = 0
        self.fail_after = fail_after
        self.cache = cache
        self._lock = threading.Lock()
        super().__init__(address, _WorkerHandler)

    @property
    def url(self) -> str:
        """Base URL parents should dispatch to."""
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def close(self) -> None:
        """Stop serving; idempotent."""
        self.shutdown()
        self.server_close()
        if self.cache is not None:
            self.cache.close()

    # -- request bodies (called from handler threads) ----------------------
    def install_problem(self, payload: dict) -> str:
        """Store one pickled problem; returns its token (idempotent)."""
        token, problem = decode_problem(payload)
        with self._lock:
            self.problems[token] = problem
        return token

    def evaluate_chunk(self, chunk: ChunkRequest):
        """Evaluate one chunk with the fused serial path.

        Returns ``(performance rows, cache-hit row count)``, or ``None``
        when the chunk's problem token is not installed (the handler
        answers 409 and the parent re-installs + retries).
        """
        with self._lock:
            problem = self.problems.get(chunk.problem_token)
        if problem is None:
            return None
        rows, hit_rows = evaluate_round(
            problem, chunk.to_pending(), self.cache, evaluate_pending
        )
        hit_rows = int(sum(hit_rows))
        with self._lock:
            self.chunks_served += 1
            self.rows_served += chunk.n_rows
            self.cache_hit_rows += hit_rows
        return rows, hit_rows

    def _should_fail(self) -> bool:
        with self._lock:
            return self.fail_after is not None and self.chunks_served >= self.fail_after


class _WorkerHandler(BaseHTTPRequestHandler):
    server_version = "repro-worker/1"
    # Connection-close framing, like the service: every urllib-level
    # client can talk to it without chunked transfer-encoding support.
    protocol_version = "HTTP/1.0"

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        log.debug("%s - %s", self.address_string(), format % args)

    def _send_json(self, code: int, payload: dict) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _json_body(self) -> dict | None:
        length = int(self.headers.get("Content-Length") or 0)
        raw = self.rfile.read(length) if length else b""
        try:
            payload = json.loads(raw.decode("utf-8") or "null")
        except (json.JSONDecodeError, UnicodeDecodeError) as error:
            self._send_json(400, {"error": "invalid_json", "reason": str(error)})
            return None
        if not isinstance(payload, dict):
            self._send_json(400, {"error": "invalid_json", "reason": "not an object"})
            return None
        return payload

    def do_GET(self) -> None:  # noqa: N802 - stdlib casing
        if self.path.split("?")[0] == "/v1/health":
            server: WorkerServer = self.server
            cache = server.cache
            self._send_json(
                200,
                {
                    "ok": True,
                    "role": "worker",
                    "problems": sorted(server.problems),
                    "chunks_served": server.chunks_served,
                    "rows_served": server.rows_served,
                    "cache_hit_rows": server.cache_hit_rows,
                    "cache": cache.stats.to_dict() if cache is not None else None,
                },
            )
            return
        self._send_json(404, {"error": "unknown_route", "path": self.path})

    def do_POST(self) -> None:  # noqa: N802 - stdlib casing
        if self.path == "/v1/problems":
            payload = self._json_body()
            if payload is None:
                return
            try:
                token = self.server.install_problem(payload)
            except Exception as error:  # noqa: BLE001 - wire boundary
                self._send_json(
                    400, {"error": "bad_problem", "reason": str(error)}
                )
                return
            self._send_json(200, {"ok": True, "token": token})
            return
        if self.path == "/v1/evaluate":
            if self.server._should_fail():
                # Fault injection: behave like a worker whose simulator
                # died — the parent marks it dead and re-dispatches.
                self._send_json(503, {"error": "worker_failed"})
                return
            payload = self._json_body()
            if payload is None:
                return
            try:
                chunk = ChunkRequest.from_dict(payload)
            except (KeyError, TypeError, ValueError) as error:
                self._send_json(400, {"error": "bad_chunk", "reason": str(error)})
                return
            outcome = self.server.evaluate_chunk(chunk)
            if outcome is None:
                self._send_json(
                    409,
                    {
                        "error": "problem_not_loaded",
                        "token": chunk.problem_token,
                    },
                )
                return
            rows, hit_rows = outcome
            self._send_json(
                200,
                {
                    "ok": True,
                    "rows": encode_array(rows),
                    "cache_hit_rows": hit_rows,
                },
            )
            return
        self._send_json(404, {"error": "unknown_route", "path": self.path})


def serve_worker(
    host: str = "127.0.0.1",
    port: int = 9101,
    *,
    fail_after: int | None = None,
    cache: bool = True,
    cache_bytes: int | None = 256 * 2**20,
) -> WorkerServer:
    """Build a ready-to-run :class:`WorkerServer` (does not block).

    The worker-side evaluation cache is on by default (``cache=False``
    disables it; ``cache_bytes`` sets its LRU byte budget).  Sample-level
    keying is used so partially overlapping chunks — different chunk
    boundaries, different OCBA allocations, ladder rungs re-covering
    cheap-rung rows — still replay every known row.

    Call ``serve_forever()`` on the result (the CLI's ``repro worker``
    does), or drive it from a background thread in tests.
    """
    worker_cache = (
        LRUEvaluationCache(max_bytes=cache_bytes, key="sample") if cache else None
    )
    return WorkerServer((host, port), fail_after=fail_after, cache=worker_cache)
