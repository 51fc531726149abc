#!/usr/bin/env python
"""Service smoke check: boot the HTTP service in-process and hit it.

Starts the university dataset on a free port, exercises ``/healthz``,
``/search`` (semantic + SQAK), ``/analyze`` and ``/metrics`` over real
sockets, verifies the counters reconcile, and shuts down cleanly.
With ``--workers N`` the service runs in pool mode (N engine-owning
worker processes behind the thread tier); the same assertions must hold
— responses are byte-identical whatever tier served them — plus the
``/workers`` endpoint and the per-worker ``/metrics`` breakdown.
Exit code 0 on success; any failure raises.  Used by the CI ``smoke``
jobs and runnable locally::

    PYTHONPATH=src python tools/service_smoke.py
    PYTHONPATH=src python tools/service_smoke.py --workers 4
"""

from __future__ import annotations

import argparse
import json
import sys
import urllib.error
import urllib.request
from pathlib import Path
from urllib.parse import quote

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.service import ServiceConfig, make_server  # noqa: E402
from repro.service.cli import build_service  # noqa: E402


def fetch(base: str, path: str):
    try:
        with urllib.request.urlopen(base + path, timeout=60.0) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workers",
        type=int,
        default=0,
        help="worker processes (0: in-process serving, the default)",
    )
    args = parser.parse_args(argv)
    service = build_service(
        ["university"],
        ServiceConfig(
            max_workers=2, cache_ttl_s=30.0, worker_processes=args.workers
        ),
    )
    server = make_server(service, port=0)
    host, port = server.server_address[:2]
    base = f"http://{host}:{port}"
    thread = server.serve_background()
    with service:
        status, health = fetch(base, "/healthz")
        assert status == 200 and health["status"] == "ok", health
        assert health["datasets"] == ["university"], health
        assert health["worker_processes"] == args.workers, health
        if args.workers:
            assert health["pool"]["alive"] == args.workers, health

        status, body = fetch(base, "/search?q=" + quote("AVG Credit"))
        assert status == 200, body
        assert body["best"]["rows"] == [[4.0]], body

        # a repeat must be served from the result cache, byte-identical
        status, repeat = fetch(base, "/search?q=" + quote("AVG Credit"))
        assert status == 200 and repeat == body, repeat

        status, sqak = fetch(
            base, "/search?q=" + quote("COUNT Student GROUPBY Course")
            + "&engine=sqak"
        )
        assert status == 200 and sqak["engine"] == "sqak", sqak

        status, analysis = fetch(base, "/analyze?q=" + quote("AVG Credit"))
        assert status == 200 and analysis["diagnostics"] == [], analysis

        status, metrics = fetch(base, "/metrics")
        assert status == 200, metrics
        counters = metrics["service"]["counters"]
        assert counters["requests_submitted"] == 4, counters
        assert counters["requests_ok"] == 4, counters
        assert counters["requests_admitted"] == (
            counters.get("result_cache_hits", 0)
            + counters.get("result_cache_misses", 0)
            + counters.get("singleflight_coalesced", 0)
        ), counters
        assert counters.get("result_cache_hits", 0) >= 1, counters
        assert metrics["breakers"]["university"]["state"] == "closed", metrics

        status, workers = fetch(base, "/workers")
        if args.workers:
            # the pool served every cache miss; the per-worker request
            # counts must sum to exactly the front end's miss count
            assert status == 200, workers
            per_worker = workers["workers"]
            assert len(per_worker) == args.workers, per_worker
            served = sum(
                entry["counters"]["requests"] for entry in per_worker.values()
            )
            assert served == counters.get("result_cache_misses", 0), workers
            assert metrics["workers"]["pool"]["dispatches"] == served, metrics
            # a worker runs what a service thread runs and keeps nothing of
            # its own: a cache growing back in there would add a counter
            for entry in per_worker.values():
                assert set(entry["counters"]) == {"requests", "cache_clears"}, entry
        else:
            assert status == 404, workers

        server.shutdown()
    server.server_close()
    thread.join(5.0)
    mode = f"{args.workers} worker processes" if args.workers else "in-process"
    print(f"service smoke ok ({base}, {mode}): {counters}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
