#!/usr/bin/env python
"""Service smoke check: boot the HTTP service in-process and hit it.

Starts the university dataset on a free port, exercises ``/healthz``,
``/search`` (semantic + SQAK), ``/analyze`` and ``/metrics`` over real
sockets, verifies the counters reconcile, and shuts down cleanly.
Exit code 0 on success; any failure raises.  Used by the CI ``smoke``
job and runnable locally::

    PYTHONPATH=src python tools/service_smoke.py
"""

from __future__ import annotations

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


def main() -> int:
    service = build_service(
        ["university"], ServiceConfig(max_workers=2, cache_ttl_s=30.0)
    )
    server = make_server(service, port=0)
    host, port = server.server_address[:2]
    base = f"http://{host}:{port}"
    thread = server.serve_background()
    with service:
        status, health = fetch(base, "/healthz")
        assert status == 200 and health["status"] == "ok", health
        assert health["datasets"] == ["university"], health

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
        assert counters["requests_submitted"] == (
            counters.get("requests_enqueued", 0)
            + counters.get("requests_shed", 0)
            + counters.get("requests_rejected_breaker", 0)
        ), counters
        assert counters["requests_admitted"] == (
            counters.get("result_cache_hits", 0)
            + counters.get("result_cache_misses", 0)
            + counters.get("singleflight_coalesced", 0)
        ), counters
        assert counters.get("result_cache_hits", 0) >= 1, counters
        assert metrics["breakers"]["university"]["state"] == "closed", metrics

        server.shutdown()
    server.server_close()
    thread.join(5.0)
    print(f"service smoke ok ({base}): {counters}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
