"""``python -m repro serve`` — run the query service over HTTP.

Builds the requested built-in datasets (semantic engine plus SQAK
baseline each), wraps them in a :class:`~repro.service.service.QueryService`
and serves them with the stdlib HTTP front end::

    python -m repro serve --port 8080
    python -m repro serve --port 8080 --datasets university,tpch
    python -m repro serve --port 0 --workers 8 --queue-limit 32

``--port 0`` binds a free port (printed on startup), which is what the
smoke script and the CI job use.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.service.config import ServiceConfig
from repro.service.http import make_server
from repro.service.service import QueryService

__all__ = ["build_service", "run_serve"]


def build_serve_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description="Serve keyword search over HTTP (stdlib only)",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port", type=int, default=8080, help="0 binds a free port"
    )
    parser.add_argument(
        "--datasets",
        default="university",
        help="comma-separated built-in datasets to serve (default: university)",
    )
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--queue-limit", type=int, default=16)
    parser.add_argument(
        "--deadline-ms",
        type=float,
        default=5000.0,
        help="default per-request deadline; 0 disables",
    )
    parser.add_argument(
        "--cache-ttl",
        type=float,
        default=30.0,
        help="result-cache TTL in seconds; 0 disables caching",
    )
    parser.add_argument(
        "--k", type=int, default=3, help="default interpretations per query"
    )
    return parser


def build_service(
    dataset_names: List[str],
    config: ServiceConfig,
) -> QueryService:
    """A service with one semantic engine + SQAK baseline per dataset."""
    from repro.baselines import SqakEngine
    from repro.cli import load_dataset
    from repro.engine import KeywordSearchEngine

    service = QueryService(config)
    for name in dataset_names:
        database, fds, name_hints, extra_joins = load_dataset(name)
        engine = KeywordSearchEngine(
            database, fds=fds or None, name_hints=name_hints or None
        )
        sqak = SqakEngine(database, extra_joins=extra_joins)
        service.register_dataset(name, engine, sqak=sqak)
    return service


def run_serve(argv: Optional[List[str]] = None, out=None) -> int:
    out = out or sys.stdout
    args = build_serve_parser().parse_args(argv)
    names = [name.strip() for name in args.datasets.split(",") if name.strip()]
    if not names:
        print("error: no datasets requested", file=out)
        return 2
    config = ServiceConfig(
        max_workers=args.workers,
        queue_limit=args.queue_limit,
        default_deadline_s=(
            args.deadline_ms / 1000.0 if args.deadline_ms > 0 else None
        ),
        default_k=args.k,
        cache_ttl_s=args.cache_ttl,
    )
    print(f"loading datasets: {', '.join(names)}", file=out)
    service = build_service(names, config)
    server = make_server(service, host=args.host, port=args.port)
    host, port = server.server_address[:2]
    with service:
        print(
            f"serving on http://{host}:{port} "
            f"({config.max_workers} workers, queue {config.queue_limit})",
            file=out,
        )
        try:
            server.serve_forever()
        except KeyboardInterrupt:
            print("shutting down", file=out)
        finally:
            # drain in-flight requests before the service stops: accepted
            # requests get their responses, new connections are refused
            stragglers = server.stop()
            for name in stragglers:
                print(f"abandoning stuck request thread {name}", file=out)
    return 0
