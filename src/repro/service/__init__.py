"""Concurrent query serving: admission control, deadlines, caching,
circuit breaking and an HTTP front end.

See ``docs/SERVING.md`` for the request lifecycle and the degradation
ladder.  Quick start::

    from repro.service import QueryService, ServiceConfig, ServiceRequest

    service = QueryService(ServiceConfig(max_workers=4))
    service.register_dataset("university", engine, sqak=sqak)
    with service:
        response = service.serve(ServiceRequest(query="AVG Credit"))
        assert response.ok and response.http_status == 200
"""

from repro.service.breaker import CLOSED, HALF_OPEN, OPEN, CircuitBreaker
from repro.service.cache import ResultCache
from repro.service.config import ServiceConfig
from repro.service.http import ServiceHTTPServer, make_server
from repro.service.service import (
    QueryService,
    ServiceRequest,
    ServiceResponse,
    canonical_json,
)

__all__ = [
    "CLOSED",
    "CircuitBreaker",
    "HALF_OPEN",
    "OPEN",
    "QueryService",
    "ResultCache",
    "ServiceConfig",
    "ServiceHTTPServer",
    "ServiceRequest",
    "ServiceResponse",
    "canonical_json",
    "make_server",
]
