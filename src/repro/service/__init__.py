"""The service subsystem: protocol v2, jobs, the service facade, a client.

Layering (each layer only knows the one below it)::

    repro.gateway              HTTP front-end (asyncio, stdlib only)
    client.py                  Python client for it (urllib)
    service.py                 ZiggyService: sessions, batches, jobs
    jobs.py                    JobManager: thread pool + job lifecycle
    protocol.py                typed request/response messages (v2)
    ...                        repro.app.session / repro.core.pipeline

The legacy dict API (:class:`repro.app.api.ZiggyApi`) is a thin adapter
that translates v1 action dicts onto this subsystem.
"""

from repro.service.jobs import JOB_STATES, Job, JobManager
from repro.service.protocol import (
    DEFAULT_PAGE_SIZE,
    PROTOCOL_VERSION,
    ApiError,
    BatchRequest,
    BatchResponse,
    CharacterizeRequest,
    CharacterizeResponse,
    ConfigureRequest,
    ConfigureResponse,
    ErrorCode,
    JobControlRequest,
    JobEvent,
    JobSnapshot,
    JobSubmitRequest,
    StateReport,
    StateRequest,
    TableInfo,
    TableList,
    TablesRequest,
    ViewPage,
    ViewPageRequest,
    job_event_from_stage,
    json_safe,
    parse_request,
    parse_response,
)
from repro.service.service import ZiggyService

__all__ = [
    "PROTOCOL_VERSION",
    "DEFAULT_PAGE_SIZE",
    "ErrorCode",
    "ApiError",
    "CharacterizeRequest",
    "BatchRequest",
    "ViewPageRequest",
    "JobSubmitRequest",
    "JobControlRequest",
    "StateRequest",
    "StateReport",
    "TablesRequest",
    "ConfigureRequest",
    "CharacterizeResponse",
    "BatchResponse",
    "ViewPage",
    "JobSnapshot",
    "JobEvent",
    "job_event_from_stage",
    "TableInfo",
    "TableList",
    "ConfigureResponse",
    "json_safe",
    "parse_request",
    "parse_response",
    "Job",
    "JobManager",
    "JOB_STATES",
    "ZiggyService",
]
