"""Server frontend: connections, multi-tenant governance, result cache.

The reproduction's serving layer (DESIGN §3l). ``cluster.serve()``
attaches a :class:`ServerFrontend`; simulated clients then ``connect()``
to a tenant and speak the simple (``Query``) or extended
(``Parse``/``Bind``/``Execute``) protocol from
:mod:`repro.server.protocol`. Admission across tenants is weighted-fair
(stride scheduling in :mod:`repro.workload.admission`), and repeat work is
answered from the snapshot-epoch result cache in
:mod:`repro.server.cache`.
"""

from repro.server.cache import EpochKeyedCache
from repro.server.frontend import (ClientConnection, PendingResult, Portal,
                                   PreparedStatement, ServerFrontend)
from repro.server.protocol import (Bind, CommandComplete, Execute, Parse,
                                   Query, ReadyForQuery, RowDescription,
                                   Terminate, encode, wire_size)

__all__ = [
    "Bind",
    "ClientConnection",
    "CommandComplete",
    "EpochKeyedCache",
    "Execute",
    "Parse",
    "PendingResult",
    "Portal",
    "PreparedStatement",
    "Query",
    "ReadyForQuery",
    "RowDescription",
    "ServerFrontend",
    "Terminate",
    "encode",
    "wire_size",
]
