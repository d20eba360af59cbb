"""vwload: VectorH's bulk CSV loader (paper section 7).

Supports the option set the paper lists: custom delimiters, loading a
subset of columns, custom date formats, skipping a bounded number of bad
rows with rejected tuples logged, and parallel loads from HDFS. Two
placement behaviours are modelled for the section-7 experiment:

* the standard utility reads the input files wherever they are (typically
  remote HDFS blocks);
* the locality-tuned variant assigns every file to a worker that holds a
  replica, so all reads short-circuit.
"""

from __future__ import annotations

import datetime
import time as _time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.common.errors import StorageError
from repro.common.types import date_to_days
from repro.storage.schema import TableSchema


@dataclass
class VwLoadOptions:
    """Loader options (a subset of the real vwload's flag zoo)."""

    delimiter: str = "|"
    date_format: str = "%Y-%m-%d"
    columns: Optional[Sequence[str]] = None  # subset to load, None = all
    max_errors: int = 0  # rows allowed to fail before aborting
    null_token: str = ""

    rejected: List[str] = field(default_factory=list)


def _parse_value(token: str, ctype, options: VwLoadOptions):
    if ctype.name in ("int32", "int64"):
        return int(token)
    if ctype.name == "date":
        if options.date_format == "%Y-%m-%d":
            return date_to_days(token)
        return (datetime.datetime.strptime(token, options.date_format).date()
                - datetime.date(1970, 1, 1)).days
    if ctype.name == "bool":
        return token in ("1", "true", "t")
    return token if ctype.is_string else float(token)


def parse_csv_bytes(data: bytes, schema: TableSchema,
                    options: VwLoadOptions) -> Dict[str, np.ndarray]:
    """Parse delimited text into column arrays following the schema.

    Bad rows are rejected (and logged to ``options.rejected``) up to
    ``max_errors``, mirroring vwload's error-skipping behaviour.
    """
    wanted = list(options.columns) if options.columns \
        else schema.column_names
    positions = {name: i for i, name in enumerate(schema.column_names)}
    out: Dict[str, list] = {name: [] for name in wanted}
    errors = 0
    for line in data.decode("utf-8", errors="replace").splitlines():
        if not line.strip():
            continue
        tokens = line.split(options.delimiter)
        try:
            parsed = {}
            for name in wanted:
                token = tokens[positions[name]]
                parsed[name] = _parse_value(token, schema.ctype(name),
                                            options)
        except (ValueError, IndexError):
            errors += 1
            options.rejected.append(line)
            if errors > options.max_errors:
                raise StorageError(
                    f"vwload: more than {options.max_errors} bad rows"
                )
            continue
        for name, value in parsed.items():
            out[name].append(value)
    return {name: schema.ctype(name).engine_array(out[name])
            for name in wanted}


@dataclass
class VwLoadReport:
    rows_loaded: int
    elapsed: float
    bytes_local: int
    bytes_remote: int
    rejected_rows: int

    def simulated_seconds(self, workers: int,
                          remote_penalty: float = 3e-8) -> float:
        return self.elapsed / workers + self.bytes_remote * remote_penalty


def vwload(cluster, table: str, csv_paths: Sequence[str],
           options: Optional[VwLoadOptions] = None,
           prefer_local: bool = False) -> VwLoadReport:
    """Bulk-load CSV files from HDFS into a VectorH table.

    ``prefer_local=False`` is the stock utility: file *i* is parsed by
    worker ``i % N`` regardless of placement (typically remote reads).
    ``prefer_local=True`` is the tuned run from the paper: each file is
    parsed by a worker holding a replica of it.
    """
    options = options or VwLoadOptions()
    hdfs = cluster.hdfs
    workers = cluster.workers
    stored = cluster.tables[table]
    bytes_local = bytes_remote = 0
    pieces: List[Dict[str, np.ndarray]] = []
    start = _time.perf_counter()
    for i, path in enumerate(csv_paths):
        if prefer_local:
            holders = [w for w in hdfs.replica_locations(path)
                       if w in workers]
            reader = holders[0] if holders else workers[i % len(workers)]
        else:
            reader = workers[i % len(workers)]
        data = hdfs.read(path, reader=reader)
        if reader in hdfs.replica_locations(path):
            bytes_local += len(data)
        else:
            bytes_remote += len(data)
        pieces.append(parse_csv_bytes(data, stored.schema, options))
    merged = {
        name: np.concatenate([p[name] for p in pieces])
        for name in pieces[0]
    } if pieces else {}
    rows = len(next(iter(merged.values()))) if merged else 0
    if rows:
        cluster.bulk_load(table, merged)
    elapsed = _time.perf_counter() - start
    return VwLoadReport(
        rows_loaded=rows,
        elapsed=elapsed,
        bytes_local=bytes_local,
        bytes_remote=bytes_remote,
        rejected_rows=len(options.rejected),
    )
