"""Minimal RDD model: partitions, preferred locations, narrow dependencies."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from repro.hdfs.cluster import HdfsCluster


@dataclass
class RddPartition:
    """One RDD partition: a byte range of an HDFS file (one block)."""

    index: int
    path: str
    offset: int
    length: int
    preferred_locations: List[str] = field(default_factory=list)


class InputRdd:
    """An RDD over HDFS files, one partition per HDFS block.

    Spark(SQL) creates one partition per input block; each partition's
    preferred locations are the datanodes holding that block's replicas.
    """

    def __init__(self, hdfs: HdfsCluster, paths: Sequence[str]):
        self.hdfs = hdfs
        self.partitions: List[RddPartition] = []
        block_size = hdfs.config.hdfs_block_size
        index = 0
        for path in paths:
            size = hdfs.file_size(path)
            holders = hdfs.replica_locations(path)
            offset = 0
            while offset < size or (size == 0 and offset == 0):
                length = min(block_size, size - offset)
                self.partitions.append(RddPartition(
                    index, path, offset, max(length, 0), list(holders)
                ))
                index += 1
                offset += block_size
                if size == 0:
                    break


class VectorHRdd:
    """The connector's RDD: exactly one partition per ExternalScan operator.

    ``get_preferred_locations`` reports the host of the corresponding
    operator, which is how the connector instructs Spark's scheduler to
    produce local Spark->VectorH transfers.
    """

    def __init__(self, operator_hosts: Sequence[str]):
        self.operator_hosts = list(operator_hosts)
        #: narrow dependency: input partition index -> VectorHRdd partition
        self.dependency: Dict[int, int] = {}

    def get_preferred_locations(self, partition: int) -> List[str]:
        return [self.operator_hosts[partition]]

    def set_dependency(self, mapping: Dict[int, int]) -> None:
        self.dependency = dict(mapping)
