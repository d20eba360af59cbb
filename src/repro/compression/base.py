"""Scheme registry, block container and the shared patching machinery.

The "Patched" family (PFOR, PFOR-DELTA, PDICT) shares one trick: values are
stored as thin fixed-bitwidth codes; values that do not fit are *exceptions*
stored uncompressed later in the block, and the code slot of each exception
holds the hop distance to the next exception. Decoding first inflates all
codes branch-free, then walks the chain once to collect the (typically few)
exception positions and patches them with one scatter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.common.errors import CompressionError
from repro.common.types import ColumnType
from repro.engine.profile import kernel


@dataclass
class CompressedBlock:
    """One compressed column block.

    ``data`` is the scheme-specific serialized payload; ``size_bytes`` is the
    on-disk footprint used by storage and by the Figure-1c size benchmark.
    """

    scheme: str
    count: int
    data: bytes
    ctype_name: str = ""

    @property
    def size_bytes(self) -> int:
        # 1 byte scheme id + 4 bytes count + payload, mirroring a real header.
        return 5 + len(self.data)


class CompressionScheme:
    """Interface implemented by every compression scheme."""

    name: str = "abstract"

    def can_compress(self, values: np.ndarray, ctype: ColumnType) -> bool:
        raise NotImplementedError

    def compress(self, values: np.ndarray, ctype: ColumnType) -> CompressedBlock:
        raise NotImplementedError

    def decompress(self, block: CompressedBlock, ctype: ColumnType) -> np.ndarray:
        raise NotImplementedError


# --------------------------------------------------------------------------
# Patch chains (shared by PFOR / PFOR-DELTA / PDICT)
# --------------------------------------------------------------------------

def build_patch_chain(is_exception: np.ndarray, width: int) -> List[int]:
    """Return exception positions, inserting compulsory exceptions.

    The gap between consecutive exceptions must fit in ``width`` bits, since
    the gap is stored in the code slot. Where the natural gap is too large a
    "compulsory" exception is inserted (a value that would have fit but is
    stored as an exception anyway) -- the classic PFOR trick.
    """
    max_gap = (1 << width) - 1
    natural = np.flatnonzero(is_exception)
    if natural.size == 0:
        return []
    chain: List[int] = [int(natural[0])]
    for pos in natural[1:]:
        pos = int(pos)
        while pos - chain[-1] > max_gap:
            chain.append(chain[-1] + max_gap)
        chain.append(pos)
    return chain


def encode_patched(
    codes: np.ndarray,
    is_exception: np.ndarray,
    width: int,
) -> Tuple[np.ndarray, List[int], int]:
    """Overwrite exception code slots with next-exception gaps.

    Returns ``(codes, chain_positions, first_exception)`` where codes is a
    copy with the gap links written in. ``first_exception`` is -1 when the
    block has no exceptions.
    """
    chain = build_patch_chain(is_exception, width)
    out = codes.copy()
    for i, pos in enumerate(chain):
        gap = chain[i + 1] - pos if i + 1 < len(chain) else 0
        out[pos] = gap
    first = chain[0] if chain else -1
    return out, chain, first


def patch_positions(codes: np.ndarray, first_exception: int,
                    n_exceptions: int) -> np.ndarray:
    """Walk the exception chain once; returns every exception's position.

    ``codes`` must still hold the gap links, i.e. call this on the freshly
    unpacked codes. The values are then patched with one bulk scatter.
    """
    positions = np.empty(n_exceptions, dtype=np.intp)
    pos = first_exception
    for i in range(n_exceptions):
        positions[i] = pos
        pos += codes.item(pos)
    return positions


# --------------------------------------------------------------------------
# Registry and convenience entry points
# --------------------------------------------------------------------------

SCHEMES: Dict[str, CompressionScheme] = {}


def register_scheme(scheme: CompressionScheme) -> CompressionScheme:
    SCHEMES[scheme.name] = scheme
    return scheme


#: A dictionary scheme that achieves at least this ratio over raw counts as
#: "dictionary-compressible"; only otherwise is the expensive-to-decode
#: general-purpose codec considered. This is VectorH's policy: lightweight
#: schemes everywhere, LZ only for non-dictionary-compressible strings
#: (paper sections 2 and 8).
DICT_COMPRESSIBLE_RATIO = 0.5


def compress_best(values: np.ndarray, ctype: ColumnType) -> CompressedBlock:
    """Compress with every applicable scheme and keep the best result.

    Mirrors Vectorwise's per-block automatic scheme selection: smallest
    block wins, except that general-purpose compression (slow branchy
    decode) is excluded whenever a lightweight scheme already achieves
    real compression.
    """
    values = np.asarray(values)
    candidates: Dict[str, CompressedBlock] = {}
    for scheme in SCHEMES.values():
        if not scheme.can_compress(values, ctype):
            continue
        try:
            candidates[scheme.name] = scheme.compress(values, ctype)
        except CompressionError:
            continue
    if not candidates:
        raise CompressionError(f"no scheme can compress column type {ctype}")
    raw = candidates.get("RAW")
    lightweight_best = min(
        (b for n, b in candidates.items() if n not in ("RAW", "LZ")),
        key=lambda b: b.size_bytes, default=None,
    )
    if (raw is not None and lightweight_best is not None
            and lightweight_best.size_bytes
            < DICT_COMPRESSIBLE_RATIO * raw.size_bytes):
        candidates.pop("LZ", None)
    best = min(candidates.values(), key=lambda b: b.size_bytes)
    best.ctype_name = ctype.name
    return best


def decompress(block: CompressedBlock, ctype: ColumnType) -> np.ndarray:
    """Decompress a block with the scheme that produced it."""
    scheme = SCHEMES.get(block.scheme)
    if scheme is None:
        raise CompressionError(f"unknown scheme {block.scheme!r}")
    # attributes to whichever operator is currently executing (usually a
    # scan), nesting under its scan.read_block kernel
    with kernel(f"decode.{block.scheme.lower()}",
                rows=block.count, nbytes=len(block.data)):
        return scheme.decompress(block, ctype)
