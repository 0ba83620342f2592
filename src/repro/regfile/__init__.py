"""Register storage hierarchies: caches, files, and policies."""

from repro.regfile.backing import BackingFile
from repro.regfile.indexing import (
    INDEX_POLICIES,
    FilteredRoundRobinIndexing,
    IndexPolicy,
    MinimumIndexing,
    RoundRobinIndexing,
    StandardIndexing,
    make_index_policy,
)
from repro.regfile.insertion import (
    INSERTION_POLICIES,
    AlwaysInsert,
    InsertionPolicy,
    NonBypassInsert,
    UseBasedInsert,
    make_insertion_policy,
)
from repro.regfile.physical import PhysicalRegisterFile
from repro.regfile.register_cache import (
    MISS_CAPACITY,
    MISS_COLD,
    MISS_CONFLICT,
    MISS_FILTERED,
    CacheEntry,
    CacheStats,
    RegisterCache,
)
from repro.regfile.replacement import (
    REPLACEMENT_POLICIES,
    LRUReplacement,
    ReplacementPolicy,
    UseBasedReplacement,
    make_replacement_policy,
)
from repro.regfile.two_level import TwoLevelRegisterFile

__all__ = [
    "AlwaysInsert",
    "BackingFile",
    "CacheEntry",
    "CacheStats",
    "FilteredRoundRobinIndexing",
    "INDEX_POLICIES",
    "INSERTION_POLICIES",
    "IndexPolicy",
    "InsertionPolicy",
    "LRUReplacement",
    "MISS_CAPACITY",
    "MISS_COLD",
    "MISS_CONFLICT",
    "MISS_FILTERED",
    "MinimumIndexing",
    "NonBypassInsert",
    "PhysicalRegisterFile",
    "REPLACEMENT_POLICIES",
    "RegisterCache",
    "ReplacementPolicy",
    "RoundRobinIndexing",
    "StandardIndexing",
    "TwoLevelRegisterFile",
    "UseBasedInsert",
    "UseBasedReplacement",
    "make_index_policy",
    "make_insertion_policy",
    "make_replacement_policy",
]
