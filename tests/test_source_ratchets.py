"""Ratchets on the package source: counts that may fall but never rise."""

import pathlib

import mgcm

# lower these as caches move onto owners or get a bound; never raise them
MAX_LRU_CACHES = 10
MAX_UNBOUNDED_CACHES = 3


def _source_count(needle):
    src = pathlib.Path(mgcm.__file__).parent
    return sum(path.read_text(encoding="utf-8").count(needle) for path in src.rglob("*.py"))


def test_no_more_than_ten_lru_caches():
    # a new cache belongs on an owner (a basis, a ring), not at module level
    n = _source_count("@lru_cache")
    assert n <= MAX_LRU_CACHES, f"{n} @lru_cache decorators in src/mgcm"


def test_no_more_than_three_unbounded_caches():
    # an unbounded cache grows for the life of the process; a cache of bases
    # takes groebner_engine.BASIS_CACHE_SIZE
    n = _source_count("maxsize=None")
    assert n <= MAX_UNBOUNDED_CACHES, f"{n} caches with maxsize=None in src/mgcm"
