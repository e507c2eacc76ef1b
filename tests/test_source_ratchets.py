"""Ratchets on the package source: counts that may fall but never rise."""

import pathlib

import mgcm

# lower this as caches move onto owners; never raise it
MAX_LRU_CACHES = 10


def test_no_more_than_ten_lru_caches():
    # a new cache belongs on an owner (a basis, a ring), not at module level
    src = pathlib.Path(mgcm.__file__).parent
    n = sum(path.read_text(encoding="utf-8").count("@lru_cache") for path in src.rglob("*.py"))
    assert n <= MAX_LRU_CACHES, f"{n} @lru_cache decorators in {src}"
