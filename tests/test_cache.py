"""Correctness of the HMOS artifact cache (:mod:`repro.cache`).

The cache must be *transparent*: a cache-backed scheme has to be
indistinguishable from a freshly built one on every observable —
placement chains, copy locations, page keys, culling selections, full
protocol results, and differential-oracle verdicts.  It is a memo in
process memory: building schemes, in the parent or in sweep workers,
writes no file.
"""

import hashlib
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.bibd import BalancedSubgraph
from repro.cache import ArtifactCache, reset_default_cache
from repro.check.fuzz import run_fuzz
from repro.check.generate import random_cases
from repro.check.oracle import run_case
from repro.culling import cull
from repro.hmos.scheme import HMOS
from repro.parallel import parallel_map
from repro.protocol.access import AccessProtocol

CFG = dict(n=64, alpha=1.5, q=3, k=2)


@pytest.fixture()
def cache():
    return ArtifactCache()


def _full_grid(scheme):
    red = scheme.params.redundancy
    variables = np.arange(
        min(scheme.num_variables, scheme.params.n), dtype=np.int64
    )
    v = np.repeat(variables, red)
    p = np.tile(np.arange(red, dtype=np.int64), variables.size)
    return variables, v, p


def test_cached_scheme_matches_fresh(cache):
    for curve in ("morton", "hilbert"):
        cached = cache.scheme(curve=curve, **CFG)
        fresh = HMOS(CFG["n"], CFG["alpha"], CFG["q"], CFG["k"], curve=curve)
        variables, v, p = _full_grid(cached)
        np.testing.assert_array_equal(
            cached.placement.chains(v, p), fresh.placement.chains(v, p)
        )
        np.testing.assert_array_equal(
            cached.copy_nodes(v, p), fresh.copy_nodes(v, p)
        )
        for level in range(1, CFG["k"] + 1):
            np.testing.assert_array_equal(
                cached.page_keys(level, v, p), fresh.page_keys(level, v, p)
            )
        np.testing.assert_array_equal(
            cached.initial_target_masks(variables.size),
            fresh.initial_target_masks(variables.size),
        )
        a = cull(cached, variables)
        b = cull(fresh, variables)
        np.testing.assert_array_equal(a.selected, b.selected)
        assert a.iterations == b.iterations
        assert a.charged_steps == b.charged_steps


def test_cached_protocol_results_match_fresh(cache):
    cached = AccessProtocol(cache.scheme(**CFG), engine="model")
    fresh = AccessProtocol(
        HMOS(CFG["n"], CFG["alpha"], CFG["q"], CFG["k"]), engine="model"
    )
    rng = np.random.default_rng(2)
    variables = rng.choice(cached.scheme.num_variables, size=40, replace=False)
    values = rng.integers(0, 1000, size=40)
    w1 = cached.write(variables, values, timestamp=1)
    w2 = fresh.write(variables, values, timestamp=1)
    assert w1.stages == w2.stages
    np.testing.assert_array_equal(w1.culling.selected, w2.culling.selected)
    r1 = cached.read(variables)
    r2 = fresh.read(variables)
    np.testing.assert_array_equal(r1.values, r2.values)
    assert r1.culling.charged_steps == r2.culling.charged_steps


def test_oracle_verdicts_identical_on_cached_stack():
    """The differential oracle (cached cycle side vs arithmetic model
    side) accepts a sample campaign end to end: cached and uncached
    paths produce identical selections, stage metrics, and step counts
    on every case, or run_case would raise."""
    reset_default_cache()
    try:
        for case in random_cases(seed=3, count=8):
            run_case(case)
    finally:
        reset_default_cache()


def test_memory_and_disk_hit_accounting():
    first = ArtifactCache()
    first.scheme(**CFG)
    assert first.stats.builds > 0
    first.scheme(**CFG)
    assert first.stats.memory_hits >= 1

    second = ArtifactCache()  # instances share nothing: cold again
    second.scheme(**CFG)
    assert second.stats.memory_hits == 0
    assert second.stats.builds == first.stats.builds


def test_cached_instances_do_not_share_memory(cache):
    a = cache.scheme(**CFG)
    b = cache.scheme(**CFG)
    assert a.memory is not b.memory
    assert a.placement is b.placement  # immutable skeleton is shared
    pa = AccessProtocol(a, engine="model")
    pb = AccessProtocol(b, engine="model")
    variables = np.arange(10, dtype=np.int64)
    pa.write(variables, np.full(10, 7), timestamp=1)
    np.testing.assert_array_equal(pb.read(variables).values, np.zeros(10))
    np.testing.assert_array_equal(pa.read(variables).values, np.full(10, 7))


# sha256 of the (nbr, rank, outdeg) tables the cache materializes for the
# level graphs of perfbench's n = 4096 scheme and the serve scheme
# (n = 64).  These bytes are the BIBD incidence functions' output: a
# change here changes every copy's module.
TABLE_DIGESTS = {
    (3, 7, 796797): (
        "1d44de768590a68a3c645573705dec76942d30425a4bcfff7faf0ee13d594206",
        "bc5ca949d6ea2ef04e8599dfe40699365620adf99f74bb30e2ef544df48ee6a9",
        "98944a16b5e539d2087b5065a0df5ce75a36655f57f9c14212b6283b6966549c",
    ),
    (3, 5, 2187): (
        "417fc132e745cb314cb25f6151f52415d7e4df8608716af84687914b96b63399",
        "4ad8e3bf5b64d61130da175c0ff2b2c3a1d77489101b07560964049ff59b28f9",
        "09d3d5a2b6953b398f16a7b91294a2b4b8e599c470f40c11b59a8b502b5a6bd6",
    ),
    (3, 4, 1080): (
        "df79169fcd83d394ec812c7b4286b0c912caa95d517178db458283b8e5303a5d",
        "67c251e8035c73e9205e61ee93ea62b40975d3ec22ed48914584d346f5448473",
        "f8bf4d50d010896ad95130642e80b3807e779b4cd58f99e3abbb84325d0f7edc",
    ),
    (3, 3, 81): (
        "77d4a749d9f6a09b39289ed2c092bb1496e59c3c5d8d5668443b63c856f0bd5f",
        "7cfc0558f42288bb8ad0b4f1d2ba4021a3de0508aa7af9a5ab3a27e5d69204f8",
        "25e271c8c3b66835547636aaa9d50a18b4c649d37c7a16825b2fd93ec7a8a42b",
    ),
}


@pytest.mark.parametrize("q,d,m", sorted(TABLE_DIGESTS))
def test_subgraph_tables_match_version_1_artifacts(q, d, m):
    tables = BalancedSubgraph(q, d, m).tables()
    assert all(t.dtype == np.int64 and t.flags.c_contiguous for t in tables)
    digests = tuple(hashlib.sha256(t.tobytes()).hexdigest() for t in tables)
    assert digests == TABLE_DIGESTS[(q, d, m)]


def test_concurrent_readers_share_one_cache(cache):
    def build(_):
        scheme = cache.scheme(**CFG)
        variables = np.arange(25, dtype=np.int64)
        return cull(scheme, variables).selected

    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(build, range(8)))
    for selected in results[1:]:
        np.testing.assert_array_equal(selected, results[0])


def test_clear_and_persist_flag():
    cache = ArtifactCache()
    cache.scheme(**CFG)
    builds = cache.stats.builds
    assert builds > 0
    cache.clear()
    assert cache.stats.builds == builds  # counters survive a clear
    cache.scheme(**CFG)
    assert cache.stats.builds == 2 * builds  # the memo is empty again


def _build_small_scheme(_):
    return HMOS.cached(16, 1.5, 3, 1).num_variables


def test_builds_and_parallel_fuzz_write_no_files(tmp_path, monkeypatch):
    for var in ("REPRO_CACHE_DIR", "XDG_CACHE_HOME", "HOME"):
        monkeypatch.setenv(var, str(tmp_path / var.lower()))
    reset_default_cache()
    try:
        HMOS.cached(64, 1.5)
        report = run_fuzz(seed=0, cases=6, workers=2)
        assert report.ok, report.summary()
        # The campaign above is small enough to run inline; this map
        # forces pool workers that build schemes of their own.
        sizes = parallel_map(
            _build_small_scheme, range(4), workers=2, oversubscribe=True
        )
        assert len(set(sizes)) == 1
    finally:
        reset_default_cache()
    written = [p for p in tmp_path.rglob("*") if p.is_file()]
    assert written == []
