"""Tests for the TileDB, Algorithm 1 selection, rules, compiler and policies."""

import numpy as np
import pytest

from repro.core import (
    DenseMatmulKernel,
    PagedAttentionPolicy,
    PITCompiler,
    PlanCache,
    SeqLenPolicy,
    SparseMatmulKernel,
    TileDB,
    batch_matmul_multi_axis_rules,
    cached_kernel_selection,
    kernel_from_choice,
    kernel_selection,
    matmul_axes_for_operand,
    matmul_rules,
    sparsity_signature,
)
from repro.hw import V100, TileConfig


def granular_mask(shape, granularity, sparsity, seed=0):
    gh, gw = granularity
    rng = np.random.default_rng(seed)
    grid = rng.random((shape[0] // gh, shape[1] // gw)) >= sparsity
    return np.kron(grid, np.ones(granularity, dtype=bool))


@pytest.fixture(scope="module")
def tiledb():
    return TileDB(V100, "float32")


class TestTileDB:
    def test_nonempty(self, tiledb):
        assert len(tiledb) >= 10

    def test_tile_cost_affine(self, tiledb):
        entry = tiledb.tiles()[0]
        c1 = entry.tile_cost_us(entry.tile.tk)
        c2 = entry.tile_cost_us(2 * entry.tile.tk)
        c3 = entry.tile_cost_us(3 * entry.tile.tk)
        assert c2 - c1 == pytest.approx(c3 - c2, rel=1e-6)

    def test_best_dense_tile_prefers_large(self, tiledb):
        best = tiledb.best_dense_tile(4096, 4096, 4096)
        assert best.tile.output_elems >= 32 * 32

    def test_entry_lookup(self, tiledb):
        tile = tiledb.tiles()[0].tile
        assert tiledb.entry_for(tile).tile == tile
        with pytest.raises(KeyError):
            tiledb.entry_for(TileConfig(3, 3, 3))


class TestRules:
    def test_axes_for_operand(self):
        assert set(matmul_axes_for_operand("A")) == {"m", "k"}
        assert set(matmul_axes_for_operand("B")) == {"n", "k"}
        with pytest.raises(ValueError):
            matmul_axes_for_operand("C")

    def test_rules_cover_tiles_times_axes(self, tiledb):
        rules = matmul_rules(tiledb.tiles(), sparse_operand="A")
        assert len(rules) == 2 * len(tiledb)

    def test_rule_microtile_matches_axis(self, tiledb):
        for rule in matmul_rules(tiledb.tiles()[:4]):
            if rule.pit_axis == "m":
                assert rule.microtile.shape == (1, rule.tile.tk)
            else:
                assert rule.microtile.shape == (rule.tile.tm, 1)

    def test_multi_axis_rules(self, tiledb):
        rules = batch_matmul_multi_axis_rules(tiledb.tiles()[:3])
        axes = {r.axes for r in rules}
        assert axes == {("b", "m"), ("b", "n")}
        extents = {"b": 8, "m": 128, "n": 64}
        assert rules[0].flattened_extent(extents) == 8 * 128


class TestKernelSelection:
    def test_high_sparsity_picks_sparse(self, tiledb):
        mask = granular_mask((1024, 1024), (8, 1), 0.99, seed=0)
        choice = kernel_selection([mask], 1024, 1024, 1024, tiledb)
        assert not choice.is_dense_fallback
        assert choice.est_cost_us > 0
        assert choice.covered_sparsity > 0.5

    def test_dense_input_falls_back(self, tiledb):
        """Algorithm 1: at low sparsity PIT 'seamlessly falls back to the
        dense computation'."""
        mask = np.ones((512, 512), dtype=bool)
        choice = kernel_selection([mask], 512, 512, 512, tiledb)
        assert choice.is_dense_fallback

    def test_row_granular_prefers_m_axis(self, tiledb):
        """Whole zero rows (padding tokens) are best removed on the m-axis."""
        mask = np.zeros((1024, 1024), dtype=bool)
        rng = np.random.default_rng(1)
        rows = rng.choice(1024, size=100, replace=False)
        mask[rows] = True
        choice = kernel_selection([mask], 1024, 1024, 1024, tiledb)
        assert choice.pit_axis == "m"

    def test_column_granular_prefers_k_axis(self, tiledb):
        mask = np.zeros((1024, 1024), dtype=bool)
        rng = np.random.default_rng(2)
        cols = rng.choice(1024, size=100, replace=False)
        mask[:, cols] = True
        choice = kernel_selection([mask], 1024, 1024, 1024, tiledb)
        assert choice.pit_axis == "k"

    def test_multiple_samples_averaged(self, tiledb):
        masks = [granular_mask((512, 512), (8, 1), 0.95, seed=s) for s in range(3)]
        choice = kernel_selection(masks, 512, 512, 512, tiledb)
        assert choice.est_cost_us > 0

    def test_sample_shape_validated(self, tiledb):
        with pytest.raises(ValueError):
            kernel_selection([np.ones((4, 4), dtype=bool)], 512, 512, 512, tiledb)

    def test_needs_samples(self, tiledb):
        with pytest.raises(ValueError):
            kernel_selection([], 512, 512, 512, tiledb)

    def test_search_time_recorded(self, tiledb):
        mask = granular_mask((256, 256), (2, 1), 0.9, seed=3)
        choice = kernel_selection([mask], 256, 256, 256, tiledb)
        assert choice.search_time_us > 0


class TestFastpathEquivalence:
    """The pyramid/batched fast path must agree with the legacy per-sample
    loop: same winning rule, cost and covered sparsity equal to float
    tolerance — only the search time may differ."""

    def _assert_equivalent(self, fast, slow):
        assert fast.tile == slow.tile
        assert fast.pit_axis == slow.pit_axis
        assert fast.microtile == slow.microtile
        assert fast.est_cost_us == pytest.approx(slow.est_cost_us, rel=1e-9)
        assert fast.covered_sparsity == pytest.approx(
            slow.covered_sparsity, rel=1e-9, abs=1e-12
        )

    @pytest.mark.parametrize(
        "granularity,sparsity",
        [((1, 1), 0.99), ((8, 1), 0.95), ((1, 8), 0.9), ((4, 4), 0.8)],
    )
    def test_sparse_a(self, tiledb, granularity, sparsity):
        masks = [
            granular_mask((256, 512), granularity, sparsity, seed=s)
            for s in range(3)
        ]
        fast = kernel_selection(masks, 256, 512, 384, tiledb)
        slow = kernel_selection(masks, 256, 512, 384, tiledb, fastpath=False)
        self._assert_equivalent(fast, slow)

    def test_sparse_b(self, tiledb):
        masks = [granular_mask((512, 256), (1, 4), 0.95, seed=s)
                 for s in range(2)]
        fast = kernel_selection(
            masks, 128, 512, 256, tiledb, sparse_operand="B"
        )
        slow = kernel_selection(
            masks, 128, 512, 256, tiledb, sparse_operand="B", fastpath=False
        )
        self._assert_equivalent(fast, slow)

    def test_dense_fallback_agrees(self, tiledb):
        mask = np.ones((256, 256), dtype=bool)
        fast = kernel_selection([mask], 256, 256, 256, tiledb)
        slow = kernel_selection([mask], 256, 256, 256, tiledb, fastpath=False)
        assert fast.is_dense_fallback and slow.is_dense_fallback
        assert fast.tile == slow.tile

    def test_profile_hook_reports_per_rule_timing(self, tiledb):
        mask = granular_mask((256, 256), (8, 1), 0.95)
        profile = {}
        kernel_selection([mask], 256, 256, 256, tiledb, profile=profile)
        assert profile["fastpath"] is True
        assert profile["num_samples"] == 1
        assert profile["num_rules"] == len(profile["rules"]) == 2 * len(tiledb)
        assert all(r["eval_us"] >= 0 for r in profile["rules"])
        assert profile["total_us"] >= sum(r["eval_us"] for r in profile["rules"]) * 0.5
        # The winning candidate's mean cost is the reported est_cost unless
        # the dense fallback won.
        assert min(r["mean_cost_us"] for r in profile["rules"]) > 0


#: Seeded selection sweep: (operand, m, k, n, granularity, sparsity,
#: samples, seed).  A ``None`` granularity is an all-dense mask.
SELECTION_SWEEP = (
    ("A", 256, 512, 384, (1, 1), 0.99, 1, 0),
    ("A", 256, 512, 384, (8, 1), 0.95, 3, 10),
    ("A", 256, 512, 384, (8, 1), 0.97, 8, 20),
    ("A", 256, 512, 384, (1, 1), 0.99, 9, 30),
    ("A", 256, 512, 384, (1, 8), 0.97, 9, 30),
    ("B", 384, 512, 256, (1, 1), 0.99, 9, 40),
    ("B", 512, 512, 256, (1, 4), 0.99, 9, 40),
    ("A", 256, 256, 256, None, 0.0, 1, 0),
    ("nm", 128, 256, 128, (1, 1), 0.5, 3, 50),
)

#: ``(tile (tm, tk, tn), pit_axis, micro-tile shape, est_cost_us,
#: covered_sparsity)`` per sweep entry, captured at commit 2845d96 (before
#: the averaged and per-sample rule evaluators were merged).
PINNED_CHOICES = (
    ((32, 8, 128), "m", (1, 8), 13.738217076023393, 0.9208984375),
    ((32, 16, 128), "k", (32, 1), 14.212216296296296, 0.8157552083333334),
    ((32, 8, 128), "k", (32, 1), 13.730670877192985, 0.8804931640625),
    ((32, 8, 128), "m", (1, 8), 13.737810578297594, 0.9235500759548612),
    ((32, 8, 128), "m", (1, 8), 13.730717141000648, 0.9698215060763888),
    ((128, 8, 32), "n", (8, 1), 13.737826172839508, 0.9233194986979166),
    ((128, 8, 32), "k", (1, 32), 13.622597063027943, 0.7245008680555556),
    ((32, 64, 64), None, None, 10.347244444444446, 0.0),
    ((32, 64, 64), None, None, 8.162711111111111, 0.0),
)


def _sweep_choice(tiledb, operand, m, k, n, granularity, sparsity,
                  samples, seed):
    rows, cols = (m, k) if operand == "A" else (k, n)
    masks = [
        np.ones((rows, cols), dtype=bool) if granularity is None
        else granular_mask((rows, cols), granularity, sparsity, seed=seed + s)
        for s in range(samples)
    ]
    if operand == "nm":
        from repro.core import nm_kernel_selection

        return nm_kernel_selection(
            masks, m, k, n, tiledb, pattern=(2, 4)
        ).choice
    return kernel_selection(masks, m, k, n, tiledb, sparse_operand=operand)


class TestKernelChoicePinned:
    """Every ``KernelChoice`` on the sweep is bit-identical to the pinned
    values: the same winner and the same float bits in cost and coverage
    (the 8- and 9-sample entries catch a mean that sums pairwise)."""

    @pytest.mark.parametrize("case", range(len(SELECTION_SWEEP)))
    def test_bit_identical_to_pinned(self, tiledb, case):
        choice = _sweep_choice(tiledb, *SELECTION_SWEEP[case])
        tile = choice.tile
        assert (
            (tile.tm, tile.tk, tile.tn),
            choice.pit_axis,
            choice.microtile.shape if choice.microtile is not None else None,
            choice.est_cost_us,
            choice.covered_sparsity,
        ) == PINNED_CHOICES[case]


class TestSignatureSinglePass:
    def test_matches_three_pass_reference(self):
        """The fused per-sample reduction must reproduce the original
        three-scan statistics exactly — signatures key the PlanCache, so a
        drifting value would silently split cached plans."""
        rng = np.random.default_rng(17)
        for _ in range(10):
            s = rng.random((63, 41)) < rng.uniform(0.0, 0.5)
            q = 0.05
            qinv = 1.0 / q
            ref = (
                int(round(float(np.mean([s.mean()])) * qinv)),
                int(round(float(np.mean([s.any(axis=1).mean()])) * qinv)),
                int(round(float(np.mean([s.any(axis=0).mean()])) * qinv)),
            )
            assert sparsity_signature([s], quantum=q) == ref


class _NoRulesTileDB:
    """A tile database whose rule enumeration comes up empty — the shape of
    the regression: ``best`` stayed None and ``best.pit_axis`` crashed."""

    def __init__(self, real):
        self._real = real
        self.spec = real.spec
        self.dtype = real.dtype
        self.tensor_core = real.tensor_core
        self.cache_key = ("no-rules",) + real.cache_key

    def tiles(self):
        return []

    def best_dense_tile(self, m, k, n):
        return self._real.best_dense_tile(m, k, n)


class TestSelectionNoCandidates:
    def test_no_candidates_without_fallback_raises(self, tiledb):
        mask = granular_mask((128, 128), (8, 1), 0.9)
        with pytest.raises(ValueError, match="no feasible PIT rule"):
            kernel_selection(
                [mask], 128, 128, 128, _NoRulesTileDB(tiledb),
                include_dense_fallback=False,
            )

    def test_no_candidates_forces_dense_fallback(self, tiledb):
        mask = granular_mask((128, 128), (8, 1), 0.9)
        choice = kernel_selection([mask], 128, 128, 128, _NoRulesTileDB(tiledb))
        assert choice.is_dense_fallback
        assert choice.tile is not None
        assert choice.est_cost_us < float("inf")


class TestPlanCache:
    def test_hit_on_statistically_alike_masks(self, tiledb):
        """Two different masks with the same quantized signature share a
        plan: the second lookup must not re-run Algorithm 1."""
        cache = PlanCache()
        m1 = granular_mask((512, 512), (8, 1), 0.95, seed=0)
        m2 = granular_mask((512, 512), (8, 1), 0.95, seed=7)
        assert not np.array_equal(m1, m2)
        assert sparsity_signature([m1]) == sparsity_signature([m2])
        c1 = cached_kernel_selection([m1], 512, 512, 512, tiledb, cache=cache)
        c2 = cached_kernel_selection([m2], 512, 512, 512, tiledb, cache=cache)
        assert c1 is c2
        assert cache.hits == 1 and cache.misses == 1

    def test_miss_on_sparsity_drift(self, tiledb):
        """Density drifting past the quantization threshold is a new plan."""
        cache = PlanCache()
        sparse = granular_mask((512, 512), (8, 1), 0.95, seed=0)
        denser = granular_mask((512, 512), (8, 1), 0.60, seed=0)
        assert sparsity_signature([sparse]) != sparsity_signature([denser])
        cached_kernel_selection([sparse], 512, 512, 512, tiledb, cache=cache)
        cached_kernel_selection([denser], 512, 512, 512, tiledb, cache=cache)
        assert cache.misses == 2 and cache.hits == 0

    def test_fallback_flag_is_part_of_plan_identity(self, tiledb):
        """A plan cached with the dense fallback enabled must not be served
        to a caller that disabled it (and vice versa)."""
        cache = PlanCache()
        mask = granular_mask((256, 256), (8, 1), 0.9)
        with_fallback = cached_kernel_selection(
            [mask], 256, 256, 256, tiledb, cache=cache
        )
        without = cached_kernel_selection(
            [mask], 256, 256, 256, tiledb, cache=cache,
            include_dense_fallback=False,
        )
        assert cache.misses == 2
        assert not without.is_dense_fallback
        assert with_fallback is not without

    def test_miss_on_shape_or_operand_change(self, tiledb):
        cache = PlanCache()
        mask = granular_mask((256, 256), (8, 1), 0.95)
        cached_kernel_selection([mask], 256, 256, 256, tiledb, cache=cache)
        cached_kernel_selection([mask], 256, 256, 512, tiledb, cache=cache)
        assert cache.misses == 2

    def test_lru_eviction_bound(self, tiledb):
        cache = PlanCache(capacity=2)
        masks = {
            n: granular_mask((256, 256), (8, 1), 0.95)
            for n in (128, 256, 512)
        }
        for n in (128, 256, 512):
            cached_kernel_selection([masks[n]], 256, 256, n, tiledb, cache=cache)
        assert len(cache) == 2
        assert cache.evictions == 1
        # The oldest entry (n=128) was evicted: looking it up misses again.
        misses = cache.misses
        cached_kernel_selection([masks[128]], 256, 256, 128, tiledb, cache=cache)
        assert cache.misses == misses + 1

    def test_lru_refresh_on_hit(self, tiledb):
        cache = PlanCache(capacity=2)
        mask = granular_mask((256, 256), (8, 1), 0.95)
        cached_kernel_selection([mask], 256, 256, 128, tiledb, cache=cache)
        cached_kernel_selection([mask], 256, 256, 256, tiledb, cache=cache)
        cached_kernel_selection([mask], 256, 256, 128, tiledb, cache=cache)  # hit
        cached_kernel_selection([mask], 256, 256, 512, tiledb, cache=cache)
        # n=256 was least recently used, so n=128 must still be cached.
        hits = cache.hits
        cached_kernel_selection([mask], 256, 256, 128, tiledb, cache=cache)
        assert cache.hits == hits + 1

    def test_stats_and_hit_rate(self, tiledb):
        cache = PlanCache()
        mask = granular_mask((256, 256), (8, 1), 0.95)
        cached_kernel_selection([mask], 256, 256, 256, tiledb, cache=cache)
        cached_kernel_selection([mask], 256, 256, 256, tiledb, cache=cache)
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["hit_rate"] == pytest.approx(0.5)

    def test_kernel_from_choice_matches_selection(self, tiledb):
        mask = granular_mask((512, 512), (8, 1), 0.99)
        choice = kernel_selection([mask], 512, 512, 512, tiledb)
        kernel = kernel_from_choice(choice, tiledb.spec, tiledb.dtype)
        if choice.is_dense_fallback:
            assert isinstance(kernel, DenseMatmulKernel)
        else:
            assert isinstance(kernel, SparseMatmulKernel)
            assert kernel.pit_axis == choice.pit_axis

    def test_compiler_uses_plan_cache(self):
        cache = PlanCache()
        compiler = PITCompiler(V100, plan_cache=cache)
        mask = granular_mask((256, 256), (8, 1), 0.99)
        spec = compiler.plan_spec([mask], 256, 256, 256)
        compiler.compile(spec, [mask], use_cache=False)
        compiler.compile(spec, [mask], use_cache=False)
        assert cache.hits == 1 and cache.misses == 1


class TestSharedPlanCache:
    def teardown_method(self):
        PlanCache.clear_shared()

    def test_same_name_returns_same_instance(self):
        a = PlanCache.shared("serving")
        b = PlanCache.shared("serving")
        assert a is b
        assert PlanCache.shared("other") is not a

    def test_parameter_mismatch_raises(self):
        PlanCache.shared("serving", capacity=64)
        with pytest.raises(ValueError):
            PlanCache.shared("serving", capacity=128)

    def test_clear_shared_drops_instances(self):
        a = PlanCache.shared("serving")
        PlanCache.clear_shared()
        assert PlanCache.shared("serving") is not a

    def test_shared_cache_warms_across_engines(self, tiledb):
        """Two callers naming the same shared cache reuse each other's
        Algorithm 1 outcomes — the cross-engine analogue of the scheduler's
        cross-replica warming."""
        mask = granular_mask((512, 512), (8, 1), 0.95, seed=0)
        cached_kernel_selection(
            [mask], 512, 512, 512, tiledb, cache=PlanCache.shared("warm")
        )
        cache = PlanCache.shared("warm")
        assert cache.misses == 1
        cached_kernel_selection([mask], 512, 512, 512, tiledb, cache=cache)
        assert cache.hits == 1 and cache.misses == 1


class TestCompiler:
    @staticmethod
    def _compile(compiler, samples, m, k, n, **kwargs):
        spec = compiler.plan_spec(samples, m, k, n)
        return compiler.compile(spec, samples, **kwargs)

    def test_compile_and_run_sparse(self):
        compiler = PITCompiler(V100)
        rng = np.random.default_rng(0)
        mask = np.zeros((1024, 1024), dtype=bool)
        mask[rng.choice(1024, size=16, replace=False)] = True  # 16 live rows
        a = rng.standard_normal((1024, 1024)) * mask
        b = rng.standard_normal((1024, 512))
        compiled = self._compile(compiler, [mask], 1024, 1024, 512)
        res = compiled.run(a, b, mask=mask)
        np.testing.assert_allclose(res.output, a @ b, atol=1e-10)
        assert isinstance(compiled.kernel, SparseMatmulKernel)

    def test_dense_fallback_runs(self):
        compiler = PITCompiler(V100)
        mask = np.ones((128, 128), dtype=bool)
        compiled = self._compile(compiler, [mask], 128, 128, 128)
        assert isinstance(compiled.kernel, DenseMatmulKernel)
        rng = np.random.default_rng(1)
        a, b = rng.standard_normal((128, 128)), rng.standard_normal((128, 128))
        np.testing.assert_allclose(compiled.run(a, b).output, a @ b, atol=1e-10)

    def test_cache_hits(self):
        compiler = PITCompiler(V100)
        mask = granular_mask((256, 256), (8, 1), 0.99)
        c1 = self._compile(compiler, [mask], 256, 256, 256)
        c2 = self._compile(compiler, [mask], 256, 256, 256)
        assert c1 is c2
        assert compiler.cache_size() == 1

    def test_compile_cache_is_sparsity_aware(self):
        """Two sparsity regimes of one shape keep separate kernels — the
        old shape-only cache silently served whichever compiled first."""
        compiler = PITCompiler(V100)
        sparse = granular_mask((1024, 1024), (8, 1), 0.99)
        dense = np.ones((1024, 1024), dtype=bool)
        c_sparse = self._compile(compiler, [sparse], 1024, 1024, 1024)
        c_dense = self._compile(compiler, [dense], 1024, 1024, 1024)
        assert c_sparse is not c_dense
        assert c_dense.choice.is_dense_fallback
        assert not c_sparse.choice.is_dense_fallback
        assert compiler.cache_size() == 2
        # Each regime keeps hitting its own compiled kernel.
        assert self._compile(compiler, [sparse], 1024, 1024, 1024) is c_sparse
        assert self._compile(compiler, [dense], 1024, 1024, 1024) is c_dense

    def test_refresh_replaces_cache(self):
        compiler = PITCompiler(V100)
        sparse = granular_mask((256, 256), (8, 1), 0.99)
        c1 = self._compile(compiler, [sparse], 256, 256, 256)
        dense = np.ones((256, 256), dtype=bool)
        c2 = compiler.refresh(c1, [dense])
        assert c2.choice.is_dense_fallback
        # The refreshed kernel serves its spec; the old spec's kernel stays
        # valid for in-flight work instead of being clobbered.
        assert self._compile(compiler, [dense], 256, 256, 256) is c2
        assert self._compile(compiler, [sparse], 256, 256, 256) is c1

    def test_legacy_compile_matmul_shim_removed(self):
        """The one-release deprecation shim is gone: the PlanSpec API
        (``plan_spec`` + ``compile``) is the only compile entry point."""
        assert not hasattr(PITCompiler, "compile_matmul")

    def test_cold_compile_without_samples_raises(self):
        compiler = PITCompiler(V100)
        mask = granular_mask((256, 256), (8, 1), 0.99)
        spec = compiler.plan_spec([mask], 256, 256, 256)
        with pytest.raises(ValueError, match="make_samples"):
            compiler.compile(spec)
        # Once the plan is cached, compiling without samples is fine.
        compiler.compile(spec, [mask])
        assert compiler.compile(spec).choice is not None

    def test_estimate_with_fresh_mask(self):
        compiler = PITCompiler(V100)
        mask = granular_mask((1024, 1024), (8, 1), 0.99)
        compiled = self._compile(compiler, [mask], 1024, 1024, 1024)
        denser = granular_mask((1024, 1024), (8, 1), 0.5, seed=9)
        assert compiled.estimate_us(denser) > compiled.estimate_us(mask)


class TestPolicies:
    def test_seqlen_token_mask(self):
        mask = SeqLenPolicy.token_mask([2, 4], max_len=4)
        np.testing.assert_array_equal(
            mask, [True, True, False, False, True, True, True, True]
        )

    def test_seqlen_rejects_overflow(self):
        with pytest.raises(ValueError):
            SeqLenPolicy.token_mask([5], max_len=4)

    def test_paged_attention_gather(self):
        pool = np.arange(4 * 2 * 3, dtype=float).reshape(4, 2, 3)
        policy = PagedAttentionPolicy(page_size=2)
        k = policy.gather_pages(pool, [2, 0])
        np.testing.assert_array_equal(k[:2], pool[2])
        np.testing.assert_array_equal(k[2:], pool[0])

    def test_paged_attention_validates_table(self):
        policy = PagedAttentionPolicy(page_size=2)
        with pytest.raises(ValueError):
            policy.gather_pages(np.zeros((2, 2, 2)), [5])

    def test_decisions_labelled(self):
        assert SeqLenPolicy().decision().pit_axis == "m"
        assert PagedAttentionPolicy().decision().label == "paged-attention"
