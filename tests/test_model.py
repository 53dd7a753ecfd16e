import tracemalloc

import numpy as np
import pytest

from marscache.core import NEG_INF, FullyMaskedRowError, seeded_stream
from marscache.model import (
    GELU_BLOCK,
    ModelConfig,
    attention,
    build_causal_mask,
    forward,
    gelu,
    init_weights,
    multi_head_attention,
    rotary_phases,
    transformer_layer,
)
from reference import ref_gelu

TOY = ModelConfig()  # 8 layers / 4 groups, 4 heads, dim 128, d_k 32, vocab 256
SMALL = ModelConfig(
    num_layers=2, num_heads=2, model_dim=32, head_dim=16, vocab_size=64,
    group_boundaries=(0, 1),
)


def small_inputs(seed=0, t=12, config=SMALL):
    emb = seeded_stream(seed, "emb").normal(size=(t, config.model_dim))
    return emb, np.arange(t)


class TestConfig:
    def test_dim_consistency_enforced(self):
        with pytest.raises(ValueError):
            ModelConfig(num_heads=3)

    @pytest.mark.parametrize("kwargs, message", [
        (dict(num_heads=4, head_dim=3, model_dim=12), "head_dim 3 must be even"),
        (dict(num_heads=4, head_dim=0, model_dim=0), "head_dim 0 must be even"),
        (dict(num_heads=0, model_dim=0), "num_heads 0 must be >= 1"),
        (dict(vocab_size=1), "vocab_size 1 must be >= 2"),
    ])
    def test_sizes_the_model_cannot_run_rejected(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            ModelConfig(**kwargs)

    def test_smallest_runnable_sizes_accepted(self):
        cfg = ModelConfig(num_layers=1, num_heads=1, model_dim=2, head_dim=2,
                          vocab_size=2, group_boundaries=(0,))
        logits, _ = forward(init_weights(cfg, 0), np.ones((3, 2)), range(3))
        assert logits.shape == (3, 2) and np.all(np.isfinite(logits))

    def test_group_boundaries_validated(self):
        with pytest.raises(ValueError):
            ModelConfig(group_boundaries=(1, 2))
        with pytest.raises(ValueError):
            ModelConfig(group_boundaries=(0, 9))

    def test_group_lookup(self):
        assert TOY.num_groups == 4
        assert list(TOY.group_layers(3)) == [6, 7]


class TestCausalMask:
    def test_single_token(self):
        assert build_causal_mask(1).tolist() == [[0.0]]

    def test_lower_triangular(self):
        m = build_causal_mask(3)
        for i in range(3):
            for j in range(3):
                expected = 0.0 if j <= i else NEG_INF
                assert m[i, j] == expected

    def test_row_zero_counts(self):
        m = build_causal_mask(17)
        for i in range(17):
            assert int(np.sum(m[i] == 0.0)) == i + 1


class TestAttention:
    def test_single_entry_returns_value(self):
        q = np.array([[1.0, 2.0]])
        v = np.array([[3.0, 5.0, 7.0]])
        out = attention(q, q, v)
        assert np.allclose(out, v)

    def test_zero_query_gives_column_mean(self):
        s = seeded_stream(5, "kv")
        k, v = s.normal(size=(6, 4)), s.normal(size=(6, 3))
        out = attention(np.zeros((2, 4)), k, v)
        assert np.allclose(out, np.mean(v, axis=0))

    def test_zero_mask_identity(self):
        s = seeded_stream(6, "qkv")
        q, k, v = (s.normal(size=(4, 4)) for _ in range(3))
        assert np.array_equal(attention(q, k, v), attention(q, k, v, np.zeros((4, 4))))


class TestMultiHeadAttention:
    @staticmethod
    def qkv(tq=3, tk=5):
        s = seeded_stream(8, "mha")
        return s.normal(size=(2, tq, 4)), s.normal(size=(2, tk, 4)), s.normal(size=(2, tk, 4))

    def test_mask_shared_across_heads(self):
        q, k, v = self.qkv()
        mask = np.zeros((3, 5))
        mask[0, 1:] = NEG_INF
        mask[2, :2] = NEG_INF
        before = [a.copy() for a in (q, k, v, mask)]
        out = multi_head_attention(q, k, v, mask)
        for h in range(2):
            expect = attention(q[h], k[h], v[h], mask)
            assert np.allclose(out[:, 4 * h : 4 * (h + 1)], expect, rtol=0, atol=1e-14)
        for a, b in zip((q, k, v, mask), before):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("shape", [(1, 5), (5, 3), (6, 5), (2, 3, 5)])
    def test_mask_must_be_tq_by_tk(self, shape):
        q, k, v = self.qkv()
        with pytest.raises(ValueError, match="mask shape"):
            multi_head_attention(q, k, v, np.zeros(shape))

    def test_fully_masked_row_raises(self):
        q, k, v = self.qkv()
        mask = np.zeros((3, 5))
        mask[1] = NEG_INF
        with pytest.raises(FullyMaskedRowError, match="fully masked row"):
            multi_head_attention(q, k, v, mask)


def test_gelu_matches_reference_formula_bitwise():
    # Large enough (256 KiB) for NumPy to reuse temporaries in place.
    x = seeded_stream(9, "gelu").normal(size=(64, 512), std=3.0)
    before = x.copy()
    assert np.array_equal(gelu(x), ref_gelu(x))
    assert np.array_equal(x, before)
    edges = np.array([0.0, -0.0, 1e-300, -1e-300, 1e-9, -20.0, 40.0, 1e300, -1e300])
    with np.errstate(over="ignore"):  # the cube x * x * x overflows for the outer pair
        got, expect = gelu(edges), ref_gelu(edges)
    assert np.array_equal(got, expect)
    assert np.array_equal(np.signbit(got), np.signbit(expect))


def test_gelu_within_4_ulp_of_the_pow_cube():
    # gelu's cube is x * x * x; the x**3 form it replaced differs by one ulp in
    # the cube and a few in the tanh argument. Where 1 + tanh cancels (x < 0)
    # the output's own ulp is no scale, so the bound there is x's ulp.
    x = seeded_stream(9, "gelu").normal(size=(64, 512), std=3.0)
    pow_form = 0.5 * x * (1.0 + np.tanh(np.sqrt(2.0 / np.pi) * (x + 0.044715 * x**3)))
    diff = np.abs(gelu(x) - pow_form)
    assert np.all(diff <= 4 * np.spacing(np.abs(x)))
    pos = x >= 0
    assert np.all(diff[pos] <= 4 * np.spacing(np.abs(pow_form[pos])))


def test_gelu_in_place_matches_reference_across_blocks():
    # Two full blocks and a partial one, so every block boundary is crossed.
    x = seeded_stream(9, "gelu").normal(size=(2 * GELU_BLOCK + 37,), std=3.0)
    expect = ref_gelu(x)
    assert np.array_equal(gelu(x), expect)
    assert gelu(x, out=x) is x
    assert np.array_equal(x, expect)
    with pytest.raises(ValueError, match="C-contiguous"):
        gelu(x, out=np.empty(2 * x.size)[::2])


def test_layer_holds_one_ffn_array_at_a_time():
    # The FFN overwrites its (R, 4D) hidden array in place and the attention
    # temporaries are gone before it runs. Before, a layer held the hidden
    # array, GELU's output and the attention temporaries at once (2.75x);
    # glibc trims its heap once the free top exceeds twice its largest
    # block, so that transient was handed back and re-faulted every layer.
    t = 208
    w = init_weights(TOY, 0)
    x = seeded_stream(3, "x").normal(size=(t, TOY.model_dim))
    cos, sin = rotary_phases(np.arange(t), TOY.head_dim)
    keys = np.empty((TOY.num_heads, t, TOY.head_dim))
    values = np.empty_like(keys)
    tracemalloc.start()
    try:
        transformer_layer(w.layers[0], x, cos, sin, keys, values, slice(None))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * t * 4 * TOY.model_dim * 8


class TestInitWeights:
    def test_deterministic(self):
        a = init_weights(SMALL, 11)
        b = init_weights(SMALL, 11)
        assert np.array_equal(a.layers[0].wq, b.layers[0].wq)
        assert np.array_equal(a.embedding, b.embedding)

    def test_seed_sensitivity(self):
        a = init_weights(SMALL, 11)
        b = init_weights(SMALL, 12)
        assert not np.array_equal(a.layers[0].wq, b.layers[0].wq)

    def test_residual_projections_shrunk(self):
        w = init_weights(TOY, 42)
        assert np.std(w.layers[0].wo) < np.std(w.layers[0].wq)

    def test_logit_scale_sane(self):
        # Sanity range measured once on the default config at build time.
        w = init_weights(TOY, 42)
        emb = seeded_stream(42, "probe").normal(size=(32, TOY.model_dim))
        logits, _ = forward(w, emb, np.arange(32))
        stds = np.std(logits, axis=1)
        assert np.all(np.isfinite(logits))
        assert np.all(stds > 0) and np.all(stds < 50)


class TestForward:
    def test_deterministic_bitwise(self):
        w = init_weights(SMALL, 3)
        emb, pos = small_inputs(1)
        la, aa = forward(w, emb, pos)
        lb, ab = forward(w, emb, pos)
        assert np.array_equal(la, lb)
        for x, y in zip(aa.hidden, ab.hidden):
            assert np.array_equal(x, y)

    def test_bidirectional_permutation_equivariance(self):
        w = init_weights(TOY, 42)
        t = 24
        emb = seeded_stream(9, "emb").normal(size=(t, TOY.model_dim))
        pos = np.arange(t)
        base, _ = forward(w, emb, pos)
        perm = seeded_stream(10, "perm").uniform(size=t).argsort()
        permuted, _ = forward(w, emb[perm], pos[perm])
        assert np.max(np.abs(permuted - base[perm])) <= 1e-9

    def test_causal_permutation_sensitivity(self):
        cfg = ModelConfig(mask_mode="causal")
        w = init_weights(cfg, 42)
        t = 24
        emb = seeded_stream(9, "emb").normal(size=(t, cfg.model_dim))
        pos = np.arange(t)
        base, _ = forward(w, emb, pos)
        perm = seeded_stream(10, "perm").uniform(size=t).argsort()
        assert not np.array_equal(perm, np.arange(t))
        permuted, _ = forward(w, emb[perm], pos[perm])
        assert np.max(np.abs(permuted - base[perm])) > 1e-6

    def test_causal_visibility_exact_zero_change(self):
        cfg = ModelConfig(
            num_layers=2, num_heads=2, model_dim=32, head_dim=16, vocab_size=64,
            group_boundaries=(0, 1), mask_mode="causal",
        )
        w = init_weights(cfg, 5)
        emb, pos = small_inputs(2, t=10, config=cfg)
        base, _ = forward(w, emb, pos)
        j = 6
        bumped = emb.copy()
        bumped[j] += 1.0
        out, _ = forward(w, bumped, pos)
        assert np.array_equal(out[:j], base[:j])
        assert np.max(np.abs(out[j:] - base[j:])) > 0

    def test_shape_mismatch_raises(self):
        w = init_weights(SMALL, 3)
        emb, _ = small_inputs(1)
        with pytest.raises(ValueError):
            forward(w, emb, np.arange(emb.shape[0] + 1))

    def test_against_loop_reference(self):
        from reference import ref_forward

        w = init_weights(SMALL, 17)
        emb, pos = small_inputs(4, t=9)
        logits, _ = forward(w, emb, pos)
        ref = ref_forward(w, emb, pos)
        assert np.max(np.abs(logits - ref)) <= 1e-10

    def test_reference_agrees_under_causal_mask(self):
        from reference import ref_forward

        cfg = ModelConfig(
            num_layers=2, num_heads=2, model_dim=32, head_dim=16, vocab_size=64,
            group_boundaries=(0, 1), mask_mode="causal",
        )
        w = init_weights(cfg, 17)
        emb, pos = small_inputs(4, t=9, config=cfg)
        logits, _ = forward(w, emb, pos)
        ref = ref_forward(w, emb, pos)
        assert np.max(np.abs(logits - ref)) <= 1e-10

