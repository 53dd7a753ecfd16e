"""Independent oracle implementations used by the tests: a slow loop-based
transformer forward and brute-force attention-plan enumeration. These are
deliberately written without reusing the package's vectorized code paths so
they can serve as a second route for equivalence checks."""

import math

import numpy as np

from marscache.core import NEG_INF


def ref_softmax(row):
    m = max(row)
    exps = [math.exp(x - m) for x in row]
    s = sum(exps)
    return [e / s for e in exps]


def ref_rms_norm(x, gain, eps=1e-6):
    out = np.empty_like(x)
    for i in range(x.shape[0]):
        ms = float(np.mean(x[i] * x[i]))
        out[i] = x[i] / math.sqrt(ms + eps) * gain
    return out


def ref_gelu(x):
    return 0.5 * x * (1.0 + np.tanh(math.sqrt(2.0 / math.pi) * (x + 0.044715 * (x * x * x))))


def ref_rotate(vec, pos, head_dim):
    half = head_dim // 2
    out = np.empty_like(vec)
    for i in range(half):
        freq = 10000.0 ** (-i / half)
        angle = pos * freq
        c, s = math.cos(angle), math.sin(angle)
        a, b = vec[i], vec[half + i]
        out[i] = a * c - b * s
        out[half + i] = a * s + b * c
    return out


def ref_forward(weights, embeddings, position_ids, mask=None):
    """Loop-based forward pass mirroring the model contract. Returns logits.
    mask is one additive (T, T) mask for every layer, or a list with one
    per layer."""
    cfg = weights.config
    t = embeddings.shape[0]
    heads, dk = cfg.num_heads, cfg.head_dim
    if mask is None and cfg.mask_mode == "causal":
        mask = np.zeros((t, t))
        for i in range(t):
            for j in range(t):
                if j > i:
                    mask[i, j] = -np.inf
    masks = mask if isinstance(mask, list) else [mask] * cfg.num_layers
    h = embeddings.astype(np.float64).copy()
    for lw, mask in zip(weights.layers, masks):
        xn = ref_rms_norm(h, lw.attn_norm)
        q_all = xn @ lw.wq
        k_all = xn @ lw.wk
        v_all = xn @ lw.wv
        attn_out = np.zeros((t, cfg.model_dim))
        for head in range(heads):
            sl = slice(head * dk, (head + 1) * dk)
            q = np.stack([ref_rotate(q_all[i, sl], position_ids[i], dk) for i in range(t)])
            k = np.stack([ref_rotate(k_all[i, sl], position_ids[i], dk) for i in range(t)])
            v = v_all[:, sl]
            for i in range(t):
                scores = [float(np.dot(q[i], k[j])) / math.sqrt(dk) for j in range(t)]
                if mask is not None:
                    scores = [s + mask[i, j] for j, s in enumerate(scores)]
                visible = [j for j, s in enumerate(scores) if s != -np.inf]
                probs_v = ref_softmax([scores[j] for j in visible])
                acc = np.zeros(dk)
                for p, j in zip(probs_v, visible):
                    acc += p * v[j]
                attn_out[i, sl] = acc
        h = h + attn_out @ lw.wo
        f = ref_rms_norm(h, lw.ff_norm)
        h = h + ref_gelu(f @ lw.w1) @ lw.w2
    return ref_rms_norm(h, weights.final_norm) @ weights.head


def ref_batched_attention(q, k, v, mask, d_k):
    """All heads at once, in multi_head_attention's arithmetic: q (H, Tq,
    d_k), k and v (H, Tk, d_k), mask (Tq, Tk) or None. The queries are
    scaled by 1/sqrt(d_k), the scores exponentiated without a row-max shift,
    and the (Tq, H*d_k) output divided by the row sums. Valid only where
    every row sum is in model.EXP_SUM_RANGE."""
    scores = np.matmul(q * (1.0 / np.sqrt(d_k)), k.transpose(0, 2, 1))
    if mask is not None:
        scores += mask
    z = np.exp(scores)
    out = np.matmul(z, v) / np.sum(z, axis=-1)[..., None]
    h, tq, _ = q.shape
    return out.transpose(1, 0, 2).reshape(tq, h * d_k)


def ref_shifted_attention(q, k, v, mask, d_k):
    """All heads at once by the max-shifted softmax, which holds on any
    finite scores: the scores divided by sqrt(d_k), shifted by their row max
    before the exp and normalised into probabilities. Returns the (Tq, H*d_k)
    output and the (H, Tq, Tk) probabilities."""
    scores = np.matmul(q, k.transpose(0, 2, 1))
    scores /= np.sqrt(d_k)
    if mask is not None:
        scores += mask
    z = np.exp(scores - np.max(scores, axis=-1, keepdims=True))
    probs = z / np.sum(z, axis=-1, keepdims=True)
    h, tq, _ = q.shape
    return np.matmul(probs, v).transpose(1, 0, 2).reshape(tq, h * d_k), probs


def brute_force_visual_visibility(layout, anchors):
    """(V, L) boolean visibility for visual query rows, by per-pair rules."""
    v, total = layout.visual_length, layout.total_length
    p = layout.patches_per_frame
    n_frames = layout.num_frames
    anchors = set(int(a) for a in anchors)
    vis = np.zeros((v, total), dtype=bool)
    for q in range(v):
        frame = q // p + 1
        if q in anchors:
            for key in range(total):
                vis[q, key] = True
            continue
        for key in range(v):
            key_frame = key // p + 1
            in_neighborhood = abs(key_frame - frame) <= 1 and 1 <= key_frame <= n_frames
            if in_neighborhood or key in anchors:
                vis[q, key] = True
    return vis


def brute_force_step_entries(kind, layout, model_config, decode_config, schedule=None,
                             budgets=None, sample_size=32):
    """Enumerate the per-step attention plan of an engine and count visible
    (query, key) pairs layer by layer. Independent of the engine and of the
    analysis module's closed forms."""
    total = layout.total_length
    v = layout.visual_length
    p = layout.patches_per_frame
    nl = model_config.num_layers
    per_block = decode_config.steps_per_block()
    step_block = []
    for b, n in enumerate(per_block):
        step_block += [b] * n

    if budgets is not None:
        # Anchor plan structure: exactly k anchors per frame, here the first
        # k of each frame. chunked[g] counts group g's visible (visual query,
        # key) pairs.
        budgets = [p if k == "full" else int(k) for k in budgets]
        chunked = [
            int(brute_force_visual_visibility(
                layout, [fr * p + i for fr in range(layout.num_frames) for i in range(k)]
            ).sum())
            for k in budgets
        ]

    counts = []
    block_first_steps = set()
    acc = 1
    for n in per_block:
        block_first_steps.add(acc)
        acc += n

    for t, block in enumerate(step_block, start=1):
        span = layout.block_span(block)
        blk = len(span)
        if kind == "vanilla":
            counts.append(nl * total * total)
            continue
        if kind == "dual_cache":
            if t in block_first_steps:
                counts.append(nl * total * total)
            else:
                counts.append(nl * blk * total)
            continue
        # mars
        if t == 1:
            counts.append(nl * total * total + model_config.num_groups * sample_size * v)
            continue
        text_rows = layout.prompt_length + layout.generation_length - blk
        step_total = 0
        for g in range(model_config.num_groups):
            layers = len(model_config.group_layers(g))
            vis_due = any(t % schedule.tau_visual[gg] == 0 for gg in range(g + 1))
            text_due = any(t % schedule.tau_text[gg] == 0 for gg in range(g + 1))
            layer_entries = (blk + (text_rows if text_due else 0)) * total
            if vis_due:
                layer_entries += chunked[g]
            step_total += layers * layer_entries
        counts.append(step_total)
    return counts


def visibility_to_additive(vis):
    """Boolean visibility -> additive {0, -inf} mask: the dense form of an
    attention plan, which the gathered key sets are checked against."""
    mask = np.zeros(vis.shape)
    mask[~vis] = NEG_INF
    return mask


def relocate_anchors(layout, anchors):
    """Permutation moving each frame's anchors (in index order) to the front
    of the visual segment, non-anchors following in original order; prompt and
    response rows are untouched. Position ids are carried by the caller, so
    applying the permutation leaves attention outputs unchanged up to the
    returned inverse. Returns (permutation, inverse) as index arrays such that
    reordered[i] = original[permutation[i]]."""
    anchor_idx = sorted(int(a) for a in anchors)
    if any(a < 0 or a >= layout.visual_length for a in anchor_idx):
        raise ValueError("anchors must be visual indices")
    rest = [i for i in range(layout.visual_length) if i not in set(anchor_idx)]
    perm = np.array(
        anchor_idx + rest + list(range(layout.visual_length, layout.total_length)),
        dtype=np.int64,
    )
    inv = np.empty_like(perm)
    inv[perm] = np.arange(perm.size)
    return perm, inv
