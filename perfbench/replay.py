"""Traced replay of IdeaModel.forward and a walk over the autodiff tape.

The replay repeats the glue of IdeaModel.forward (broadcasts, slicing,
the dropout on z) and calls each encoder and head function on its own,
inside a span. Its outputs must equal IdeaModel.forward's bit for bit;
the workloads check that on every traced run. A change that restructures
IdeaModel.forward itself (rather than the functions it calls) is not
mirrored here: the bit-for-bit check still holds, and the difference
shows as tracing overhead instead.
"""
from __future__ import annotations

from collections import Counter

import numpy as np

from idea import autodiff as ad
from idea import head as hd
from idea.data import SEP
from idea.encoder import encode, encode_labels_once, pool_label_vectors

# op names recorded on Lineage by idea.autodiff; any other name counts as "other"
TAPE_OPS = (
    "add", "mul", "scale", "matmul", "tanh", "gelu", "abs_diff", "softmax",
    "reduce_sum", "reduce_mean", "concat", "dropout", "reshape", "transpose",
    "slice", "broadcast", "embedding", "layernorm", "cross_entropy", "frobenius_sq",
)


def traced_forward(model, token_ids, pad_mask, training, rng, span):
    """IdeaModel.forward(...)[0], one encoder/head call per span."""
    ids = np.asarray(token_ids)
    mask = np.asarray(pad_mask, dtype=bool)
    k_batch = ids.shape[0]
    d = model.encoder_config.d
    cfg, params = model.encoder_config, model.params

    with span("encoder.encode_docs"):
        enc = encode(ids, mask, cfg, params, training, rng)
    with span("encoder.encode_labels"):
        lab = encode_labels_once(model.label_ids, cfg, params, training, rng)
        label_vecs = pool_label_vectors(lab, model.label_spans)
    label_vecs = ad.broadcast_to(label_vecs, (k_batch, model.n_classes, d))
    m_global = ad.broadcast_to(lab.pooled, (k_batch, d))
    text_tokens = ad.slice_axis(enc.tokens, 1, 1, ids.shape[1])
    query_mask = mask[:, 1:] & (ids[:, 1:] != SEP)

    attn = model.attention_params()
    with span("head.text_attention"):
        _, c = hd.text_attention(text_tokens, m_global, attn, query_mask)
    with span("head.label_attention"):
        _, s = hd.label_attention(label_vecs, enc.pooled, attn)
    with span("head.fusion"):
        p, d_feat = hd.similarity_features(c, s)
        p_w, d_w, _ = hd.weighted_features(p, d_feat, model.gamma_mode)
        z = hd.assemble_z(c, p_w, d_w, s, model.ablation)
    z = ad.dropout(z, cfg.dropout, training, rng)
    with span("head.classify"):
        return hd.classify(z, params["clf.W"], params["clf.b"])


def traced_loss(model, batch, lambda_l2, training, rng, span):
    """IdeaModel.loss(...)[0] through the traced replay."""
    logits = traced_forward(model, batch.token_ids, batch.pad_mask, training, rng, span)
    with span("head.loss"):
        return hd.idea_loss(logits, batch.gold, model.reg_params(), lambda_l2)


def tape_stats(root) -> tuple[Counter, int]:
    """Op nodes reachable from root's lineage, by op name, and the bytes their outputs hold."""
    ops: Counter = Counter()
    nbytes = 0
    seen = {id(root)}
    stack = [root]
    while stack:
        node = stack.pop()
        if node.lineage is None:
            continue
        op = node.lineage.op
        ops[op if op in TAPE_OPS else "other"] += 1
        nbytes += node.data.nbytes
        for parent in node.lineage.inputs:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return ops, nbytes
