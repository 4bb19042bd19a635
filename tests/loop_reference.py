"""Independent scalar-loop references for the attention head.

Pure-Python triple loops over indices, deliberately written without any
vectorized code so they can serve as oracles for the numpy paths.
"""
import math


def text_attention_ref(tokens, m_global, w, b, mask):
    """tokens: K x N x d nested lists (or arrays), mask: K x N booleans."""
    k_n = len(tokens)
    alpha, c = [], []
    for k in range(k_n):
        n_tok, d = len(tokens[k]), len(tokens[k][0])
        scores = []
        for j in range(n_tok):
            acc = 0.0
            for a in range(d):
                for bb in range(d):
                    acc += tokens[k][j][a] * w[a][bb] * m_global[k][bb]
            scores.append(math.tanh(acc + b))
        unmasked = [j for j in range(n_tok) if mask[k][j]]
        mx = max(scores[j] for j in unmasked)
        exps = [math.exp(scores[j] - mx) if mask[k][j] else 0.0 for j in range(n_tok)]
        z = sum(exps)
        a_k = [e / z for e in exps]
        c_k = [sum(a_k[j] * tokens[k][j][a] for j in range(n_tok)) for a in range(d)]
        alpha.append(a_k)
        c.append(c_k)
    return alpha, c


def label_attention_ref(labels, t_global, w, b):
    k_n = len(labels)
    beta, s = [], []
    for k in range(k_n):
        n_lab, d = len(labels[k]), len(labels[k][0])
        scores = []
        for i in range(n_lab):
            acc = 0.0
            for a in range(d):
                for bb in range(d):
                    acc += labels[k][i][a] * w[a][bb] * t_global[k][bb]
            scores.append(math.tanh(acc + b))
        mx = max(scores)
        exps = [math.exp(v - mx) for v in scores]
        z = sum(exps)
        b_k = [e / z for e in exps]
        s_k = [sum(b_k[i] * labels[k][i][a] for i in range(n_lab)) for a in range(d)]
        beta.append(b_k)
        s.append(s_k)
    return beta, s


def similarity_features_ref(c, s):
    p = [[c[k][a] * s[k][a] for a in range(len(c[k]))] for k in range(len(c))]
    d = [[abs(c[k][a] - s[k][a]) for a in range(len(c[k]))] for k in range(len(c))]
    return p, d


def weighted_features_ref(p, d):
    """Per-sample weighting: gamma = exp(mean d) / (exp(mean p) + exp(mean d))."""
    p_w, d_w, gammas = [], [], []
    for k in range(len(p)):
        dim = len(p[k])
        mp = sum(p[k]) / dim
        md = sum(d[k]) / dim
        gamma = math.exp(md) / (math.exp(mp) + math.exp(md))
        eta = 1.0 - gamma
        p_w.append([gamma * v for v in p[k]])
        d_w.append([eta * v for v in d[k]])
        gammas.append(gamma)
    return p_w, d_w, gammas
