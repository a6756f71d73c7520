"""LSTM sequence kernels — the hot inner loops of training and inference.

Every product that does not depend on the recurrence runs outside the time
loop as one matrix product (input-projection batching, Appleyard et al.
2016, arXiv:1604.01946), here extended across sequences:

- forward: batch-major over B sequences packed by length. The caller
  hands in the input pre-activations of every step of every sequence as
  one time-major (T, B, 4H) array; only the recurrent product
  h[:n] @ w_h.T runs per timestep, one (n, H) @ (H, 4H) product over the
  n sequences still running at that step. Sequences are sorted by
  decreasing length, so those n are the first n rows: nothing is masked
  and no padded step is computed. Training runs the same kernel with B = 1.
- backward: one sequence at a time, on the B = 1 views of the forward
  outputs. The gate gradients of all steps are kept as one (T, 4H) array
  dZ, and the input weight blocks' dZ.T @ (p_k xs), dZ.T @ hs[:-1] and
  dZ.sum(0) are each added into the caller's array; only the recurrent
  product dZ[t] @ w_h runs per timestep. The two weight products are
  added a row block at a time (_add_product), so no array the size of a
  weight matrix is created at all.

Gate layout: the four gates are stacked row-wise in one matrix, in the
order input | forget | cell | output, so w_h is (4H, H) and each block of
a direction's input weights is (4H, D). All arrays are C-contiguous
float64.
"""

import bisect

import numpy as np

BLOCK = 1 << 14  # values per block of a blocked update: 128 KiB of float64


def lstm_forward_seq(zx, w_h, lengths):
    """Run an LSTM left to right from zero state over B sequences at once.

    zx is (T, B, 4H), time-major: zx[t, i] is sequence i's input
    pre-activation at step t, bias included. lengths (B,) is sorted in
    decreasing order with lengths[0] == T, so step t updates only the first
    n_active[t] rows. zx is turned into the gate activations in place.

    Returns (hs, cs, gates, tanh_c): hs/cs are (T+1, B, H) with row 0 the
    initial zero state, gates is zx, (T, B, 4H) post-activation in i|f|g|o
    order, and tanh_c is (T, B, H); everything the backward pass needs.
    Sequence i's last state is hs[lengths[i], i]; entries past a
    sequence's end are not computed (zero in hs, cs and tanh_c, and zx's
    own values in gates) and not read.
    """
    T, B, four_h = zx.shape
    H = w_h.shape[1]
    neg = [-int(n) for n in lengths]  # ascending
    if len(neg) != B or neg[0] != -T or neg[-1] > -1 or neg != sorted(neg):
        raise ValueError("lstm: lengths must be >= 1, in decreasing order, the first equal to T")
    n_active = [bisect.bisect_left(neg, -t) for t in range(T)]  # lengths > t
    hs = np.zeros((T + 1, B, H))
    cs = np.zeros((T + 1, B, H))
    tanh_c = np.zeros((T, B, H))
    w_ht = w_h.T
    acts = zx.reshape(T, B, 4, H).transpose(0, 2, 1, 3)  # gate-major views of zx
    for t, n in enumerate(n_active):
        z = zx[t, :n]
        z += hs[t, :n] @ w_ht
        act = acts[t, :, :n]
        i, f, g, o = act
        tanh_g = np.tanh(g)
        np.exp(np.negative(act, act), act)
        np.add(act, 1.0, act)
        np.divide(1.0, act, act)
        g[...] = tanh_g
        c = cs[t + 1, :n]
        np.multiply(f, cs[t, :n], c)
        c += i * g
        np.multiply(o, np.tanh(c, tanh_c[t, :n]), hs[t + 1, :n])
    return hs, cs, zx, tanh_c


def _add_product(target, a, b):
    """target += a @ b, a row block of about BLOCK values of target at a
    time, so the product is never held whole and each block of target is
    still in cache when it is added to."""
    rows = max(1, BLOCK // target.shape[1])
    for r in range(0, target.shape[0], rows):
        target[r:r + rows] += a[r:r + rows] @ b


def lstm_backward_seq(w_x, w_h, xs, hs, cs, gates, tanh_c, d_h_out, d_wx, d_wh, d_bias,
                      block_weights=(1.0,)):
    """Backpropagate through time over one sequence, given d_h_out (T, H),
    the gradient of the loss w.r.t. each timestep's hidden output, and the
    forward kernel's outputs for that sequence ((T+1, H), (T+1, H),
    (T, 4H), (T, H)).

    w_x (4H, D) is the weight matrix the sequence's (T, D) inputs xs were
    projected with. The parameter it came from is k = len(block_weights)
    blocks of that shape, w_x = sum_j block_weights[j] * block_j, so the
    gradient of block j is dZ.T @ (block_weights[j] * xs). The gradients
    are added into d_wx (k, 4H, D), d_wh (4H, H) and d_bias (4H,), not
    written: the caller passes the vector it accumulates into. Block j of
    d_wx is not touched where block_weights[j] is zero, and no (T, k*D)
    input or (4H, k*D) temporary is made. Input gradients are not
    computed; the models feed frozen embeddings.
    """
    T = xs.shape[0]
    H = w_h.shape[1]
    i, f, g, o = gates.reshape(T, 4, H).transpose(1, 0, 2)
    # the local derivatives, which do not depend on the recurrence: d(c) by
    # the i, f and g pre-activations, d(h) by the o pre-activation, d(h)/d(c)
    dc_dz_ifg = np.stack([g * i * (1.0 - i), cs[:-1] * f * (1.0 - f), i * (1.0 - g * g)], axis=1)
    dh_dz_o = tanh_c * o * (1.0 - o)
    dh_dc = o * (1.0 - tanh_c * tanh_c)
    dz = np.empty((T, 4, H))
    dh = np.zeros(H)
    dc = np.zeros(H)
    for t in range(T - 1, -1, -1):
        dht = d_h_out[t] + dh
        dct = dht * dh_dc[t] + dc
        np.multiply(dc_dz_ifg[t], dct, out=dz[t, :3])
        np.multiply(dh_dz_o[t], dht, out=dz[t, 3])
        dc = dct * f[t]
        dh = dz[t].reshape(4 * H) @ w_h
    dz = dz.reshape(T, 4 * H)
    for j, weight in enumerate(block_weights):
        if weight:
            _add_product(d_wx[j], dz.T, xs if weight == 1.0 else weight * xs)
    _add_product(d_wh, dz.T, hs[:-1])
    d_bias += dz.sum(0)
