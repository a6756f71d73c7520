"""LSTM sequence kernels — the hot inner loops of training and inference.

Every product that does not depend on the recurrence runs outside the time
loop as one matrix product (input-projection batching, Appleyard et al.
2016, arXiv:1604.01946), here extended across sequences and directions:

- forward: batch-major over B sequences packed by length, in D = 1 or 2
  directions at once. The caller hands in the input pre-activations of
  every step of every sequence in every direction as one time-major
  (T, D, B, 4H) array; only the recurrent product runs per timestep, one
  np.matmul of the (D, n, H) states of the n sequences still running at
  that step with the (D, H, 4H) transposed recurrent weights. Sequences
  are sorted by decreasing length, so those n are the first n rows:
  nothing is masked and no padded step is computed. Training runs the
  same kernel with B = 1.
- backward: one sequence at a time, in D directions at once, on the
  B = 1 views of the forward outputs. The gate gradients of all steps are
  kept as one (D, T, 4H) array dZ, and per direction the input weight
  blocks' dZ.T @ (p_k xs), dZ.T @ hs[:-1] and dZ.sum(0) are each added
  into the caller's arrays; only the recurrent product, one np.matmul of
  the (D, 1, 4H) gate gradients with the (D, 4H, H) recurrent weights,
  runs per timestep. The two weight products are added a row block at a
  time (_add_product), so no array the size of a weight matrix is created
  at all.

Each element's ops, and their order, are the same for D = 2 as for two
D = 1 calls, and the batched product runs each direction's product as a
D = 1 call would, so the outputs are the same bit for bit.

Gate layout: the four gates are stacked row-wise in one matrix, in the
order input | forget | cell | output, so a direction's w_h is (4H, H) and
each block of its input weights is (4H, D_in). Parameters and inputs put
the direction axis first; arrays the time loop indexes by step put it
right after the time axis. Every argument carries the direction axis,
so a call for one direction passes D = 1 views. All arrays are float64.
"""

import bisect

import numpy as np

BLOCK = 1 << 14  # values per block of a blocked update: 128 KiB of float64


def lstm_forward_seq(zx, w_h, lengths):
    """Run an LSTM left to right from zero state over B sequences at once,
    in D directions at once.

    zx is (T, D, B, 4H), time-major: zx[t, e, i] is sequence i's input
    pre-activation at step t in direction e, bias included, and w_h
    (D, 4H, H) holds each direction's recurrent weights. lengths (B,) is
    sorted in decreasing order with lengths[0] == T, so step t updates only
    the first n_active[t] rows; every direction runs the same lengths. zx
    is turned into the gate activations in place.

    Returns (hs, cs, gates, tanh_c): hs/cs are (T+1, D, B, H) with row 0
    the initial zero state, gates is zx, (T, D, B, 4H) post-activation in
    i|f|g|o order, and tanh_c is (T, D, B, H); everything the backward
    pass needs. Sequence i's last state in direction e is
    hs[lengths[i], e, i]; entries past a sequence's end are not computed
    (zero in hs, cs and tanh_c, and zx's own values in gates) and not read.
    """
    T, D, B, four_h = zx.shape
    H = w_h.shape[2]
    neg = [-int(n) for n in lengths]  # ascending
    if len(neg) != B or neg[0] != -T or neg[-1] > -1 or neg != sorted(neg):
        raise ValueError("lstm: lengths must be >= 1, in decreasing order, the first equal to T")
    n_active = [bisect.bisect_left(neg, -t) for t in range(T)]  # lengths > t
    hs = np.zeros((T + 1, D, B, H))
    cs = np.zeros((T + 1, D, B, H))
    tanh_c = np.zeros((T, D, B, H))
    w_ht = w_h.transpose(0, 2, 1)
    acts = zx.reshape(T, D, B, 4, H).transpose(0, 3, 1, 2, 4)  # gate-major views of zx
    h_prev, c_prev = hs[0], cs[0]
    # each step's views come from iterating the arrays, and are cut to the
    # n sequences still running only once some have ended
    for z, act, h, c, tc, n in zip(zx, acts, hs[1:], cs[1:], tanh_c, n_active):
        if n < B:
            z, act, h, c, tc = z[:, :n], act[:, :, :n], h[:, :n], c[:, :n], tc[:, :n]
            h_prev, c_prev = h_prev[:, :n], c_prev[:, :n]
        z += np.matmul(h_prev, w_ht)
        i, f, g, o = act
        tanh_g = np.tanh(g)
        # the sigmoid of every gate, over z's rows rather than the gate
        # views, then the cell gate's tanh put back
        np.exp(np.negative(z, z), z)
        np.add(z, 1.0, z)
        np.divide(1.0, z, z)
        g[...] = tanh_g
        np.multiply(f, c_prev, c)
        c += i * g
        np.multiply(o, np.tanh(c, tc), h)
        h_prev, c_prev = h, c
    return hs, cs, zx, tanh_c


def _add_product(target, a, b):
    """target += a @ b, a row block of about BLOCK values of target at a
    time, so the product is never held whole and each block of target is
    still in cache when it is added to."""
    rows = max(1, BLOCK // target.shape[1])
    for r in range(0, target.shape[0], rows):
        target[r:r + rows] += a[r:r + rows] @ b


def lstm_backward_seq(w_h, xs, hs, cs, gates, tanh_c, d_h_out, d_wx, d_wh, d_bias,
                      block_weights):
    """Backpropagate through time over one sequence in D directions at
    once, given d_h_out (T, D, H), the gradient of the loss w.r.t. each
    timestep's hidden output, and the forward kernel's outputs for that
    sequence ((T+1, D, H), (T+1, D, H), (T, D, 4H), (T, D, H)).

    w_h (D, 4H, H) holds each direction's recurrent weights and xs
    (D, T, D_in) its inputs. They were projected with the weights
    sum_j block_weights[j] * block_j of k = len(block_weights) (4H, D_in)
    input blocks, so the gradient of block j is dZ.T @ (block_weights[j] *
    xs). Direction e's gradients are added into d_wx[e] (k, 4H, D_in),
    d_wh[e] (4H, H) and d_bias[e] (4H,), not written: the caller passes
    the vectors it accumulates into, as arrays with a leading direction
    axis or as sequences of D arrays. Block j of d_wx[e] is not touched
    where block_weights[j] is zero, and no (T, k*D_in) input or
    (4H, k*D_in) temporary is made. Input gradients are not computed; the
    models feed frozen embeddings.
    """
    D, T = xs.shape[:2]
    H = w_h.shape[2]
    i, f, g, o = gates.reshape(T, D, 4, H).transpose(2, 0, 1, 3)
    # the local derivatives, which do not depend on the recurrence: d(c) by
    # the i, f and g pre-activations, d(h) by the o pre-activation, d(h)/d(c)
    dc_dz_ifg = np.empty((T, D, 3, H))
    np.multiply(g * i, 1.0 - i, out=dc_dz_ifg[:, :, 0])
    np.multiply(cs[:-1] * f, 1.0 - f, out=dc_dz_ifg[:, :, 1])
    np.multiply(i, 1.0 - g * g, out=dc_dz_ifg[:, :, 2])
    dh_dz_o = tanh_c * o * (1.0 - o)
    dh_dc = o * (1.0 - tanh_c * tanh_c)
    dz = np.empty((D, T, 4, H))
    dh = np.zeros((D, H))
    dc = np.zeros((D, H))
    for t in range(T - 1, -1, -1):
        dht = d_h_out[t] + dh
        dct = dht * dh_dc[t] + dc
        np.multiply(dc_dz_ifg[t], dct[:, None], out=dz[:, t, :3])
        np.multiply(dh_dz_o[t], dht, out=dz[:, t, 3])
        dc = dct * f[t]
        dh = np.matmul(dz[:, t].reshape(D, 1, 4 * H), w_h).reshape(D, H)
    dz = dz.reshape(D, T, 4 * H)
    for e, (wx, wh, bias) in enumerate(zip(d_wx, d_wh, d_bias)):
        dz_t = dz[e].T
        for j, weight in enumerate(block_weights):
            if weight:
                _add_product(wx[j], dz_t, xs[e] if weight == 1.0 else weight * xs[e])
        _add_product(wh, dz_t, hs[:-1, e])
        bias += dz[e].sum(0)
