"""LSTM sequence kernels — the hot inner loops of training and inference.

Both kernels run over a whole sequence, and every product that does not
depend on the recurrence runs once per sequence as one matrix product
(input-projection batching, Appleyard et al. 2016, arXiv:1604.01946):

- forward: the input projection xs @ w_x.T + bias for all T steps; only
  the recurrent product w_h @ h runs per timestep;
- backward: the gate gradients of all steps are kept as one (T, 4H)
  array dZ, and d_wx = dZ.T @ xs, d_wh = dZ.T @ hs[:-1], d_bias =
  dZ.sum(0), each written into the caller's array; only the recurrent
  product dZ[t] @ w_h runs per timestep.

No array the size of a weight matrix is created inside a time loop.

Gate layout: the four gates are stacked row-wise in one matrix, in the
order input | forget | cell | output, so w_x is (4H, D), w_h is (4H, H)
and bias is (4H,). All arrays are C-contiguous float64.
"""

import numpy as np


def lstm_forward_seq(w_x, w_h, bias, xs):
    """Run an LSTM left to right over xs (T, D) from zero state.

    Returns (hs, cs, gates, tanh_c) where hs/cs are (T+1, H) with row 0 the
    initial zero state, gates is (T, 4H) post-activation in i|f|g|o order and
    tanh_c is (T, H); everything the backward pass needs.
    """
    T = xs.shape[0]
    H = w_h.shape[1]
    hs = np.zeros((T + 1, H))
    cs = np.zeros((T + 1, H))
    tanh_c = np.empty((T, H))
    # pre-activations from the inputs, turned into the activations in place
    gates = xs @ w_x.T + bias
    for t in range(T):
        z = gates[t]
        z += w_h @ hs[t]
        i, f, g, o = act = z.reshape(4, H)
        tanh_g = np.tanh(g)
        act[:] = 1.0 / (1.0 + np.exp(-act))
        g[:] = tanh_g
        np.multiply(f, cs[t], out=cs[t + 1])
        cs[t + 1] += i * g
        np.tanh(cs[t + 1], out=tanh_c[t])
        np.multiply(o, tanh_c[t], out=hs[t + 1])
    return hs, cs, gates, tanh_c


def lstm_backward_seq(w_x, w_h, xs, hs, cs, gates, tanh_c, d_h_out, d_wx, d_wh, d_bias):
    """Backpropagate through time given d_h_out (T, H), the gradient of the
    loss w.r.t. each timestep's hidden output.

    Writes the weight gradients into d_wx (4H, D), d_wh (4H, H) and d_bias
    (4H,). Input gradients are not computed; the models feed frozen
    embeddings.
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
    np.matmul(dz.T, xs, out=d_wx)
    np.matmul(dz.T, hs[:-1], out=d_wh)
    dz.sum(0, out=d_bias)
