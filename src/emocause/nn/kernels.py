"""LSTM sequence kernels — the hot inner loops of training and inference.

Every product that does not depend on the recurrence runs outside the time
loop as one matrix product (input-projection batching, Appleyard et al.
2016, arXiv:1604.01946), here extended across sequences and directions:

- forward: over B sequences packed by length, in D = 1 or 2 directions
  at once. The caller hands in the negated input pre-activations
  -(W_x x + b) of every step of every sequence in every direction as one
  time-major, gate-major (T, 4, B, D, H) array; only the recurrent
  product runs per timestep, one np.matmul of the (D, n, H) states of the
  n sequences still running at that step with the (D, H, 4H) transposed
  recurrent weights, subtracted through its gate-major view. Sequences
  are sorted by decreasing length, so those n are the first n rows, and
  each gate's rows for them are one contiguous block: nothing is masked
  and no padded step is computed. Training runs the same kernel with
  B = 1.
- backward: one sequence at a time, in D directions at once, on the
  B = 1 views of the forward outputs. The local derivatives of all steps
  come from a few whole-array products of the gates and the cells, which
  the forward lays out slot for slot alike. The gate gradients of all
  steps are kept as one time-major (T, D, 4H) array dZ; only the
  recurrent product, one np.matmul of the (D, 1, 4H) gate gradients with
  the (D, 4H, H) recurrent weights, runs per timestep. Then the input
  weight blocks' dZ.T @ (p_k xs), dZ.T @ hs[:-1] and dZ.sum(0) are each
  added into the caller's arrays for all D directions at once, the two
  weight products one batched np.matmul per row block (_add_product), so
  no array the size of a weight matrix is created at all.

Holding the pre-activations negated makes each gate's sigmoid
1 / (1 + exp(z)) with no negation in the loop, and the cell gate's
tanh(-g) = -tanh(g); the cell update subtracts i * tanh(-g). Negation is
exact, (-a) - b is -(a + b) and numpy's tanh is odd bit for bit, so every
value is the one the plain LSTM recursion gives (tests/test_kernels.py
checks both identities on the installed numpy), up to the sign of an
exactly zero pre-activation, which the sigmoid does not see.

Each element's ops, and their order, are the same for D = 2 as for two
D = 1 calls, and the batched products run each direction's product as a
D = 1 call would, so the outputs are the same bit for bit.

Gate layout: the four gates are stacked row-wise in one matrix, in the
order input | forget | cell | output, so a direction's w_h is (4H, H) and
each block of its input weights is (4H, D_in). Parameters and inputs put
the direction axis first; arrays the time loop indexes by step put it
right before the H axis (after the gate and batch axes in the forward's
arrays, after the time axis in the backward's). Every argument carries
the direction axis, so a call for one direction passes D = 1 views. All
arrays are float64.
"""

import bisect

import numpy as np

BLOCK = 1 << 14  # values per block of a blocked update: 128 KiB of float64


def lstm_forward_seq(zx, w_h, lengths):
    """Run an LSTM left to right from zero state over B sequences at once,
    in D directions at once.

    zx is (T, 4, B, D, H), time-major and gate-major: zx[t, q, i, e] is
    the negated input pre-activation of gate q (i|f|g|o) of sequence i at
    step t in direction e, bias included, and w_h (D, 4H, H) holds each
    direction's recurrent weights. lengths (B,) is sorted in decreasing
    order with lengths[0] == T, so step t updates only the first
    n_active[t] sequences, a contiguous block of each gate's rows; every
    direction runs the same lengths. zx is turned into the gate
    activations in place.

    Returns (hs, gates, cells), everything the backward pass needs. cells
    is (T+1, 4, B, D, H), laid out like the gates: cells[t] holds
    -tanh(g_t), the cell and hidden states c_(t-1) and h_(t-1) step t
    reads, and tanh(c_t), so c_t and h_t are in row t + 1 and row 0 holds
    the initial zero state. hs is its (T+1, B, D, H) view of the hidden
    states. gates is zx, (T, 4, B, D, H), holding the i, f and o sigmoids
    (the g slot holds a value nothing uses). Sequence i's last state is
    hs[lengths[i], i]; entries past a sequence's end are not computed (zero
    in cells, and zx's own values in gates) and not read.
    """
    T, _, B, D, H = zx.shape
    neg = [-int(n) for n in lengths]  # ascending
    if len(neg) != B or neg[0] != -T or neg[-1] > -1 or neg != sorted(neg):
        raise ValueError("lstm: lengths must be >= 1, in decreasing order, the first equal to T")
    n_active = [bisect.bisect_left(neg, -t) for t in range(T)]  # lengths > t
    cells = np.zeros((T + 1, 4, B, D, H))
    hs = cells[:, 2]
    w_ht = w_h.transpose(0, 2, 1)
    # the recurrent product of a step, written as (D, n, 4H) and read
    # through its gate-major view, both views of one (B, D, 4H) buffer so
    # that the view's axes run in the gates' order; and (i * -tanh(g),
    # f * c_prev)
    buf = np.empty((B, D, 4 * H))
    rec, rec_gates = buf.transpose(1, 0, 2), buf.reshape(B, D, 4, H).transpose(2, 0, 1, 3)
    prod = np.empty((2, B, D, H))
    prod_i, prod_f = prod
    exp, add, subtract, multiply, divide, tanh, matmul = (
        np.exp, np.add, np.subtract, np.multiply, np.divide, np.tanh, np.matmul)
    # each step's views come from iterating pre-cut arrays, and are cut to
    # the n sequences still running only once some have ended; h_prev is
    # the (D, n, H) view of the states the recurrent product reads
    for z, i_f, g, o, tg_c, tg, c, tc, h, h_prev, n in zip(
            zx, zx[:, :2], zx[:, 2], zx[:, 3], cells[:, :2], cells[:, 0], cells[1:, 1],
            cells[:, 3], hs[1:], hs.transpose(0, 2, 1, 3), n_active):
        r, r_gates, p, p_i, p_f = rec, rec_gates, prod, prod_i, prod_f
        if n < B:
            z, i_f, tg_c = z[:, :n], i_f[:, :n], tg_c[:, :n]
            g, o, tg, c, tc, h = g[:n], o[:n], tg[:n], c[:n], tc[:n], h[:n]
            h_prev = h_prev[:, :n]
            r, r_gates, p = rec[:, :n], rec_gates[:, :n], prod[:, :n]
            p_i, p_f = p
        matmul(h_prev, w_ht, out=r)
        subtract(z, r_gates, z)
        tanh(g, tg)
        # the sigmoid of every gate over z's rows, g's slot included
        exp(z, z)
        add(z, 1.0, z)
        divide(1.0, z, z)
        multiply(i_f, tg_c, p)
        subtract(p_f, p_i, c)
        multiply(o, tanh(c, tc), h)
    return hs, zx, cells


def _add_product(target, a, b):
    """target += a @ b over any leading (direction) axes, a row block of
    about BLOCK values of each matrix of target at a time, so the product
    is never held whole and each block of target is still in cache when it
    is added to. The row blocks do not depend on the leading axes, so each
    matrix gets the products a call for it alone would add."""
    rows = max(1, BLOCK // target.shape[-1])
    for r in range(0, target.shape[-2], rows):
        target[..., r:r + rows, :] += np.matmul(a[..., r:r + rows, :], b)


def lstm_backward_seq(w_h, xs, gates, cells, d_h_out, d_wx, d_wh, d_bias, block_weights):
    """Backpropagate through time over one sequence in D directions at
    once, given d_h_out (T, D, H), the gradient of the loss w.r.t. each
    timestep's hidden output, and the forward kernel's gates (T, 4, D, H)
    and cells (T+1, 4, D, H) for that sequence.

    w_h (D, 4H, H) holds each direction's recurrent weights and xs
    (D, T, D_in) its inputs. They were projected with the weights
    sum_j block_weights[j] * block_j of k = len(block_weights) (4H, D_in)
    input blocks, so the gradient of block j is dZ.T @ (block_weights[j] *
    xs). The gradients are added into d_wx (D, k, 4H, D_in), d_wh
    (D, 4H, H) and d_bias (D, 4H), not written: the caller passes the
    arrays it accumulates into, with the call's direction axis first (for
    both directions, strided views of one flat vector). Block j of d_wx is
    not touched where block_weights[j] is zero, and no (T, k*D_in) input
    or (4H, k*D_in) temporary is made. Input gradients are not computed;
    the models feed frozen embeddings.
    """
    D, T = xs.shape[:2]
    H = w_h.shape[2]
    hs, cells = cells[:T, 2], cells[:T]  # h_(t-1), which step t's recurrent weights multiply
    # The local derivatives, which do not depend on the recurrence, from a
    # few products of whole (T, 4, D, H) arrays, the cells lining up with
    # the gates slot for slot. local's slots are d(c) by the i, f and g
    # pre-activations and d(h) by the o one: (g*i)*(1-i), (c_prev*f)*(1-f),
    # i*(1-g*g) and (tanh(c)*o)*(1-o); dh_dc is d(h)/d(c), o*(1-tanh(c)^2).
    # The cells hold -g, so slot i is ((-g)*i)*(i-1), the same bits.
    one_minus = np.subtract(1.0, gates)
    np.subtract(gates[:, 0], 1.0, out=one_minus[:, 0])
    local = np.multiply(cells, gates)
    local *= one_minus
    squares = np.multiply(cells, cells)
    np.subtract(1.0, squares, out=squares)
    np.multiply(gates[:, 0], squares[:, 0], out=local[:, 2])
    dh_dc = np.multiply(gates[:, 3], squares[:, 3])
    dz = np.empty((T, D, 4, H))
    dh = np.zeros((D, 1, H))
    dc = np.zeros((D, H))
    dht = np.empty((D, H))
    dct = np.empty((D, H))
    dh_flat = dh.reshape(D, H)
    add, multiply, matmul = np.add, np.multiply, np.matmul
    # each step's views come from iterating pre-cut arrays, last step first
    dz_gates = dz.transpose(0, 2, 1, 3)  # (T, 4, D, H)
    for d_out, dhdc, loc_ifg, loc_o, f_t, dz_ifg, dz_o, dz_row in zip(
            d_h_out[::-1], dh_dc[::-1], local[::-1, :3], local[::-1, 3], gates[::-1, 1],
            dz_gates[::-1, :3], dz_gates[::-1, 3], dz.reshape(T, D, 1, 4 * H)[::-1]):
        add(d_out, dh_flat, dht)
        multiply(dht, dhdc, dct)
        add(dct, dc, dct)
        multiply(loc_ifg, dct, dz_ifg)
        multiply(loc_o, dht, dz_o)
        multiply(dct, f_t, dc)
        matmul(dz_row, w_h, out=dh)
    dz = dz.reshape(T, D, 4 * H)
    dz_t = dz.transpose(1, 2, 0)  # (D, 4H, T)
    for j, weight in enumerate(block_weights):
        if weight:
            _add_product(d_wx[:, j], dz_t, xs if weight == 1.0 else weight * xs)
    _add_product(d_wh, dz_t, hs.transpose(1, 0, 2))
    d_bias += dz.sum(0)
