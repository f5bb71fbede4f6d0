/*
 * Native kernels: the sequential loops of the partitioner and the
 * integer set-up around them, in C.
 *
 * The loops (FM moves, greedy matching, greedy vector owners) are
 * statement-for-statement ports of the reference loops in
 * python_backend.py and kernels/spmv.py: the same LIFO bucket
 * discipline, the same cursor tightening, the same tie-breaks, and the
 * same floating-point operations in the same order (matching scores,
 * balance metrics).  The set-up kernels (FM pin counts and gains,
 * contraction, identical-net merging, the transposed incidence) are
 * integer-only and produce the arrays the NumPy reference produces,
 * element for element.  For a fixed hypergraph and seed the native and
 * the python backend therefore return bit-identical partitions,
 * matchings, coarse hypergraphs and owners.  The RNG is consumed
 * outside these kernels, by the shared Python code that calls them.
 *
 * The library is built by native.py with
 *     cc -O2 -std=c99 -shared -fPIC -ffp-contract=off
 * and never with -ffast-math or -Ofast: reassociating the score sums or
 * contracting a multiply-add would change tie-breaks, and with them the
 * answers.  Every array argument is checked in Python (dtype, C order,
 * length) before the call; this file trusts its inputs.
 *
 * Types: every index, weight, cost and gain is int64_t; flags are
 * uint8_t (NumPy bool arrays viewed as uint8); scores are double.
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

typedef int64_t i64;
typedef uint8_t u8;

/* Bumped whenever a signature below changes; native.py checks it. */
#define REPRO_NATIVE_ABI 2

i64 repro_native_abi(void) { return REPRO_NATIVE_ABI; }

/* ------------------------------------------------------------------ */
/* Gain buckets: doubly linked lists, one per (side, gain) pair.      */
/* ------------------------------------------------------------------ */
typedef struct {
    i64 *head;      /* nsides x nb bucket heads, -1 = empty */
    i64 nb;         /* buckets per side */
    i64 *nxt;
    i64 *prv;
    i64 *bgain;     /* current gain of each vertex */
    u8 *inside;     /* vertex filed in a bucket */
    u8 *locked;     /* vertex moved in this pass */
    i64 maxptr[2];  /* highest possibly non-empty bucket per side */
    i64 offset;     /* gain g lives in bucket g + offset */
} Buckets;

/* File free vertex u (on side su) at the head of its bucket. */
static void bucket_insert(Buckets *B, i64 u, i64 su)
{
    i64 b = B->bgain[u] + B->offset;
    i64 first = B->head[su * B->nb + b];
    B->nxt[u] = first;
    B->prv[u] = -1;
    if (first != -1)
        B->prv[first] = u;
    B->head[su * B->nb + b] = u;
    B->inside[u] = 1;
    if (b > B->maxptr[su])
        B->maxptr[su] = b;
}

/* Unlink vertex u from its bucket on side su. */
static void bucket_remove(Buckets *B, i64 u, i64 su)
{
    if (!B->inside[u])
        return;
    i64 p = B->prv[u];
    i64 n2 = B->nxt[u];
    if (p != -1)
        B->nxt[p] = n2;
    else
        B->head[su * B->nb + B->bgain[u] + B->offset] = n2;
    if (n2 != -1)
        B->prv[n2] = p;
    B->inside[u] = 0;
}

/* Apply a gain delta to a free vertex, (re-)filing it in the buckets. */
static void gain_touch(Buckets *B, const i64 *parts, i64 u, i64 delta)
{
    if (B->inside[u]) {
        i64 su = parts[u];
        i64 g = B->bgain[u];
        i64 p = B->prv[u];
        i64 n2 = B->nxt[u];
        if (p != -1)
            B->nxt[p] = n2;
        else
            B->head[su * B->nb + g + B->offset] = n2;
        if (n2 != -1)
            B->prv[n2] = p;
        g += delta;
        i64 b = g + B->offset;
        i64 first = B->head[su * B->nb + b];
        B->nxt[u] = first;
        B->prv[u] = -1;
        if (first != -1)
            B->prv[first] = u;
        B->head[su * B->nb + b] = u;
        B->bgain[u] = g;
        if (b > B->maxptr[su])
            B->maxptr[su] = b;
    } else {
        B->bgain[u] += delta;
        if (!B->locked[u])
            bucket_insert(B, u, parts[u]);
    }
}

/*
 * Highest-gain vertex on side s with vwgt[v] <= room, or -1.  Scans the
 * buckets downward from the side's cursor, tightening the cursor past
 * empty buckets exactly like the reference implementation.
 */
static i64 best_movable(Buckets *B, const i64 *vwgt, i64 s, i64 room)
{
    i64 b = B->maxptr[s];
    while (b >= 0) {
        i64 v = B->head[s * B->nb + b];
        if (v == -1) {
            B->maxptr[s] = b - 1;
            b -= 1;
            continue;
        }
        while (v != -1) {
            if (vwgt[v] <= room)
                return v;
            v = B->nxt[v];
        }
        b -= 1;
    }
    return -1;
}

/* max of the per-side weight/ceiling ratios (ceiling 0 -> 0/1 flag). */
static double balance_metric(i64 w0, i64 w1, i64 maxw0, i64 maxw1)
{
    double m0, m1;
    if (maxw0 != 0)
        m0 = (double)w0 / (double)maxw0;
    else
        m0 = w0 > 0 ? 1.0 : 0.0;
    if (maxw1 != 0)
        m1 = (double)w1 / (double)maxw1;
    else
        m1 = w1 > 0 ? 1.0 : 0.0;
    return m0 >= m1 ? m0 : m1;
}

/*
 * Per-pass FM set-up, the port of state.py's compute_fm_setup: per-net
 * pin counts on each side, each vertex's initial gain, and the
 * bucket-seeding mask (every vertex, or only the vertices of cut nets
 * when boundary_only).  One visit per net, two sweeps over its pins.
 * Returns the weight on side 1.  Called by repro_fm_move_loop; exported
 * so the set-up can be compared with the reference on its own.
 */
i64 repro_fm_setup(
    i64 nverts, i64 nnets, const i64 *xpins, const i64 *pins,
    const i64 *ncost, const i64 *vwgt, const i64 *parts,
    i64 *pc0, i64 *pc1, i64 *bgain, u8 *insert_mask, i64 boundary_only)
{
    i64 w1 = 0;
    for (i64 v = 0; v < nverts; v++) {
        w1 += parts[v] * vwgt[v];
        bgain[v] = 0;
        insert_mask[v] = !boundary_only;
    }
    for (i64 n = 0; n < nnets; n++) {
        i64 p0 = xpins[n];
        i64 p1 = xpins[n + 1];
        i64 c1 = 0;
        for (i64 k = p0; k < p1; k++)
            c1 += parts[pins[k]];
        i64 c0 = (p1 - p0) - c1;
        pc0[n] = c0;
        pc1[n] = c1;
        /* gain of a pin on side s: cost if it is alone on s, minus cost
         * if no pin is on the other side. */
        i64 c = ncost[n];
        i64 g0 = c * ((i64)(c0 == 1) - (i64)(c1 == 0));
        i64 g1 = c * ((i64)(c1 == 1) - (i64)(c0 == 0));
        int cut = c0 > 0 && c1 > 0;
        for (i64 k = p0; k < p1; k++) {
            i64 v = pins[k];
            bgain[v] += parts[v] ? g1 : g0;
            if (cut)
                insert_mask[v] = 1;
        }
    }
    return w1;
}

/*
 * The 2-way FM pass: the set-up above, then the sequential move loop.
 * Mutates parts; pc0, pc1, bgain and insert_mask are scratch.
 *
 * Returns 1 when the best prefix is feasible (its cut reduction in
 * *best_cum_out) and 0 otherwise (*best_cum_out = 0).  The best-prefix
 * rollback is already applied to parts.
 */
i64 repro_fm_move_loop(
    i64 nverts, i64 nnets, i64 nb,
    const i64 *xpins, const i64 *pins, const i64 *xnets, const i64 *vnets,
    const i64 *ncost, const i64 *vwgt, i64 *parts, i64 *pc0, i64 *pc1,
    i64 *bgain, u8 *insert_mask, const i64 *insert_order,
    i64 *head, i64 *nxt, i64 *prv, u8 *inside, u8 *locked, i64 *moved,
    i64 offset, i64 maxw0, i64 maxw1, i64 slack, i64 stall_limit,
    i64 boundary_only, i64 total_weight, i64 *best_cum_out)
{
    i64 w1_init = repro_fm_setup(nverts, nnets, xpins, pins, ncost, vwgt,
                                 parts, pc0, pc1, bgain, insert_mask,
                                 boundary_only);
    i64 w0_init = total_weight - w1_init;
    Buckets B;
    B.head = head;
    B.nb = nb;
    B.nxt = nxt;
    B.prv = prv;
    B.bgain = bgain;
    B.inside = inside;
    B.locked = locked;
    B.offset = offset;
    for (i64 i = 0; i < 2 * nb; i++)
        head[i] = -1;
    for (i64 i = 0; i < nverts; i++) {
        inside[i] = 0;
        locked[i] = 0;
    }
    B.maxptr[0] = -1;
    B.maxptr[1] = -1;

    for (i64 i = 0; i < nverts; i++) {
        i64 v = insert_order[i];
        if (insert_mask[v])
            bucket_insert(&B, v, parts[v]);
    }

    i64 w0 = w0_init;
    i64 w1 = w1_init;
    int initially_feasible = w0 <= maxw0 && w1 <= maxw1;
    int best_feasible = initially_feasible;
    i64 best_cum = 0;
    i64 best_len = 0;
    double best_metric = balance_metric(w0, w1, maxw0, maxw1);
    i64 cum = 0;
    i64 n_moved = 0;
    i64 stall = 0;

    for (;;) {
        int overweight0 = w0 > maxw0;
        int overweight1 = w1 > maxw1;
        i64 best_v = -1;
        i64 best_side = -1;
        i64 best_g = 0;
        for (i64 s = 0; s < 2; s++) {
            /* While infeasible, only moves off the overweight side help. */
            if (overweight0 && s != 0)
                continue;
            if (overweight1 && s != 1)
                continue;
            i64 room;
            if (s == 0)
                room = maxw1 + slack - w1;
            else
                room = maxw0 + slack - w0;
            i64 v = best_movable(&B, vwgt, s, room);
            if (v == -1)
                continue;
            i64 g = bgain[v];
            if (best_v == -1) {
                best_v = v;
                best_side = s;
                best_g = g;
            } else if (g > best_g) {
                best_v = v;
                best_side = s;
                best_g = g;
            } else if (g == best_g) {
                i64 ws = s == 0 ? w0 : w1;
                i64 wb = best_side == 0 ? w0 : w1;
                if (ws > wb) {
                    best_v = v;
                    best_side = s;
                    best_g = g;
                }
            }
        }
        if (best_v == -1)
            break;

        i64 v = best_v;
        i64 s = best_side;
        i64 t = 1 - s;
        bucket_remove(&B, v, s);
        locked[v] = 1;

        /* Classic FM gain-update rules around the move of v from s to t. */
        for (i64 idx = xnets[v]; idx < xnets[v + 1]; idx++) {
            i64 n = vnets[idx];
            i64 c = ncost[n];
            if (c == 0)
                continue;
            i64 p0 = xpins[n];
            i64 p1 = xpins[n + 1];
            i64 pcT = t == 1 ? pc1[n] : pc0[n];
            if (pcT == 0) {
                for (i64 k = p0; k < p1; k++) {
                    i64 u = pins[k];
                    if (!locked[u])
                        gain_touch(&B, parts, u, c);
                }
            } else if (pcT == 1) {
                for (i64 k = p0; k < p1; k++) {
                    i64 u = pins[k];
                    if (parts[u] == t) {
                        if (!locked[u])
                            gain_touch(&B, parts, u, -c);
                        break;
                    }
                }
            }
            i64 pcF;
            if (s == 0) {
                pc0[n] -= 1;
                pc1[n] += 1;
                pcF = pc0[n];
            } else {
                pc1[n] -= 1;
                pc0[n] += 1;
                pcF = pc1[n];
            }
            if (pcF == 0) {
                for (i64 k = p0; k < p1; k++) {
                    i64 u = pins[k];
                    if (!locked[u])
                        gain_touch(&B, parts, u, -c);
                }
            } else if (pcF == 1) {
                for (i64 k = p0; k < p1; k++) {
                    i64 u = pins[k];
                    if (u != v && parts[u] == s) {
                        if (!locked[u])
                            gain_touch(&B, parts, u, c);
                        break;
                    }
                }
            }
        }

        parts[v] = t;
        if (s == 0) {
            w0 -= vwgt[v];
            w1 += vwgt[v];
        } else {
            w1 -= vwgt[v];
            w0 += vwgt[v];
        }
        cum += best_g;
        moved[n_moved] = v;
        n_moved += 1;

        int feasible_now = w0 <= maxw0 && w1 <= maxw1;
        int improved = 0;
        if (feasible_now) {
            double metric = balance_metric(w0, w1, maxw0, maxw1);
            if (!best_feasible || cum > best_cum
                || (cum == best_cum && metric < best_metric)) {
                best_feasible = 1;
                best_cum = cum;
                best_len = n_moved;
                best_metric = metric;
                improved = 1;
            }
        }
        if (improved) {
            stall = 0;
        } else {
            stall += 1;
            if (stall > stall_limit && best_feasible)
                break;
        }
    }

    /* Roll back to the best prefix. */
    for (i64 i = best_len; i < n_moved; i++) {
        i64 v = moved[i];
        parts[v] = 1 - parts[v];
    }

    if (!best_feasible) {
        *best_cum_out = 0;
        return 0;
    }
    *best_cum_out = best_cum;
    return 1;
}

/* ------------------------------------------------------------------ */
/* k-way FM on the connectivity-(lambda - 1) metric.                  */
/* ------------------------------------------------------------------ */

/*
 * Re-key free vertex u to gain newg in the single k-way bucket array
 * (unlink if filed, else lazy-insert; LIFO at the new bucket head).
 */
static void kway_refile(Buckets *B, i64 u, i64 newg)
{
    if (B->inside[u]) {
        i64 p = B->prv[u];
        i64 n2 = B->nxt[u];
        if (p != -1)
            B->nxt[p] = n2;
        else
            B->head[B->bgain[u] + B->offset] = n2;
        if (n2 != -1)
            B->prv[n2] = p;
    } else {
        B->inside[u] = 1;
    }
    B->bgain[u] = newg;
    i64 b = newg + B->offset;
    i64 f = B->head[b];
    B->nxt[u] = f;
    B->prv[u] = -1;
    if (f != -1)
        B->prv[f] = u;
    B->head[b] = u;
    if (b > B->maxptr[0])
        B->maxptr[0] = b;
}

/* max over parts of the weight/ceiling ratio (ceiling 0 -> 0/1 flag). */
static double kway_balance_metric(const i64 *pw, const i64 *ceilings, i64 k)
{
    double metric = 0.0;
    for (i64 p = 0; p < k; p++) {
        i64 cl = ceilings[p];
        double m;
        if (cl != 0)
            m = (double)pw[p] / (double)cl;
        else
            m = pw[p] > 0 ? 1.0 : 0.0;
        if (m > metric)
            metric = m;
    }
    return metric;
}

/*
 * The sequential k-way FM move loop; mutates parts, occ (nnets x k),
 * conn (nverts x k), pw and the cached best moves (base, bto, bgain).
 *
 * Returns like repro_fm_move_loop, with the best-prefix rollback
 * already applied to parts.
 */
i64 repro_kway_move_loop(
    i64 nverts, i64 k, i64 nb,
    const i64 *xpins, const i64 *pins, const i64 *xnets, const i64 *vnets,
    const i64 *ncost, const i64 *vwgt, i64 *parts, i64 *occ, i64 *conn,
    i64 *pw, const i64 *ceilings, i64 *base, i64 *bto, i64 *bgain,
    const u8 *insert_mask, const i64 *insert_order,
    i64 *head, i64 *nxt, i64 *prv, u8 *inside, u8 *locked,
    i64 *moved, i64 *moved_from,
    i64 offset, i64 slack, i64 stall_limit, i64 *best_cum_out)
{
    Buckets B;
    B.head = head;
    B.nb = nb;
    B.nxt = nxt;
    B.prv = prv;
    B.bgain = bgain;
    B.inside = inside;
    B.locked = locked;
    B.offset = offset;
    for (i64 i = 0; i < nb; i++)
        head[i] = -1;
    for (i64 i = 0; i < nverts; i++) {
        inside[i] = 0;
        locked[i] = 0;
    }
    B.maxptr[0] = -1;

    for (i64 i = 0; i < nverts; i++) {
        i64 v = insert_order[i];
        if (insert_mask[v]) {
            i64 b = bgain[v] + offset;
            i64 f = head[b];
            nxt[v] = f;
            prv[v] = -1;
            if (f != -1)
                prv[f] = v;
            head[b] = v;
            inside[v] = 1;
            if (b > B.maxptr[0])
                B.maxptr[0] = b;
        }
    }

    i64 n_over = 0;
    for (i64 p = 0; p < k; p++) {
        if (pw[p] > ceilings[p])
            n_over += 1;
    }
    int best_feasible = n_over == 0;
    i64 best_cum = 0;
    i64 best_len = 0;
    double best_metric = kway_balance_metric(pw, ceilings, k);
    i64 cum = 0;
    i64 n_moved = 0;
    i64 stall = 0;

    for (;;) {
        /* Selection: best-gain-first, first admissible vertex wins. */
        i64 best_v = -1;
        /* Transit slack only while feasible (see the reference backend). */
        i64 sl = n_over == 0 ? slack : 0;
        for (;;) { /* rescan after any up-refile (see the reference) */
            int raised = 0;
            i64 b = B.maxptr[0];
            while (b >= 0) {
                i64 u = head[b];
                if (u == -1) {
                    /* Tighten only if no up-refile raised the cursor. */
                    if (B.maxptr[0] == b)
                        B.maxptr[0] = b - 1;
                    b -= 1;
                    continue;
                }
                while (u != -1) {
                    i64 s = parts[u];
                    if (n_over > 0 && pw[s] <= ceilings[s]) {
                        u = nxt[u];
                        continue;
                    }
                    i64 wu = vwgt[u];
                    i64 t = bto[u];
                    if (pw[t] + wu <= ceilings[t] + sl) {
                        best_v = u;
                        break;
                    }
                    /* Cached target is full: re-aim at the best target
                     * with room (see the reference backend). */
                    i64 bt2 = -1;
                    i64 bc2 = -1;
                    for (i64 t2 = 0; t2 < k; t2++) {
                        if (t2 == s)
                            continue;
                        if (pw[t2] + wu > ceilings[t2] + sl)
                            continue;
                        i64 cval = conn[u * k + t2];
                        if (cval > bc2) {
                            bc2 = cval;
                            bt2 = t2;
                        }
                    }
                    if (bt2 == -1) {
                        u = nxt[u];
                        continue;
                    }
                    i64 newg = base[u] + bc2;
                    bto[u] = bt2;
                    if (newg == bgain[u]) {
                        best_v = u;
                        break;
                    }
                    if (newg > bgain[u])
                        raised = 1;
                    i64 unext = nxt[u];
                    kway_refile(&B, u, newg);
                    u = unext;
                }
                if (best_v != -1)
                    break;
                b -= 1;
            }
            if (best_v != -1 || !raised)
                break;
        }
        if (best_v == -1)
            break;

        i64 v = best_v;
        i64 s = parts[v];
        i64 t = bto[v];
        i64 g = bgain[v];
        i64 p_ = prv[v];
        i64 n2 = nxt[v];
        if (p_ != -1)
            nxt[p_] = n2;
        else
            head[g + offset] = n2;
        if (n2 != -1)
            prv[n2] = p_;
        inside[v] = 0;
        locked[v] = 1;

        /* k-way gain-update rules around the move of v from s to t. */
        for (i64 idx = xnets[v]; idx < xnets[v + 1]; idx++) {
            i64 n = vnets[idx];
            i64 c = ncost[n];
            if (c == 0)
                continue;
            i64 p0 = xpins[n];
            i64 p1 = xpins[n + 1];
            i64 ot = occ[n * k + t];
            if (ot == 0) {
                for (i64 kk = p0; kk < p1; kk++) {
                    i64 u = pins[kk];
                    if (locked[u])
                        continue;
                    conn[u * k + t] += c;
                    i64 bu = bto[u];
                    if (bu == t) {
                        kway_refile(&B, u, bgain[u] + c);
                    } else {
                        i64 nc = conn[u * k + t];
                        i64 bc = conn[u * k + bu];
                        if (nc > bc) {
                            bto[u] = t;
                            kway_refile(&B, u, bgain[u] + nc - bc);
                        } else if (nc == bc && t < bu) {
                            bto[u] = t;
                        }
                    }
                }
            } else if (ot == 1) {
                for (i64 kk = p0; kk < p1; kk++) {
                    i64 u = pins[kk];
                    if (parts[u] == t) {
                        if (!locked[u]) {
                            base[u] -= c;
                            kway_refile(&B, u, bgain[u] - c);
                        }
                        break;
                    }
                }
            }
            occ[n * k + s] -= 1;
            occ[n * k + t] += 1;
            i64 ns = occ[n * k + s];
            if (ns == 0) {
                for (i64 kk = p0; kk < p1; kk++) {
                    i64 u = pins[kk];
                    if (locked[u])
                        continue;
                    conn[u * k + s] -= c;
                    if (bto[u] == s) {
                        i64 pu = parts[u];
                        i64 bt2 = -1;
                        i64 bc2 = -1;
                        for (i64 t2 = 0; t2 < k; t2++) {
                            if (t2 == pu)
                                continue;
                            i64 cval = conn[u * k + t2];
                            if (cval > bc2) {
                                bc2 = cval;
                                bt2 = t2;
                            }
                        }
                        bto[u] = bt2;
                        i64 newg = base[u] + bc2;
                        if (newg != bgain[u])
                            kway_refile(&B, u, newg);
                    }
                }
            } else if (ns == 1) {
                for (i64 kk = p0; kk < p1; kk++) {
                    i64 u = pins[kk];
                    if (u != v && parts[u] == s) {
                        if (!locked[u]) {
                            base[u] += c;
                            kway_refile(&B, u, bgain[u] + c);
                        }
                        break;
                    }
                }
            }
        }

        parts[v] = t;
        i64 wv = vwgt[v];
        if (pw[s] > ceilings[s] && pw[s] - wv <= ceilings[s])
            n_over -= 1;
        pw[s] -= wv;
        if (pw[t] <= ceilings[t] && pw[t] + wv > ceilings[t])
            n_over += 1;
        pw[t] += wv;
        cum += g;
        moved[n_moved] = v;
        moved_from[n_moved] = s;
        n_moved += 1;

        int improved = 0;
        if (n_over == 0) {
            double metric = kway_balance_metric(pw, ceilings, k);
            if (!best_feasible || cum > best_cum
                || (cum == best_cum && metric < best_metric)) {
                best_feasible = 1;
                best_cum = cum;
                best_len = n_moved;
                best_metric = metric;
                improved = 1;
            }
        }
        if (improved) {
            stall = 0;
        } else {
            stall += 1;
            if (stall > stall_limit && best_feasible)
                break;
        }
    }

    /* Roll back to the best prefix (each vertex moved at most once). */
    for (i64 i = best_len; i < n_moved; i++)
        parts[moved[i]] = moved_from[i];

    if (!best_feasible) {
        *best_cum_out = 0;
        return 0;
    }
    *best_cum_out = best_cum;
    return 1;
}

/* ------------------------------------------------------------------ */
/* Greedy matching.                                                   */
/* ------------------------------------------------------------------ */

/*
 * Greedy matching sweep in the given visit order; fills match (which
 * must arrive all -1) with partner ids.  score must arrive all 0.0 and
 * is left that way; touched is scratch of length nverts.  restrict is
 * read only when has_restrict is nonzero.
 */
void repro_match_loop(
    i64 nverts,
    const i64 *xpins, const i64 *pins, const i64 *xnets, const i64 *vnets,
    const i64 *ncost, const i64 *vwgt, const i64 *sizes, const i64 *order,
    i64 *match, double *score, i64 *touched,
    i64 absorption, i64 max_net, i64 max_cluster_weight,
    const i64 *restrict_parts, i64 has_restrict)
{
    for (i64 oi = 0; oi < nverts; oi++) {
        i64 v = order[oi];
        if (match[v] != -1)
            continue;
        i64 wv = vwgt[v];
        i64 ntouched = 0;
        for (i64 i = xnets[v]; i < xnets[v + 1]; i++) {
            i64 n = vnets[i];
            i64 sz = sizes[n];
            if (sz < 2 || sz > max_net)
                continue;
            i64 c = ncost[n];
            if (c == 0)
                continue;
            double w;
            if (absorption)
                w = (double)c / (double)(sz - 1);
            else
                w = (double)c;
            for (i64 k = xpins[n]; k < xpins[n + 1]; k++) {
                i64 u = pins[k];
                if (u == v || match[u] != -1)
                    continue;
                if (has_restrict && restrict_parts[u] != restrict_parts[v])
                    continue;
                if (wv + vwgt[u] > max_cluster_weight)
                    continue;
                if (score[u] == 0.0) {
                    touched[ntouched] = u;
                    ntouched += 1;
                }
                score[u] += w;
            }
        }
        if (ntouched > 0) {
            i64 best_u = -1;
            double best_s = 0.0;
            for (i64 j = 0; j < ntouched; j++) {
                i64 u = touched[j];
                double s = score[u];
                /* Tie-break towards the lighter candidate: keeps coarse
                 * weights even, which preserves partitionability. */
                if (s > best_s
                    || (s == best_s && best_u != -1
                        && vwgt[u] < vwgt[best_u])) {
                    best_u = u;
                    best_s = s;
                }
                score[u] = 0.0;
            }
            if (best_u != -1) {
                match[v] = best_u;
                match[best_u] = v;
            }
        }
    }
}

/* ------------------------------------------------------------------ */
/* Per-level set-up: contraction, identical-net merging, transpose.   */
/* ------------------------------------------------------------------ */

static int cmp_i64(const void *a, const void *b)
{
    i64 x = *(const i64 *)a;
    i64 y = *(const i64 *)b;
    return (x > y) - (x < y);
}

/* Sort a[0..n) ascending: insertion sort for the short nets that make
 * up most of a hypergraph, the C library's sort for the long ones. */
static void sort_i64(i64 *a, i64 n)
{
    if (n > 16) {
        qsort(a, (size_t)n, sizeof(i64), cmp_i64);
        return;
    }
    for (i64 i = 1; i < n; i++) {
        i64 x = a[i];
        i64 j = i - 1;
        while (j >= 0 && a[j] > x) {
            a[j + 1] = a[j];
            j -= 1;
        }
        a[j + 1] = x;
    }
}

/*
 * Contraction of the pins: map each net's pins through cmap, drop the
 * duplicates, sort them ascending, and keep only the nets left with at
 * least two pins (a smaller net can never be cut) with their costs.
 * stamp is scratch of length nstamp > max(cmap).  The outputs have room
 * for every net and pin; returns the number of nets kept.
 */
i64 repro_contract_pins(
    i64 nnets, i64 nstamp, const i64 *xpins, const i64 *pins,
    const i64 *cmap, const i64 *ncost, i64 *stamp,
    i64 *out_xpins, i64 *out_pins, i64 *out_ncost)
{
    for (i64 c = 0; c < nstamp; c++)
        stamp[c] = -1;
    i64 nout = 0;
    i64 top = 0;
    out_xpins[0] = 0;
    for (i64 n = 0; n < nnets; n++) {
        i64 start = top;
        for (i64 k = xpins[n]; k < xpins[n + 1]; k++) {
            i64 c = cmap[pins[k]];
            if (stamp[c] != n) {
                stamp[c] = n;
                out_pins[top++] = c;
            }
        }
        if (top - start < 2) {
            top = start;
            continue;
        }
        sort_i64(out_pins + start, top - start);
        out_ncost[nout] = ncost[n];
        nout += 1;
        out_xpins[nout] = top;
    }
    return nout;
}

/* Hash of one pin slice (its length included). */
static uint64_t slice_hash(const i64 *p, i64 s)
{
    uint64_t h = 0x9e3779b97f4a7c15ULL ^ (uint64_t)s;
    for (i64 k = 0; k < s; k++) {
        h ^= (uint64_t)p[k];
        h *= 0xff51afd7ed558ccdULL;
        h ^= h >> 32;
    }
    h *= 0xc4ceb9fe1a85ec53ULL;
    return h ^ (h >> 29);
}

/*
 * Identical-net merging.  Pins must be sorted within each net, so two
 * nets are identical iff their pin slices are equal.  Each group of
 * identical nets is represented by its lowest net id and carries the
 * group's summed cost; the survivors keep ascending order.  table is
 * scratch of 2 * tsize entries (tsize a power of two above nnets: open
 * addressing, one (net, hash) pair per slot), grp scratch of nnets.
 * Returns the number of surviving nets; when that is nnets the outputs
 * are left unwritten.
 */
i64 repro_merge_identical(
    i64 nnets, const i64 *xpins, const i64 *pins, const i64 *ncost,
    i64 *table, i64 tsize, i64 *grp,
    i64 *out_xpins, i64 *out_pins, i64 *out_ncost)
{
    for (i64 i = 0; i < tsize; i++)
        table[2 * i] = -1;
    i64 nsurv = 0;
    for (i64 n = 0; n < nnets; n++) {
        const i64 *p = pins + xpins[n];
        i64 s = xpins[n + 1] - xpins[n];
        i64 h = (i64)slice_hash(p, s);
        i64 slot = h & (tsize - 1);
        for (;;) {
            i64 m = table[2 * slot];
            if (m == -1) {
                table[2 * slot] = n;
                table[2 * slot + 1] = h;
                grp[n] = nsurv++;
                break;
            }
            if (table[2 * slot + 1] == h && xpins[m + 1] - xpins[m] == s
                && memcmp(pins + xpins[m], p, (size_t)s * sizeof(i64)) == 0) {
                grp[n] = -1 - grp[m]; /* a duplicate of group grp[m] */
                break;
            }
            slot = (slot + 1) & (tsize - 1);
        }
    }
    if (nsurv == nnets)
        return nsurv;
    i64 top = 0;
    out_xpins[0] = 0;
    for (i64 n = 0; n < nnets; n++) {
        i64 g = grp[n];
        if (g < 0) {
            out_ncost[-1 - g] += ncost[n]; /* its representative came first */
            continue;
        }
        for (i64 k = xpins[n]; k < xpins[n + 1]; k++)
            out_pins[top++] = pins[k];
        out_ncost[g] = ncost[n];
        out_xpins[g + 1] = top;
    }
    return nsurv;
}

/*
 * The transposed incidence by counting sort: xnets (nverts + 1) and
 * vnets (npins) list each vertex's nets in ascending net order, the
 * order a stable sort of the pins gives.
 */
void repro_transpose(
    i64 nverts, i64 nnets, const i64 *xpins, const i64 *pins,
    i64 *xnets, i64 *vnets)
{
    for (i64 v = 0; v <= nverts; v++)
        xnets[v] = 0;
    for (i64 k = 0; k < xpins[nnets]; k++)
        xnets[pins[k] + 1] += 1;
    for (i64 v = 0; v < nverts; v++)
        xnets[v + 1] += xnets[v];
    /* Fill, using xnets[v] as vertex v's cursor; afterwards it holds
     * the start of vertex v + 1, so shift it back by one. */
    for (i64 n = 0; n < nnets; n++) {
        for (i64 k = xpins[n]; k < xpins[n + 1]; k++)
            vnets[xnets[pins[k]]++] = n;
    }
    for (i64 v = nverts; v > 0; v--)
        xnets[v] = xnets[v - 1];
    xnets[0] = 0;
}

/* ------------------------------------------------------------------ */
/* Greedy vector-owner assignment (SpMV side).                        */
/* ------------------------------------------------------------------ */

/*
 * Greedy owner assignment over the cut lines, in the given order: each
 * line picks the candidate minimizing the tentative phase bottleneck
 * max(send + lam - 1, recv), the first candidate winning ties.  send
 * and recv (length nparts) must arrive zeroed.
 */
void repro_greedy_owner_loop(
    const i64 *ptr, const i64 *flat, const i64 *lines, i64 nlines,
    i64 *send, i64 *recv, i64 *owners)
{
    for (i64 li = 0; li < nlines; li++) {
        i64 line = lines[li];
        i64 lo = ptr[line];
        i64 hi = ptr[line + 1];
        i64 k = hi - lo;
        i64 best_s = -1;
        i64 best_cost = 0;
        for (i64 t = lo; t < hi; t++) {
            i64 s = flat[t];
            i64 a = send[s] + k - 1;
            i64 cost = a >= recv[s] ? a : recv[s];
            if (best_s == -1 || cost < best_cost) {
                best_s = s;
                best_cost = cost;
            }
        }
        owners[line] = best_s;
        send[best_s] += k - 1;
        for (i64 t = lo; t < hi; t++) {
            i64 s = flat[t];
            if (s != best_s)
                recv[s] += 1;
        }
    }
}
