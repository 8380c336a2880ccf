/* The compiled event-loop kernel behind `repro.sim.backends.c_backend`.
 *
 * The reference for every line here is the python engine
 * (`repro.sim.engine.Engine`): the kernel replays the same Section-2
 * schedule with a different execution strategy.  There is no global
 * event heap.  Each node keeps a time-sorted pending list of admissions
 * fed by its single parent (availability flows strictly root-to-leaf)
 * plus a `node_next` cache of its earliest outstanding event, and
 * `advance_node` runs one node through all of its completions and
 * admissions up to a time limit in one tight loop.  A policy query
 * touches a node only when its `node_next` has been reached; after the
 * last arrival every node drains in one preorder pass.
 *
 * Dynamic events (outages, repairs, cancellations) run at a sync
 * barrier: every node first advances to the event instant (the sweeps
 * never settle at their limit, so a completion landing exactly on the
 * event time is processed by the barrier itself), then the handler
 * mutates node state exactly as the engine's does.  Events run in
 * schedule order, after same-instant completions and before
 * same-instant arrivals.
 *
 * Bit parity of the records with the reference engine is the contract,
 * so three rules govern every edit here:
 *
 *   1. Every floating-point expression keeps the engine's exact operand
 *      order and association.  IEEE-754 doubles are deterministic when
 *      the op sequence is; the build deliberately compiles with
 *      `-O2 -ffp-contract=off` and never `-ffast-math`, so the compiler
 *      may not fuse, reorder or approximate these ops.  On x86-64 this
 *      is plain SSE2 double arithmetic (no x87 excess precision);
 *      32-bit x86 builds force `-msse2 -mfpmath=sse`.
 *   2. The per-node priority heaps replicate CPython's `heapq` sift
 *      algorithms *exactly* (`heappush`, `heappop` and `heapify`),
 *      because the F-value summation iterates the heap in array order —
 *      the same comparison outcomes must produce the same array layout.
 *   3. Heap entries are packed int64s `(rank << 32) | job_index`.
 *      Ranks are unique per node, so packed comparisons order exactly
 *      like the engine's `(key, job_id)` tuples, and the payload
 *      decodes in O(1).
 *
 * The one quantity that is *not* schedule-determined is `num_events`:
 * when two hop completions on adjacent nodes land on the same instant,
 * the engine either counts both or folds the downstream one into the
 * upstream cascade (an uncounted drain whose scheduled event goes
 * stale) depending on event-heap insertion order.  The kernel counts
 * each completion it processes (plus every arrival and dynamic event),
 * so the two counters can differ by the number of such same-instant
 * collisions; the recorded schedules do not.
 *
 * The Python side (`c_backend.py`) precomputes every input column,
 * allocates every output buffer, and assembles `SimulationResult`; the
 * kernel owns only its scratch state.  The struct below is the ABI —
 * bump REPRO_KERNEL_ABI whenever its layout (or any semantic) changes,
 * so stale cached shared objects can never be loaded.
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define REPRO_KERNEL_ABI 2

#define IDX_MASK 0xffffffffLL

/* Status codes returned by repro_run. */
#define ST_OK 0
#define ST_MAX_EVENTS 1
#define ST_NOMEM 2
#define ST_BAD_ARGS 3

/* Dynamic-event kinds (the `ev_kind` column). */
#define EV_DOWN 0
#define EV_UP 1
#define EV_CANCEL 2

typedef struct {
    /* sizes and limits */
    int64_t n_jobs;
    int64_t n_nodes;
    int64_t max_path;
    int64_t max_events;
    int64_t policy_kind; /* 0 fixed, 1 greedy-identical, 2 least-loaded */
    int64_t use_agg;     /* maintain congestion aggregates (kind 2) */
    int64_t n_entries;
    int64_t n_tops;
    int64_t n_cands;
    int64_t n_paths;
    int64_t n_dyn;       /* dynamic events; 0 leaves every ev_* NULL */
    double weight;       /* greedy 6/eps^2 */
    /* topology (dense preorder node index, root excluded) */
    const int32_t *chain_off;    /* [n_nodes + 1] */
    const int32_t *chain_concat; /* ancestor chains, root-adjacent..node */
    const uint8_t *is_leaf;      /* [n_nodes] */
    const uint8_t *enc;          /* [n_nodes] node-rank (vs leaf-rank) heaps */
    const double *speed;         /* [n_nodes] */
    /* path table (node-index sequences, deduplicated) */
    const int32_t *path_off;    /* [n_paths] */
    const int32_t *path_len;    /* [n_paths] */
    const int32_t *path_concat; /* flattened paths */
    /* job columns */
    const double *rel;        /* [n_jobs] */
    const double *size;       /* [n_jobs] true size */
    const double *p_est;      /* [n_jobs] policy-visible size (estimate) */
    const int64_t *job_id;    /* [n_jobs] */
    const double *ftol_size;  /* [n_jobs] */
    const int64_t *rank;      /* [n_jobs] node-key rank (sjf or fifo) */
    const int64_t *leaf_rank; /* [n_jobs] leaf-key rank (unrelated sjf) */
    /* policy kind 0: precomputed per-job assignment */
    const int32_t *job_path_id; /* [n_jobs] */
    const double *p_leaf_in;    /* [n_jobs] */
    const double *ftol_leaf_in; /* [n_jobs] */
    /* policy kind 1: GreedyIdentical's branches (root-adjacent entries)
     * and the leaves under each */
    const int32_t *entry_ni;         /* [n_entries] root-adjacent nodes */
    const int32_t *entry_leaf_off;   /* [n_entries + 1] */
    const int64_t *entry_leaf_id;    /* leaf ids, per branch */
    const double *entry_leaf_steps;  /* their steps below the root */
    const int32_t *entry_leaf_path;  /* their path ids */
    /* policy kind 2: least-loaded candidate layout */
    const int32_t *tops_ni;      /* [n_tops] root children, in order */
    const int64_t *cand_leaf_id; /* [n_cands] */
    const int32_t *cand_leaf_ni; /* [n_cands] */
    const int32_t *cand_top_pos; /* [n_cands] index into tops */
    const double *cand_d;        /* [n_cands] d_v as a double */
    const int32_t *cand_path;    /* [n_cands] path id */
    /* dynamic events, in schedule order */
    const double *ev_time; /* [n_dyn] */
    const int32_t *ev_kind; /* [n_dyn] EV_DOWN / EV_UP / EV_CANCEL */
    const int32_t *ev_arg;  /* [n_dyn] node index, or job index (-1: unknown) */
    /* outputs (allocated by Python) */
    int32_t *out_path_id;    /* [n_jobs] chosen path per job */
    double *out_avail;       /* [n_jobs * max_path] */
    int32_t *out_avail_cnt;  /* [n_jobs] */
    double *out_comp;        /* [n_jobs * max_path] */
    int32_t *out_comp_cnt;   /* [n_jobs] */
    double *out_deficit;     /* [n_jobs] */
    double *out_cancel;      /* [n_jobs] cancel instants (events only) */
    int64_t *out_num_events; /* [1] */
} KernelArgs;

/* One greedy branch's argmin record over its unblocked leaves
 * (`GreedyIdenticalAssignment._entries_for`). */
typedef struct {
    double steps;     /* min steps below the root */
    int64_t tie_leaf; /* the min-(steps, leaf) leaf ... */
    int64_t min_leaf; /* ... and the min leaf (weight_p == 0) */
    int32_t tie_path; /* their path ids */
    int32_t min_path;
    uint8_t keep;     /* some leaf of the branch is unblocked */
} Branch;

/* Mutable kernel state (scratch, one malloc block). */
typedef struct {
    const KernelArgs *a;
    long n;  /* n_jobs */
    long m;  /* n_nodes */
    long mp; /* max_path */
    long num_events;
    long n_down;
    int status;
    /* per node */
    int64_t *heap; /* m * n */
    long *heap_len;
    double *pend_t; /* m * n */
    int64_t *pend_key;
    int32_t *pend_idx;
    long *pend_len;
    long *pis;
    long *actives;
    double *astarts;
    double *arems;
    double *node_next;
    long *tc;   /* through_count */
    double *tv; /* through_volume */
    double *qv; /* queue_volume */
    uint8_t *down;
    /* per job */
    double *rem;
    long *hop;
    int32_t *jpath_off;
    int32_t *jpath_len;
    double *p_leaf;
    double *ftol_leaf;
    double *prev_end;
    /* policy scratch */
    Branch *branch;   /* n_entries: every leaf counted */
    Branch *filtered; /* n_entries: outage-blocked leaves dropped */
    double *bases;    /* n_entries */
    double *top_load; /* n_tops */
    uint8_t *keep;    /* n_cands: unblocked least-loaded candidates */
} K;

int repro_abi_version(void) { return REPRO_KERNEL_ABI; }

/* ---- CPython heapq, replicated exactly (unique int64 entries) ------- */

static inline void hpush(int64_t *h, long *len, int64_t item) {
    /* heappush: append, then _siftdown(heap, 0, len-1). */
    long pos = (*len)++;
    while (pos > 0) {
        long parentpos = (pos - 1) >> 1;
        int64_t parent = h[parentpos];
        if (item < parent) {
            h[pos] = parent;
            pos = parentpos;
            continue;
        }
        break;
    }
    h[pos] = item;
}

static inline void siftup(int64_t *h, long endpos, long pos) {
    /* _siftup: bubble the smaller child up to a leaf, place the item
     * there, then _siftdown(heap, startpos, pos). */
    long startpos = pos;
    int64_t newitem = h[pos];
    long childpos = 2 * pos + 1;
    while (childpos < endpos) {
        long rightpos = childpos + 1;
        if (rightpos < endpos && !(h[childpos] < h[rightpos]))
            childpos = rightpos;
        h[pos] = h[childpos];
        pos = childpos;
        childpos = 2 * pos + 1;
    }
    while (pos > startpos) {
        long parentpos = (pos - 1) >> 1;
        int64_t parent = h[parentpos];
        if (newitem < parent) {
            h[pos] = parent;
            pos = parentpos;
            continue;
        }
        break;
    }
    h[pos] = newitem;
}

static inline void hpop(int64_t *h, long *len) {
    /* heappop with the return value discarded: pop the last element,
     * move it to the root, _siftup(heap, 0). */
    int64_t last = h[--(*len)];
    if (*len) {
        h[0] = last;
        siftup(h, *len, 0);
    }
}

static void heapify(int64_t *h, long len) {
    for (long i = len / 2 - 1; i >= 0; i--)
        siftup(h, len, i);
}

/* ---- small helpers --------------------------------------------------- */

static inline int64_t pack(int64_t rank, long idx) {
    return (rank << 32) | (int64_t)idx;
}

static inline long top_of(const K *k, long ni) {
    return (long)(k->heap[(size_t)ni * k->n] & IDX_MASK);
}

static inline double pending_head(const K *k, long ni) {
    long pi = k->pis[ni];
    return pi < k->pend_len[ni] ? k->pend_t[(size_t)ni * k->n + pi]
                                : INFINITY;
}

static inline void comp_append(K *k, long i, double t) {
    k->a->out_comp[(size_t)i * k->mp + k->a->out_comp_cnt[i]++] = t;
}

static inline void avail_append(K *k, long i, double t) {
    k->a->out_avail[(size_t)i * k->mp + k->a->out_avail_cnt[i]++] = t;
}

/* Emission of job `ji` to node `nxt` at time `t`.  `allow_fused`
 * exists only at `advance_node`'s emission sites: an idle, fully
 * drained child that is up takes the run directly; every other
 * emission appends to the child's pending list. */
static inline void emit(K *k, long nxt, double t, long ji, int allow_fused) {
    const KernelArgs *a = k->a;
    if (a->enc[nxt]) {
        if (allow_fused && k->actives[nxt] < 0 && k->heap_len[nxt] == 0 &&
            k->pis[nxt] >= k->pend_len[nxt] && !k->down[nxt]) {
            /* Fused admission: idle child with every prior admission
             * consumed — place the run directly (state-identical to
             * push-settle-drain-rearm, minus a pending append). */
            int64_t *h = k->heap + (size_t)nxt * k->n;
            h[0] = pack(a->rank[ji], ji);
            k->heap_len[nxt] = 1;
            k->actives[nxt] = ji;
            k->astarts[nxt] = t;
            double r = k->rem[ji];
            k->arems[nxt] = r;
            k->node_next[nxt] = t + r / a->speed[nxt];
            if (a->use_agg)
                k->qv[nxt] += r;
            return;
        }
    }
    /* Unrelated-setting SJF leaves order by the (p_leaf, release, id)
     * tuple; the per-leaf rank orders identically. */
    size_t p = (size_t)nxt * k->n + k->pend_len[nxt]++;
    k->pend_t[p] = t;
    k->pend_key[p] = pack(a->enc[nxt] ? a->rank[ji] : a->leaf_rank[ji], ji);
    k->pend_idx[p] = (int32_t)ji;
    if (t < k->node_next[nxt])
        k->node_next[nxt] = t;
}

/* Hand-off of job `ji` after its current hop ended at `t`: the next
 * hop's requirement and availability, then the emission. */
static inline void hand_off(K *k, long ji, double t, int allow_fused) {
    const KernelArgs *a = k->a;
    long h = k->hop[ji] + 1;
    k->hop[ji] = h;
    if (h < k->jpath_len[ji]) {
        long nxt = a->path_concat[k->jpath_off[ji] + h];
        if (a->is_leaf[nxt]) {
            k->rem[ji] = k->p_leaf[ji];
            k->prev_end[ji] = t;
        } else {
            k->rem[ji] = a->size[ji];
        }
        avail_append(k, ji, t);
        emit(k, nxt, t, ji, allow_fused);
    }
}

/* Completion body shared by the completion-only sweep and the general
 * loop — one definition, so the two cannot drift apart. */
static inline void complete_job(K *k, long ni, long ji, double astart,
                                double arem, double finish, int is_leaf,
                                int agg) {
    const KernelArgs *a = k->a;
    if (agg) {
        double residual = k->rem[ji]; /* == arem: frozen while active */
        k->tc[ni] -= 1;
        k->tv[ni] -= residual;
        k->qv[ni] -= residual;
    }
    k->rem[ji] = 0.0;
    comp_append(k, ji, finish);
    if (is_leaf) {
        double pl = k->p_leaf[ji];
        a->out_deficit[ji] +=
            (pl - arem) / pl * (astart - k->prev_end[ji]) +
            (2.0 * pl - arem) / (2.0 * pl) * (finish - astart);
    }
    hand_off(k, ji, finish, 1);
}

/* Settle job `ji`'s run on node `ni` (armed at `astart` with residual
 * `arem`) at `t` — the engine's `_settle` algebra, shared by
 * preempting admissions and the dynamic-event handlers. */
static inline void settle_run(K *k, long ni, long ji, double astart,
                              double arem, double t) {
    const KernelArgs *a = k->a;
    double elapsed = t - astart;
    if (elapsed > 0.0) {
        double new_rem = arem - a->speed[ni] * elapsed;
        if (new_rem < 0.0)
            new_rem = 0.0;
        if (a->use_agg) {
            double delta = arem - new_rem;
            if (delta != 0.0) {
                k->tv[ni] -= delta;
                k->qv[ni] -= delta;
            }
        }
        k->rem[ji] = new_rem;
        if (a->is_leaf[ni]) {
            double pl = k->p_leaf[ji];
            a->out_deficit[ji] +=
                (pl - arem) / pl * (astart - k->prev_end[ji]) +
                (2.0 * pl - arem - new_rem) / (2.0 * pl) * (t - astart);
            k->prev_end[ji] = t;
        }
    } else {
        k->rem[ji] = arem;
    }
}

/* Drain finished residuals stranded at the heap top: each completes at
 * `t`, residual dropped (`_drain_finished_top`). */
static inline void drain_tops(K *k, long ni, long *hlen, double t,
                              int allow_fused) {
    const KernelArgs *a = k->a;
    int64_t *heap = k->heap + (size_t)ni * k->n;
    int is_leaf = a->is_leaf[ni];
    const double *ftol = is_leaf ? k->ftol_leaf : a->ftol_size;
    while (*hlen) {
        long ti = (long)(heap[0] & IDX_MASK);
        double residual = k->rem[ti];
        if (residual > ftol[ti])
            break;
        hpop(heap, hlen);
        if (a->use_agg) {
            k->tc[ni] -= 1;
            k->tv[ni] -= residual;
            k->qv[ni] -= residual;
        }
        k->rem[ti] = 0.0;
        comp_append(k, ti, t);
        if (is_leaf) {
            double pl = k->p_leaf[ti];
            a->out_deficit[ti] += (pl - residual) / pl * (t - k->prev_end[ti]);
        }
        hand_off(k, ti, t, allow_fused);
    }
}

/* Arm the heap top (if any) at `t` and recompute the node's next-event
 * time (`_rearm`). */
static inline void rearm(K *k, long ni, double t) {
    double nn = INFINITY;
    if (k->heap_len[ni]) {
        long active = top_of(k, ni);
        k->actives[ni] = active;
        k->astarts[ni] = t;
        double arem = k->rem[active];
        k->arems[ni] = arem;
        nn = t + arem / k->a->speed[ni];
    } else {
        k->actives[ni] = -1;
    }
    double head = pending_head(k, ni);
    k->node_next[ni] = head < nn ? head : nn;
}

/* ---- the batched per-node sweep -------------------------------------- */

/* A down node performs no work: its sweep only consumes the pending
 * admissions due by `limit` into the heap (arrivals keep queueing
 * through an outage).  Nothing arms; the repair drains and rearms. */
static void park_pending(K *k, long ni, double limit) {
    size_t base = (size_t)ni * k->n;
    long pi = k->pis[ni];
    long npend = k->pend_len[ni];
    while (pi < npend && k->pend_t[base + pi] <= limit) {
        hpush(k->heap + base, &k->heap_len[ni], k->pend_key[base + pi]);
        if (k->a->use_agg)
            k->qv[ni] += k->rem[k->pend_idx[base + pi]];
        pi += 1;
    }
    k->pis[ni] = pi;
    k->node_next[ni] = pending_head(k, ni);
}

/* Run node `ni` through every completion and admission up to and
 * including `limit` (ancestors must already be synced there).  The run
 * accounting is the engine's: the active run is settled only when an
 * admission outranks it; a completion fires at `run_start + rem/speed`
 * (ties with admissions resolve completion-first); finished residuals
 * at the heap top drain before the newcomer is pushed. */
static void advance_node(K *k, long ni, double limit) {
    if (k->status)
        return;
    if (k->down[ni]) {
        park_pending(k, ni, limit);
        return;
    }
    const KernelArgs *a = k->a;
    double *pend_t = k->pend_t + (size_t)ni * k->n;
    int64_t *pend_key = k->pend_key + (size_t)ni * k->n;
    int32_t *pend_idx = k->pend_idx + (size_t)ni * k->n;
    long pi = k->pis[ni];
    int64_t *heap = k->heap + (size_t)ni * k->n;
    long hlen = k->heap_len[ni];
    long active = k->actives[ni];
    double astart = k->astarts[ni];
    double arem = k->arems[ni];
    double speed = a->speed[ni];
    int is_leaf = a->is_leaf[ni];
    int agg = (int)a->use_agg;
    long npend = k->pend_len[ni];
    long num_events = k->num_events;
    double *rem = k->rem;

    if (pi >= npend) {
        /* Completion-only sweep: no outstanding admissions (always the
         * case for root-adjacent nodes), and none can appear mid-loop
         * (emissions land on other nodes). */
        while (active >= 0) {
            double finish = astart + arem / speed;
            if (finish > limit)
                break;
            hpop(heap, &hlen);
            complete_job(k, ni, active, astart, arem, finish, is_leaf, agg);
            num_events += 1;
            if (hlen) {
                active = (long)(heap[0] & IDX_MASK);
                astart = finish;
                arem = rem[active];
            } else {
                active = -1;
            }
        }
        k->actives[ni] = active;
        k->astarts[ni] = astart;
        k->arems[ni] = arem;
        k->heap_len[ni] = hlen;
        k->num_events = num_events;
        if (num_events > a->max_events) {
            k->status = ST_MAX_EVENTS;
            return;
        }
        k->node_next[ni] = active >= 0 ? astart + arem / speed : INFINITY;
        return;
    }

    for (;;) {
        double t_next = pi < npend ? pend_t[pi] : INFINITY;
        if (active >= 0) {
            double finish = astart + arem / speed;
            if (finish <= t_next && finish <= limit) {
                /* -- completion (fused settle + hop advance) ---------- */
                hpop(heap, &hlen);
                complete_job(k, ni, active, astart, arem, finish, is_leaf,
                             agg);
                num_events += 1;
                /* Inlined rearm *without* drain: a pre-finished new top
                 * completes via its own (immediate) completion. */
                if (hlen) {
                    active = (long)(heap[0] & IDX_MASK);
                    astart = finish;
                    arem = rem[active];
                } else {
                    active = -1;
                }
                continue;
            }
        }
        if (t_next > limit || pi >= npend)
            break;
        /* -- admission ------------------------------------------------ */
        double t = pend_t[pi];
        int64_t key = pend_key[pi];
        long i = pend_idx[pi];
        pi += 1;
        if (active < 0) {
            if (hlen == 0) {
                /* Idle, fully-drained node: the newcomer starts at
                 * once — push-drain-rearm degenerates to an append. */
                heap[0] = key;
                hlen = 1;
                if (agg)
                    k->qv[ni] += rem[i];
                active = i;
                astart = t;
                arem = rem[i];
                continue;
            }
        } else if (heap[0] < key) {
            /* The incumbent outranks the newcomer: plain push, the run
             * continues unbroken — the non-preempting enqueue. */
            hpush(heap, &hlen, key);
            if (agg)
                k->qv[ni] += rem[i];
            continue;
        } else {
            settle_run(k, ni, active, astart, arem, t);
            active = -1;
        }
        drain_tops(k, ni, &hlen, t, 1);
        /* Push the newcomer and rearm the (possibly new) top. */
        hpush(heap, &hlen, key);
        if (agg)
            k->qv[ni] += rem[i];
        active = (long)(heap[0] & IDX_MASK);
        astart = t;
        arem = rem[active];
    }

    k->pis[ni] = pi;
    k->actives[ni] = active;
    k->astarts[ni] = astart;
    k->arems[ni] = arem;
    k->heap_len[ni] = hlen;
    k->num_events = num_events;
    if (num_events > a->max_events) {
        k->status = ST_MAX_EVENTS;
        return;
    }
    /* Recompute the node's next-event time: both candidates are
     * strictly past `limit` now (the loop consumed everything due). */
    double nn = active >= 0 ? astart + arem / speed : INFINITY;
    if (pi < npend && pend_t[pi] < nn)
        nn = pend_t[pi];
    k->node_next[ni] = nn;
}

static inline void sync_chain(K *k, long ni, double now) {
    const int32_t *chain = k->a->chain_concat + k->a->chain_off[ni];
    long len = k->a->chain_off[ni + 1] - k->a->chain_off[ni];
    for (long q = 0; q < len; q++) {
        long a = chain[q];
        if (k->node_next[a] <= now)
            advance_node(k, a, now);
    }
}

static void sync_all(K *k, double now) {
    for (long ni = 0; ni < k->m; ni++)
        if (k->node_next[ni] <= now)
            advance_node(k, ni, now);
}

/* ---- direct admission (the engine's _enqueue at the current instant) - */

static void admit_now(K *k, long ni, double t, long i) {
    if (k->status)
        return;
    const KernelArgs *a = k->a;
    int64_t *heap = k->heap + (size_t)ni * k->n;
    long hlen = k->heap_len[ni];
    int64_t key = pack(a->enc[ni] ? a->rank[i] : a->leaf_rank[i], i);
    long active = k->actives[ni];
    if (k->down[ni] || (active >= 0 && heap[0] < key)) {
        /* A down node parks the newcomer (nothing arms until the
         * repair); a running incumbent that outranks it keeps its run.
         * Either way the node's next event is unchanged. */
        hpush(heap, &hlen, key);
        k->heap_len[ni] = hlen;
        if (a->use_agg)
            k->qv[ni] += k->rem[i];
        return;
    }
    if (active >= 0)
        settle_run(k, ni, active, k->astarts[ni], k->arems[ni], t);
    drain_tops(k, ni, &hlen, t, 0);
    /* Push the newcomer and rearm the (possibly new) top. */
    hpush(heap, &hlen, key);
    k->heap_len[ni] = hlen;
    if (a->use_agg)
        k->qv[ni] += k->rem[i];
    rearm(k, ni, t);
}

/* ---- arrivals (the engine's _handle_arrival after the policy call) --- */

static void handle_arrival(K *k, long i, long path_id, double now) {
    const KernelArgs *a = k->a;
    long off = a->path_off[path_id];
    long plen = a->path_len[path_id];
    k->jpath_off[i] = (int32_t)off;
    k->jpath_len[i] = (int32_t)plen;

    /* Release mutation point for the congestion aggregates. */
    if (a->use_agg) {
        double size = a->size[i];
        for (long q = 0; q < plen; q++) {
            long ni = a->path_concat[off + q];
            k->tc[ni] += 1;
            k->tv[ni] += size;
        }
        double pl = k->p_leaf[i];
        if (pl != size)
            k->tv[a->path_concat[off + plen - 1]] += pl - size;
    }

    long first = a->path_concat[off];
    if (a->is_leaf[first]) {
        k->rem[i] = k->p_leaf[i];
        k->prev_end[i] = now;
    } else {
        k->rem[i] = a->size[i];
    }
    sync_chain(k, first, now);
    if (k->status)
        return;
    /* Inlined fast admission paths (the two cases that dominate the
     * arrival phase); anything involving settles, finished-top drains
     * or outages goes through the full admit_now. */
    if (a->enc[first] && !k->down[first]) {
        int64_t *heap = k->heap + (size_t)first * k->n;
        int64_t key = pack(a->rank[i], i);
        if (k->actives[first] >= 0) {
            if (heap[0] < key) {
                /* Incumbent outranks the newcomer: plain push, run
                 * continues unbroken, node_next unchanged. */
                hpush(heap, &k->heap_len[first], key);
                if (a->use_agg)
                    k->qv[first] += k->rem[i];
                return;
            }
        } else if (k->heap_len[first] == 0) {
            /* Idle, fully-drained node: the newcomer starts at once. */
            heap[0] = key;
            k->heap_len[first] = 1;
            if (a->use_agg)
                k->qv[first] += k->rem[i];
            rearm(k, first, now);
            return;
        }
    }
    admit_now(k, first, now, i);
}

/* ---- dynamic events --------------------------------------------------- */

/* Node `ni` stops serving: settle the active run, complete any
 * zero-remaining heap tops at the down instant, and park the rest. */
static void node_down(K *k, long ni, double t) {
    long active = k->actives[ni];
    if (active >= 0) {
        settle_run(k, ni, active, k->astarts[ni], k->arems[ni], t);
        k->actives[ni] = -1;
        drain_tops(k, ni, &k->heap_len[ni], t, 0);
    }
    k->down[ni] = 1;
    k->n_down += 1;
    /* Nothing arms while down: the only future event the node can see
     * is a parent emission landing in its pending list. */
    k->node_next[ni] = pending_head(k, ni);
}

/* Node `ni` resumes serving: drain and restart the top stalled job. */
static void node_up(K *k, long ni, double t) {
    k->down[ni] = 0;
    k->n_down -= 1;
    drain_tops(k, ni, &k->heap_len[ni], t, 0);
    rearm(k, ni, t);
}

/* Withdraw job `ji` if it is alive; otherwise a defined no-op (unknown
 * id, not yet released — its path is still empty — or terminal). */
static void cancel_job(K *k, long ji, double t) {
    const KernelArgs *a = k->a;
    if (ji < 0 || k->hop[ji] >= k->jpath_len[ji])
        return;
    long hop = k->hop[ji];
    long ni = a->path_concat[k->jpath_off[ji] + hop];
    int64_t *heap = k->heap + (size_t)ni * k->n;
    long hlen = k->heap_len[ni];
    int was_active = k->actives[ni] == ji;
    if (was_active) {
        settle_run(k, ni, ji, k->astarts[ni], k->arems[ni], t);
        k->actives[ni] = -1;
        const double *ftol = a->is_leaf[ni] ? k->ftol_leaf : a->ftol_size;
        if (k->rem[ji] <= ftol[ji]) {
            /* Brink of completion: completions come before events, so
             * the job finishes this hop first; the cancel then applies
             * wherever it now sits (a no-op after its last hop). */
            drain_tops(k, ni, &k->heap_len[ni], t, 0);
            rearm(k, ni, t);
            if (k->hop[ji] < k->jpath_len[ji]) {
                advance_node(k, a->path_concat[k->jpath_off[ji] + hop + 1], t);
                cancel_job(k, ji, t);
            }
            return;
        }
        hpop(heap, &hlen);
    } else {
        /* Queued (possibly parked on a down node): swap-remove plus
         * heapify, the engine's queue surgery — the active run keeps
         * its armed completion. */
        long pos = 0;
        while ((long)(heap[pos] & IDX_MASK) != ji)
            pos += 1;
        int64_t last = heap[--hlen];
        if (pos < hlen) {
            heap[pos] = last;
            heapify(heap, hlen);
        }
    }
    k->heap_len[ni] = hlen;
    double rem_i = k->rem[ji];
    if (a->use_agg) {
        /* Unwind the job's share of every aggregate it still touches:
         * its settled remainder here, its untouched quanta downstream. */
        k->qv[ni] -= rem_i;
        const int32_t *path = a->path_concat + k->jpath_off[ji];
        for (long q = hop; q < k->jpath_len[ji]; q++) {
            long v = path[q];
            k->tc[v] -= 1;
            if (q == hop)
                k->tv[v] -= rem_i;
            else if (a->is_leaf[v])
                k->tv[v] -= k->p_leaf[ji];
            else
                k->tv[v] -= a->size[ji];
        }
    }
    if (a->is_leaf[ni]) {
        /* Close out the fractional-flow deficit: the fraction is
         * `rem / p_leaf`, constant since the last settle. */
        double pl = k->p_leaf[ji];
        a->out_deficit[ji] += (pl - rem_i) / pl * (t - k->prev_end[ji]);
    }
    k->rem[ji] = 0.0;
    k->hop[ji] = k->jpath_len[ji];
    a->out_cancel[ji] = t;
    if (was_active) {
        drain_tops(k, ni, &k->heap_len[ni], t, 0);
        rearm(k, ni, t);
    }
}

/* Apply event `e` at a sync barrier: every node first runs through its
 * completions and admissions due at the event instant. */
static void apply_event(K *k, long e) {
    const KernelArgs *a = k->a;
    double t = a->ev_time[e];
    sync_all(k, t);
    if (k->status)
        return;
    if (a->ev_kind[e] == EV_DOWN)
        node_down(k, a->ev_arg[e], t);
    else if (a->ev_kind[e] == EV_UP)
        node_up(k, a->ev_arg[e], t);
    else
        cancel_job(k, a->ev_arg[e], t);
}

/* Whether path `pid` crosses a down node (`path_is_blocked`). */
static inline int path_blocked(const K *k, long pid) {
    const KernelArgs *a = k->a;
    const int32_t *p = a->path_concat + a->path_off[pid];
    for (long q = 0; q < a->path_len[pid]; q++)
        if (k->down[p[q]])
            return 1;
    return 0;
}

/* ---- policy: greedy-identical (Section 3.4) --------------------------- */

/* Derive each branch's argmin record over its unblocked leaves into
 * `out` (`_entries_for`, then `_filter_branch_records` under an
 * outage).  Returns 1 when an outage blocks some leaf while some
 * branch keeps one — only then do the filtered records apply. */
static int derive_branches(const K *k, Branch *out) {
    const KernelArgs *a = k->a;
    int changed = 0, any = 0;
    for (long e = 0; e < a->n_entries; e++) {
        Branch *b = &out[e];
        b->keep = 0;
        for (long q = a->entry_leaf_off[e]; q < a->entry_leaf_off[e + 1]; q++) {
            long pid = a->entry_leaf_path[q];
            if (k->n_down && path_blocked(k, pid)) {
                changed = 1;
                continue;
            }
            double s = a->entry_leaf_steps[q];
            int64_t leaf = a->entry_leaf_id[q];
            if (!b->keep || s < b->steps ||
                (s == b->steps && leaf < b->tie_leaf)) {
                b->steps = s;
                b->tie_leaf = leaf;
                b->tie_path = (int32_t)pid;
            }
            if (!b->keep || leaf < b->min_leaf) {
                b->min_leaf = leaf;
                b->min_path = (int32_t)pid;
            }
            b->keep = 1;
        }
        any |= b->keep;
    }
    return changed && any;
}

static long assign_greedy(K *k, long i, double now) {
    const KernelArgs *a = k->a;
    /* Policies score the masked job: its size estimate, compared as
     * the SJF tuple (p, release, id) against queued jobs' true sizes. */
    double p_j = a->p_est[i];
    double weight_p = a->weight * p_j;
    double rel_j = a->rel[i];
    int64_t id_j = a->job_id[i];
    const Branch *br = k->branch;
    if (k->n_down && derive_branches(k, k->filtered))
        br = k->filtered;
    /* F(j, ·) over the root-adjacent entries: sync each entry, then sum
     * its heap in array order (f_top_value's hot path). */
    for (long e = 0; e < a->n_entries; e++) {
        if (!br[e].keep)
            continue;
        long ni = a->entry_ni[e];
        if (k->node_next[ni] <= now)
            advance_node(k, ni, now);
        double total = p_j;
        long hl = k->heap_len[ni];
        if (hl) {
            int64_t *h = k->heap + (size_t)ni * k->n;
            long active = k->actives[ni];
            double live = 0.0;
            if (active >= 0) {
                live = k->arems[ni] - a->speed[ni] * (now - k->astarts[ni]);
                if (live < 0.0)
                    live = 0.0;
            }
            for (long q = 0; q < hl; q++) {
                long idx = (long)(h[q] & IDX_MASK);
                double p_i = a->size[idx];
                if (p_i < p_j ||
                    (p_i == p_j &&
                     (a->rel[idx] < rel_j ||
                      (a->rel[idx] == rel_j && a->job_id[idx] < id_j))))
                    total += idx == active ? live : k->rem[idx];
                else if (p_i > p_j)
                    total += p_j;
            }
        }
        k->bases[e] = total;
    }
    if (k->status)
        return -1;
    /* Argmin with the policy's exact tie-breaks. */
    long best_pos = -1;
    int64_t best_leaf = 0;
    double best_score = INFINITY;
    for (long e = 0; e < a->n_entries; e++) {
        if (!br[e].keep)
            continue;
        /* weight_p == 0.0: all leaves of a branch tie at `base` (the
         * pathological weight_p < 0 scan cannot occur: sizes and
         * estimates are validated > 0). */
        double score = weight_p > 0.0 ? k->bases[e] + weight_p * br[e].steps
                                      : k->bases[e];
        int64_t leaf = weight_p > 0.0 ? br[e].tie_leaf : br[e].min_leaf;
        if (score < best_score ||
            (score == best_score && (best_pos < 0 || leaf < best_leaf))) {
            best_score = score;
            best_leaf = leaf;
            best_pos = e;
        }
    }
    if (best_pos < 0)
        return -1;
    return weight_p > 0.0 ? br[best_pos].tie_path : br[best_pos].min_path;
}

/* ---- policy: least-loaded --------------------------------------------- */

static inline double live_processed(K *k, long ni, double now) {
    if (k->actives[ni] < 0)
        return 0.0;
    double elapsed = now - k->astarts[ni];
    if (elapsed <= 0.0)
        return 0.0;
    double done = k->a->speed[ni] * elapsed;
    double arem = k->arems[ni];
    return done < arem ? done : arem;
}

static long assign_least_loaded(K *k, long i, double now) {
    const KernelArgs *a = k->a;
    /* Down-aware: candidates whose path crosses a down node drop out,
     * unless that would drop every candidate. */
    const uint8_t *keep = NULL;
    if (k->n_down) {
        long kept = 0;
        for (long c = 0; c < a->n_cands; c++) {
            k->keep[c] = (uint8_t)!path_blocked(k, a->cand_path[c]);
            kept += k->keep[c];
        }
        if (kept && kept < a->n_cands)
            keep = k->keep;
    }
    /* top_load = {top: queue_volume_at(top)} in root_children order. */
    for (long tpos = 0; tpos < a->n_tops; tpos++) {
        long ni = a->tops_ni[tpos];
        if (k->node_next[ni] <= now) /* chain of a root child is itself */
            advance_node(k, ni, now);
        double v;
        if (k->heap_len[ni] == 0) {
            v = 0.0;
        } else {
            v = k->qv[ni] - live_processed(k, ni, now);
            if (!(v > 0.0))
                v = 0.0;
        }
        k->top_load[tpos] = v;
    }
    double p = a->p_est[i]; /* the masked job's own path volume */
    long best_pos = -1;
    int64_t best_leaf = 0;
    double best_score = INFINITY;
    for (long c = 0; c < a->n_cands; c++) {
        if (keep && !keep[c])
            continue;
        long lni = a->cand_leaf_ni[c];
        sync_chain(k, lni, now); /* volume_through syncs the leaf chain */
        double vol;
        if (k->tc[lni] == 0) {
            vol = 0.0;
        } else {
            vol = k->tv[lni] - live_processed(k, lni, now);
            if (!(vol > 0.0))
                vol = 0.0;
        }
        double own = a->cand_d[c] * p;
        double score = k->top_load[a->cand_top_pos[c]] + vol + own;
        int64_t leaf = a->cand_leaf_id[c];
        if (score < best_score ||
            (score == best_score && (best_pos < 0 || leaf < best_leaf))) {
            best_score = score;
            best_leaf = leaf;
            best_pos = c;
        }
    }
    if (k->status)
        return -1;
    return best_pos >= 0 ? a->cand_path[best_pos] : -1;
}

/* ---- entry point ----------------------------------------------------- */

int repro_run(const KernelArgs *a) {
    if (!a || a->n_jobs < 0 || a->n_nodes <= 0 || a->max_path <= 0)
        return ST_BAD_ARGS;
    long n = (long)a->n_jobs;
    long m = (long)a->n_nodes;
    if (n == 0) {
        *a->out_num_events = 0;
        return ST_OK;
    }

    K k;
    memset(&k, 0, sizeof(k));
    k.a = a;
    k.n = n;
    k.m = m;
    k.mp = (long)a->max_path;

    size_t mn = (size_t)m * (size_t)n;
    size_t ne = (size_t)(a->n_entries > 0 ? a->n_entries : 1);
    size_t nt = (size_t)(a->n_tops > 0 ? a->n_tops : 1);
    size_t nk = (size_t)a->n_cands;
    size_t bytes = 0;
    bytes += mn * sizeof(int64_t);        /* heap */
    bytes += mn * sizeof(double);         /* pend_t */
    bytes += mn * sizeof(int64_t);        /* pend_key */
    bytes += mn * sizeof(int32_t);        /* pend_idx */
    bytes += (size_t)m * sizeof(long) * 6;/* heap_len pend_len pis actives tc + pad */
    bytes += (size_t)m * sizeof(double) * 5; /* astarts arems node_next tv qv */
    bytes += (size_t)n * sizeof(double) * 4; /* rem p_leaf ftol_leaf prev_end */
    bytes += (size_t)n * sizeof(long);       /* hop */
    bytes += (size_t)n * sizeof(int32_t) * 2; /* jpath_off jpath_len */
    bytes += ne * sizeof(Branch) * 2;         /* branch filtered */
    bytes += ne * sizeof(double);             /* bases */
    bytes += nt * sizeof(double);             /* top_load */
    bytes += (size_t)m + nk;                  /* down keep */
    char *blob = (char *)malloc(bytes);
    if (!blob)
        return ST_NOMEM;
    char *p = blob;
#define TAKE(var, type, count)                                               \
    k.var = (type *)p;                                                       \
    p += (size_t)(count) * sizeof(type)
    TAKE(heap, int64_t, mn);
    TAKE(pend_t, double, mn);
    TAKE(pend_key, int64_t, mn);
    TAKE(pend_idx, int32_t, mn);
    TAKE(heap_len, long, m);
    TAKE(pend_len, long, m);
    TAKE(pis, long, m);
    TAKE(actives, long, m);
    TAKE(tc, long, m);
    TAKE(astarts, double, m);
    TAKE(arems, double, m);
    TAKE(node_next, double, m);
    TAKE(tv, double, m);
    TAKE(qv, double, m);
    TAKE(rem, double, n);
    TAKE(p_leaf, double, n);
    TAKE(ftol_leaf, double, n);
    TAKE(prev_end, double, n);
    TAKE(hop, long, n);
    TAKE(jpath_off, int32_t, n);
    TAKE(jpath_len, int32_t, n);
    TAKE(branch, Branch, ne);
    TAKE(filtered, Branch, ne);
    TAKE(bases, double, ne);
    TAKE(top_load, double, nt);
    TAKE(down, uint8_t, m);
    TAKE(keep, uint8_t, nk);
#undef TAKE

    for (long ni = 0; ni < m; ni++) {
        k.heap_len[ni] = 0;
        k.pend_len[ni] = 0;
        k.pis[ni] = 0;
        k.actives[ni] = -1;
        k.tc[ni] = 0;
        k.astarts[ni] = 0.0;
        k.arems[ni] = 0.0;
        k.node_next[ni] = INFINITY;
        k.tv[ni] = 0.0;
        k.qv[ni] = 0.0;
        k.down[ni] = 0;
    }
    for (long i = 0; i < n; i++) {
        k.rem[i] = 0.0;
        k.prev_end[i] = 0.0;
        k.hop[i] = 0;
        k.jpath_off[i] = 0;
        k.jpath_len[i] = 0;
        a->out_deficit[i] = 0.0;
        /* Availability timelines pre-seeded with the release instant:
         * a job's first availability is exactly its release. */
        a->out_avail[(size_t)i * k.mp] = a->rel[i];
        a->out_avail_cnt[i] = 1;
        a->out_comp_cnt[i] = 0;
        if (a->policy_kind == 0) {
            k.p_leaf[i] = a->p_leaf_in[i];
            k.ftol_leaf[i] = a->ftol_leaf_in[i];
        }
    }

    long kind = (long)a->policy_kind;
    if (kind == 1)
        derive_branches(&k, k.branch); /* nothing is down yet */
    long n_dyn = (long)a->n_dyn;
    long e = 0;
    for (long i = 0; i < n && !k.status; i++) {
        double now = a->rel[i];
        /* Dynamic events precede same-instant arrivals. */
        while (e < n_dyn && a->ev_time[e] <= now && !k.status)
            apply_event(&k, e++);
        if (k.status)
            break;
        long path_id;
        if (kind == 0) {
            path_id = a->job_path_id[i];
        } else {
            /* Identical setting: p_{j,leaf} == p_j whichever leaf the
             * policy picks, so the leaf columns are fixed up front. */
            k.p_leaf[i] = a->size[i];
            k.ftol_leaf[i] = a->ftol_size[i];
            path_id = (kind == 1) ? assign_greedy(&k, i, now)
                                  : assign_least_loaded(&k, i, now);
            if (path_id < 0) {
                /* A nested advance tripped max_events, or (vacuous for
                 * validated instances) every score was NaN. */
                if (!k.status)
                    k.status = ST_BAD_ARGS;
                break;
            }
        }
        a->out_path_id[i] = (int32_t)path_id;
        handle_arrival(&k, i, path_id, now);
    }
    /* Events left after the last arrival run before the final drain. */
    while (e < n_dyn && !k.status)
        apply_event(&k, e++);
    /* Arrivals and dynamic events count as events, as on the engine. */
    k.num_events += n + n_dyn;

    /* Final drain: preorder guarantees every node's parent empties
     * first, so one pass completes all in-flight work. */
    for (long ni = 0; ni < m && !k.status; ni++)
        advance_node(&k, ni, INFINITY);

    *a->out_num_events = (int64_t)k.num_events;
    free(blob);
    return k.status;
}
