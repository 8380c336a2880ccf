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
 * last arrival every node syncs to the horizon in one preorder pass.
 *
 * One event loop, two drivers.  `repro_run` drives it once over a whole
 * instance (batch) up to its `horizon`: it applies the events at or
 * before it, and at infinity drains every job; a finite horizon ends
 * with every node settled there, as the engine's `run(until=)` does
 * (the caller passes only the jobs released by then).
 * `repro_session_open` / `_step` / `_close` drive it over a stream: a
 * step admits the jobs released by its `until`, runs arrivals,
 * completions and the policy exactly as a batch run does, and ends with
 * every node synced to `until` (in-flight runs unsettled, as the
 * engine's `stream_step` leaves them); close settles there.  The sweeps
 * never settle at their limit, so slicing a run into steps changes
 * nothing.  A session job lives in a recycled slot; its finished jobs
 * leave each step as columns sorted by (completion time, job id), the
 * order in which both engines fold evicted flow terms.
 *
 * Dynamic events (outages, repairs, cancellations) run at a sync
 * barrier: every node first advances to the event instant (the sweeps
 * never settle at their limit, so a completion landing exactly on the
 * event time is processed by the barrier itself), then the handler
 * mutates node state exactly as the engine's does.  Events run in
 * schedule order, after same-instant completions and before
 * same-instant arrivals.  Sessions carry no events.
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
 *   3. Heap entries are packed int64s `(rank << 32) | job`, ordered
 *      exactly like the engine's `(key, job_id)` tuples.  In a batch
 *      run the rank is dense over the whole instance (the SJF or FIFO
 *      position, or the p_{j,v} rank of unrelated-setting leaf heaps)
 *      and equal ranks fall back to the job index, which is (release,
 *      id) order.  A stream has no whole instance: a session's rank is
 *      the job's sequence number in (release, id) order (each step's
 *      jobs sorted, since a step admits every job released by its
 *      `until`), and under SJF its heaps compare the key column (size,
 *      or leaf size on an unrelated leaf) before the packed entry.  The
 *      low half is a batch job index or a session slot, never a
 *      tie-break.
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
 * Each node's settled service time accumulates in `busy` wherever the
 * engine reports a service span (a settle with elapsed time, a
 * completion).  A gauge sample at a window boundary T reads busy time at
 * T, which events at T do not change (they close the span they end at
 * T and start the next at T), so a session reads it at its step's end.
 *
 * Policies run in one of four plans (`policy_kind`).  Static policies
 * arrive as a precomputed leaf per job.  The paper's greedy rule and
 * the least-loaded baseline run here against the live node state: greedy
 * prices F at each root-adjacent entry and, in its unrelated-endpoint
 * form, F' per leaf over the leaf's alive jobs in ascending job id (the
 * reference's summation order).  In the unrelated setting those plans
 * read the arriving job's `p_{j,v}` row over the leaves (`inf` marks a
 * forbidden leaf, which no plan ever picks).
 *
 * The Python side (`c_backend.py`) precomputes every input column,
 * allocates every output buffer, and assembles the results; the kernel
 * owns only its scratch state.  The structs below are the ABI — bump
 * REPRO_KERNEL_ABI whenever a layout (or any semantic) changes, so
 * stale cached shared objects can never be loaded.
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define REPRO_KERNEL_ABI 5

#define IDX_MASK 0xffffffffLL

/* Session ranks fill the high half of an entry; before they reach this
 * they are rebased, which keeps every relative order (and heap). */
#define SEQ_LIMIT (1LL << 31)

/* Status codes returned by the entry points. */
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
    int64_t n_jobs;      /* batch jobs; a session's initial slot count */
    int64_t n_nodes;
    int64_t max_path;
    int64_t max_events;
    int64_t policy_kind; /* 0 static, 1 greedy-identical, 2 least-loaded,
                          * 3 greedy-unrelated */
    int64_t use_agg;     /* maintain congestion aggregates (kind 2) */
    int64_t sjf;         /* sessions: SJF (vs FIFO) heap keys */
    int64_t n_leaves;    /* leaf-table rows */
    int64_t n_entries;
    int64_t n_tops;
    int64_t n_paths;
    int64_t n_dyn;       /* dynamic events; 0 leaves every ev_* NULL */
    double weight;       /* greedy 6/eps^2 */
    double ftol_atol;    /* finished_tol's absolute and relative parts */
    double ftol_rtol;
    double horizon;      /* batch: run to here, then settle (INFINITY: drain) */
    /* topology (dense preorder node index, root excluded) */
    const int32_t *chain_off;    /* [n_nodes + 1] */
    const int32_t *chain_concat; /* ancestor chains, root-adjacent..node */
    const uint8_t *is_leaf;      /* [n_nodes] */
    const uint8_t *enc;          /* [n_nodes] node-rank (vs leaf-rank) heaps */
    const double *speed;         /* [n_nodes] */
    /* path table: every leaf's root path, in leaf-slot order */
    const int32_t *path_off;    /* [n_paths] */
    const int32_t *path_len;    /* [n_paths] */
    const int32_t *path_concat; /* flattened paths */
    /* batch job columns */
    const double *rel;        /* [n_jobs] */
    const double *size;       /* [n_jobs] true size */
    const double *p_est;      /* [n_jobs] policy-visible size (estimate) */
    const int64_t *job_id;    /* [n_jobs] */
    const double *ftol_size;  /* [n_jobs] */
    const int64_t *rank;      /* [n_jobs] node-key rank (sjf or fifo) */
    /* batch policy kind 0: precomputed per-job assignment */
    const int32_t *job_path_id;  /* [n_jobs] leaf slot */
    const int32_t *job_skip;     /* [n_jobs] hops above a router origin
                                  * (NULL: every job starts at the root) */
    const double *p_leaf_in;     /* [n_jobs] */
    const double *ftol_leaf_in;  /* [n_jobs] */
    const int64_t *leaf_rank_in; /* [n_jobs] leaf-key rank (unrelated sjf;
                                  * NULL when no leaf heap reads it) */
    /* the leaf table, one row (slot) per leaf in tree order */
    const int64_t *leaf_id;  /* [n_leaves] */
    const int32_t *leaf_ni;  /* [n_leaves] node index */
    const int32_t *leaf_path; /* [n_leaves] path id */
    /* batch kinds 2-3, unrelated setting (NULL in the identical one,
     * where p_{j,v} == p_j): per-job, per-slot columns, row-major */
    const double *p_jv;     /* [n_jobs * n_leaves], inf = forbidden */
    const int32_t *rank_jv; /* [n_jobs * n_leaves] per-leaf sjf rank (NULL
                             * under fifo, whose leaf heaps use `rank`) */
    /* greedy (kinds 1, 3): the root-adjacent entries and their leaves */
    const int32_t *entry_ni;         /* [n_entries] root-adjacent nodes */
    const int32_t *entry_leaf_off;   /* [n_entries + 1] */
    const int32_t *entry_leaf_slot;  /* leaf slots, per branch */
    const double *entry_leaf_steps;  /* their steps below the root */
    /* least-loaded (kind 2) */
    const int32_t *tops_ni;  /* [n_tops] root children, in order */
    const int32_t *leaf_top; /* [n_leaves] index into tops */
    const double *leaf_d;    /* [n_leaves] d_v as a double */
    /* dynamic events, in schedule order */
    const double *ev_time; /* [n_dyn] */
    const int32_t *ev_kind; /* [n_dyn] EV_DOWN / EV_UP / EV_CANCEL */
    const int32_t *ev_arg;  /* [n_dyn] node index, or job index (-1 or
                             * >= n_jobs: a cancel that is a no-op) */
    /* batch outputs (allocated by Python) */
    int32_t *out_path_id;    /* [n_jobs] chosen leaf slot per job */
    double *out_avail;       /* [n_jobs * max_path] */
    int32_t *out_avail_cnt;  /* [n_jobs] */
    double *out_comp;        /* [n_jobs * max_path] */
    int32_t *out_comp_cnt;   /* [n_jobs] */
    double *out_deficit;     /* [n_jobs] */
    double *out_cancel;      /* [n_jobs] cancel instants (events only) */
    int64_t *out_num_events; /* [1] */
} KernelArgs;

/* One session step: the jobs it admits (in source order) and what it
 * hands back.  `repro_session_close` reuses it for the in-flight jobs. */
typedef struct {
    int64_t n;                 /* jobs admitted by this step */
    double until;
    const double *at;          /* [n] arrival instants */
    const double *rel;         /* [n] */
    const double *size;        /* [n] */
    const double *p_est;       /* [n] */
    const double *est;         /* [n] size estimate, NaN: none */
    const int64_t *job_id;     /* [n] */
    const double *p_jv;        /* [n * n_leaves] unrelated, else NULL */
    const int32_t *leaf_slot;  /* [n] static policies: the chosen leaf */
    const int32_t *skip;       /* [n] hops above a router origin, or NULL */
    /* outputs: one row per finished (close: in-flight) job */
    int64_t out_cap;
    int64_t n_out;
    int64_t *out_id;
    double *out_rel;
    double *out_comp;          /* completion (NaN while in flight) */
    double *out_est;
    double *out_deficit;
    int32_t *out_leaf;         /* leaf slot */
    int32_t *out_skip;
    double *out_avail;         /* [out_cap * max_path] */
    int32_t *out_avail_cnt;
    double *out_hops;          /* [out_cap * max_path] hop completions */
    int32_t *out_hops_cnt;
    /* per node, at `until` */
    double *busy;              /* cumulative service time */
    int64_t *depth;            /* close only: queue depth ... */
    double *qvol;              /* ... queued volume ... */
    int64_t *through;          /* ... and through-count */
    /* cumulative session tallies */
    int64_t num_events;
    int64_t n_live;
    double evicted_alive;      /* flow terms of finished jobs */
    double evicted_frac;
} StepArgs;

/* One greedy branch's argmin record over its unblocked leaves
 * (`GreedyIdenticalAssignment._entries_for`). */
typedef struct {
    double steps;     /* min steps below the root */
    int64_t tie_leaf; /* the min-(steps, leaf) leaf ... */
    int64_t min_leaf; /* ... and the min leaf (weight_p == 0) */
    int32_t tie_slot; /* their leaf slots */
    int32_t min_slot;
    uint8_t keep;     /* some leaf of the branch is unblocked */
} Branch;

/* A sort record: ordered by (t, id). */
typedef struct {
    double t;
    int64_t id;
    long idx;
} Tagged;

/* Mutable kernel state.  Per-job arrays are indexed by the batch job
 * index or the session slot; batch inputs are only ever read. */
typedef struct {
    const KernelArgs *a;
    int session;
    int keyed;  /* session SJF: heaps compare a key column first */
    long n;     /* per-job capacity */
    long m;     /* n_nodes */
    long mp;    /* max_path */
    long num_events;
    long n_down;
    int status;
    /* per node; batch buffers hold n entries and never grow */
    int64_t **heap;
    long *heap_len;
    long *heap_cap;
    double **pend_t;
    int64_t **pend_key;
    int32_t **pend_idx;
    long *pend_len;
    long *pend_cap;
    long *pis;
    long *actives;
    double *astarts;
    double *arems;
    double *node_next;
    long *tc;   /* through_count */
    double *tv; /* through_volume */
    double *qv; /* queue_volume */
    double *busy;
    uint8_t *down;
    /* per job */
    double *rel;
    double *size;
    double *p_est;
    double *ftol_size;
    int64_t *job_id;
    const int64_t *rank;  /* node-heap rank */
    int64_t *leaf_rank;   /* leaf-heap rank, fixed at assignment */
    double *rem;
    long *hop;
    int32_t *jpath_off;
    int32_t *jpath_len;
    int32_t *path_id;
    double *p_leaf;
    double *ftol_leaf;
    double *prev_end;
    double *avail;
    int32_t *avail_cnt;
    double *comp;
    int32_t *comp_cnt;
    double *deficit;
    double *cancel;
    /* greedy-unrelated: each leaf's assigned jobs in ascending job id,
     * doubly linked; finished and cancelled jobs are unlinked lazily by
     * the F' scan that passes them (and a session unlinks a slot it
     * frees) */
    int32_t *at_next;
    int32_t *at_prev;
    int32_t *at_leaf; /* the list a job is on, -1 = none */
    int32_t *at_head; /* n_leaves, -1 = empty */
    int32_t *at_tail; /* n_leaves */
    /* session only */
    int64_t *seq;     /* rank of both heaps: (release, id) order */
    int64_t *aseq;    /* admission order, -1 = free slot */
    double *est;
    int32_t *skip;
    int32_t *free_slots;
    long n_free;
    long n_live;
    int64_t next_seq;
    int64_t next_aseq;
    int32_t *done;    /* slots finished in the current step */
    long n_done;
    long done_cap;
    Tagged *tags;
    int32_t *step_slot;
    long tags_cap;
    double ev_alive;
    double ev_frac;
    /* the arriving job's p_{j,v} row (unrelated setting) */
    const double *cur_pjv;
    /* policy scratch */
    Branch *branch;   /* n_entries: every leaf counted */
    Branch *filtered; /* n_entries: outage-blocked leaves dropped */
    double *bases;    /* n_entries */
    double *top_load; /* n_tops */
    uint8_t *keep;    /* n_leaves: unblocked least-loaded candidates */
} K;

int repro_abi_version(void) { return REPRO_KERNEL_ABI; }

/* ---- CPython heapq, replicated exactly (unique entries) -------------- */

/* Entry order: a session's SJF heaps compare the key column first; the
 * packed entry decides everything else. */
static inline int ent_lt(const double *kc, int64_t x, int64_t y) {
    if (kc) {
        double kx = kc[x & IDX_MASK], ky = kc[y & IDX_MASK];
        if (kx != ky)
            return kx < ky;
    }
    return x < y;
}

static inline void hpush(int64_t *h, long *len, int64_t item,
                         const double *kc) {
    /* heappush: append, then _siftdown(heap, 0, len-1). */
    long pos = (*len)++;
    while (pos > 0) {
        long parentpos = (pos - 1) >> 1;
        int64_t parent = h[parentpos];
        if (ent_lt(kc, item, parent)) {
            h[pos] = parent;
            pos = parentpos;
            continue;
        }
        break;
    }
    h[pos] = item;
}

static inline void siftup(int64_t *h, long endpos, long pos,
                          const double *kc) {
    /* _siftup: bubble the smaller child up to a leaf, place the item
     * there, then _siftdown(heap, startpos, pos). */
    long startpos = pos;
    int64_t newitem = h[pos];
    long childpos = 2 * pos + 1;
    while (childpos < endpos) {
        long rightpos = childpos + 1;
        if (rightpos < endpos && !ent_lt(kc, h[childpos], h[rightpos]))
            childpos = rightpos;
        h[pos] = h[childpos];
        pos = childpos;
        childpos = 2 * pos + 1;
    }
    while (pos > startpos) {
        long parentpos = (pos - 1) >> 1;
        int64_t parent = h[parentpos];
        if (ent_lt(kc, newitem, parent)) {
            h[pos] = parent;
            pos = parentpos;
            continue;
        }
        break;
    }
    h[pos] = newitem;
}

static inline void hpop(int64_t *h, long *len, const double *kc) {
    /* heappop with the return value discarded: pop the last element,
     * move it to the root, _siftup(heap, 0). */
    int64_t last = h[--(*len)];
    if (*len) {
        h[0] = last;
        siftup(h, *len, 0, kc);
    }
}

static void heapify(int64_t *h, long len, const double *kc) {
    for (long i = len / 2 - 1; i >= 0; i--)
        siftup(h, len, i, kc);
}

/* ---- small helpers --------------------------------------------------- */

static inline int64_t pack(int64_t rank, long idx) {
    return (rank << 32) | (int64_t)idx;
}

/* The key column node `ni`'s heap compares first (NULL: none). */
static inline const double *key_col(const K *k, long ni) {
    if (!k->keyed)
        return NULL;
    return k->a->enc[ni] ? k->size : k->p_leaf;
}

/* Job `ji`'s packed heap entry on node `ni`. */
static inline int64_t entry_of(const K *k, long ni, long ji) {
    return pack(k->a->enc[ni] ? k->rank[ji] : k->leaf_rank[ji], ji);
}

static inline long top_of(const K *k, long ni) {
    return (long)(k->heap[ni][0] & IDX_MASK);
}

static inline double pending_head(const K *k, long ni) {
    long pi = k->pis[ni];
    return pi < k->pend_len[ni] ? k->pend_t[ni][pi] : INFINITY;
}

static int regrow(void **p, size_t bytes) {
    void *q = realloc(*p, bytes ? bytes : 1);
    if (!q)
        return 0;
    *p = q;
    return 1;
}

/* Node `ni`'s heap with room for one more entry (a session doubles it;
 * a batch heap already holds every job).  NULL: out of memory. */
static int64_t *heap_room(K *k, long ni, long len) {
    if (len < k->heap_cap[ni])
        return k->heap[ni];
    long cap = 2 * k->heap_cap[ni];
    if (!regrow((void **)&k->heap[ni], (size_t)cap * sizeof(int64_t))) {
        k->status = ST_NOMEM;
        return NULL;
    }
    k->heap_cap[ni] = cap;
    return k->heap[ni];
}

/* Room for one more pending admission on node `ni`: drop the consumed
 * prefix, doubling only when the unconsumed part fills the buffer. */
static int pend_room(K *k, long ni) {
    long pi = k->pis[ni];
    long len = k->pend_len[ni];
    if (len < k->pend_cap[ni])
        return 1;
    if (pi > 0) {
        long left = len - pi;
        memmove(k->pend_t[ni], k->pend_t[ni] + pi, (size_t)left * sizeof(double));
        memmove(k->pend_key[ni], k->pend_key[ni] + pi,
                (size_t)left * sizeof(int64_t));
        memmove(k->pend_idx[ni], k->pend_idx[ni] + pi,
                (size_t)left * sizeof(int32_t));
        k->pis[ni] = 0;
        k->pend_len[ni] = left;
        if (left < k->pend_cap[ni])
            return 1;
    }
    long cap = 2 * k->pend_cap[ni];
    if (!regrow((void **)&k->pend_t[ni], (size_t)cap * sizeof(double)) ||
        !regrow((void **)&k->pend_key[ni], (size_t)cap * sizeof(int64_t)) ||
        !regrow((void **)&k->pend_idx[ni], (size_t)cap * sizeof(int32_t))) {
        k->status = ST_NOMEM;
        return 0;
    }
    k->pend_cap[ni] = cap;
    return 1;
}

static inline void comp_append(K *k, long i, double t) {
    k->comp[(size_t)i * k->mp + k->comp_cnt[i]++] = t;
}

static inline void avail_append(K *k, long i, double t) {
    k->avail[(size_t)i * k->mp + k->avail_cnt[i]++] = t;
}

/* A session job ended: its slot is collected at the step's end. */
static void job_done(K *k, long ji) {
    if (k->n_done == k->done_cap) {
        long cap = 2 * k->done_cap;
        if (!regrow((void **)&k->done, (size_t)cap * sizeof(int32_t))) {
            k->status = ST_NOMEM;
            return;
        }
        k->done_cap = cap;
    }
    k->done[k->n_done++] = (int32_t)ji;
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
            int64_t *h = k->heap[nxt];
            h[0] = pack(k->rank[ji], ji);
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
    if (!pend_room(k, nxt))
        return;
    long p = k->pend_len[nxt]++;
    k->pend_t[nxt][p] = t;
    k->pend_key[nxt][p] = entry_of(k, nxt, ji);
    k->pend_idx[nxt][p] = (int32_t)ji;
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
        k->rem[ji] = a->is_leaf[nxt] ? k->p_leaf[ji] : k->size[ji];
        avail_append(k, ji, t);
        emit(k, nxt, t, ji, allow_fused);
    } else if (k->session) {
        job_done(k, ji);
    }
}

/* Completion body shared by the completion-only sweep and the general
 * loop — one definition, so the two cannot drift apart. */
static inline void complete_job(K *k, long ni, long ji, double astart,
                                double arem, double finish, int is_leaf,
                                int agg) {
    if (agg) {
        double residual = k->rem[ji]; /* == arem: frozen while active */
        k->tc[ni] -= 1;
        k->tv[ni] -= residual;
        k->qv[ni] -= residual;
    }
    if (finish > astart)
        k->busy[ni] += finish - astart;
    k->rem[ji] = 0.0;
    comp_append(k, ji, finish);
    if (is_leaf) {
        double pl = k->p_leaf[ji];
        k->deficit[ji] +=
            (pl - arem) / pl * (astart - k->prev_end[ji]) +
            (2.0 * pl - arem) / (2.0 * pl) * (finish - astart);
    }
    hand_off(k, ji, finish, 1);
}

/* Settle job `ji`'s run on node `ni` (armed at `astart` with residual
 * `arem`) at `t` — the engine's `_settle` algebra, shared by
 * preempting admissions, the dynamic-event handlers and the horizon. */
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
        k->busy[ni] += t - astart;
        k->rem[ji] = new_rem;
        if (a->is_leaf[ni]) {
            double pl = k->p_leaf[ji];
            k->deficit[ji] +=
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
    int64_t *heap = k->heap[ni];
    const double *kc = key_col(k, ni);
    int is_leaf = a->is_leaf[ni];
    const double *ftol = is_leaf ? k->ftol_leaf : k->ftol_size;
    while (*hlen) {
        long ti = (long)(heap[0] & IDX_MASK);
        double residual = k->rem[ti];
        if (residual > ftol[ti])
            break;
        hpop(heap, hlen, kc);
        if (a->use_agg) {
            k->tc[ni] -= 1;
            k->tv[ni] -= residual;
            k->qv[ni] -= residual;
        }
        k->rem[ti] = 0.0;
        comp_append(k, ti, t);
        if (is_leaf) {
            double pl = k->p_leaf[ti];
            k->deficit[ti] += (pl - residual) / pl * (t - k->prev_end[ti]);
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
    const double *kc = key_col(k, ni);
    long pi = k->pis[ni];
    long npend = k->pend_len[ni];
    while (pi < npend && k->pend_t[ni][pi] <= limit) {
        int64_t *heap = heap_room(k, ni, k->heap_len[ni]);
        if (!heap)
            break;
        hpush(heap, &k->heap_len[ni], k->pend_key[ni][pi], kc);
        if (k->a->use_agg)
            k->qv[ni] += k->rem[k->pend_idx[ni][pi]];
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
    const double *kc = key_col(k, ni);
    double *pend_t = k->pend_t[ni];
    int64_t *pend_key = k->pend_key[ni];
    int32_t *pend_idx = k->pend_idx[ni];
    long pi = k->pis[ni];
    int64_t *heap = k->heap[ni];
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
            hpop(heap, &hlen, kc);
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
                hpop(heap, &hlen, kc);
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
        } else if (ent_lt(kc, heap[0], key)) {
            /* The incumbent outranks the newcomer: plain push, the run
             * continues unbroken — the non-preempting enqueue. */
            if (!(heap = heap_room(k, ni, hlen)))
                break;
            hpush(heap, &hlen, key, kc);
            if (agg)
                k->qv[ni] += rem[i];
            continue;
        } else {
            settle_run(k, ni, active, astart, arem, t);
            active = -1;
        }
        drain_tops(k, ni, &hlen, t, 1);
        /* Push the newcomer and rearm the (possibly new) top. */
        if (!(heap = heap_room(k, ni, hlen)))
            break;
        hpush(heap, &hlen, key, kc);
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
    if (k->status)
        return;
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

/* Settle every node at `now` and close every queued leaf job's deficit
 * there, as the engine's horizon does (`_settle_at_horizon`). */
static void settle_at(K *k, double now) {
    const KernelArgs *a = k->a;
    for (long ni = 0; ni < k->m; ni++) {
        long active = k->actives[ni];
        if (active >= 0) {
            settle_run(k, ni, active, k->astarts[ni], k->arems[ni], now);
            k->actives[ni] = -1;
        }
        if (a->is_leaf[ni])
            for (long q = 0; q < k->heap_len[ni]; q++) {
                long j = (long)(k->heap[ni][q] & IDX_MASK);
                double pl = k->p_leaf[j];
                k->deficit[j] += (pl - k->rem[j]) / pl * (now - k->prev_end[j]);
            }
    }
}

/* ---- direct admission (the engine's _enqueue at the current instant) - */

static void admit_now(K *k, long ni, double t, long i) {
    if (k->status)
        return;
    const KernelArgs *a = k->a;
    const double *kc = key_col(k, ni);
    long hlen = k->heap_len[ni];
    int64_t *heap = heap_room(k, ni, hlen);
    if (!heap)
        return;
    int64_t key = entry_of(k, ni, i);
    long active = k->actives[ni];
    if (k->down[ni] || (active >= 0 && ent_lt(kc, heap[0], key))) {
        /* A down node parks the newcomer (nothing arms until the
         * repair); a running incumbent that outranks it keeps its run.
         * Either way the node's next event is unchanged. */
        hpush(heap, &hlen, key, kc);
        k->heap_len[ni] = hlen;
        if (a->use_agg)
            k->qv[ni] += k->rem[i];
        return;
    }
    if (active >= 0)
        settle_run(k, ni, active, k->astarts[ni], k->arems[ni], t);
    drain_tops(k, ni, &hlen, t, 0);
    /* Push the newcomer and rearm the (possibly new) top. */
    hpush(heap, &hlen, key, kc);
    k->heap_len[ni] = hlen;
    if (a->use_agg)
        k->qv[ni] += k->rem[i];
    rearm(k, ni, t);
}

/* ---- arrivals (the engine's _handle_arrival after the policy call) --- */

static void handle_arrival(K *k, long i, long path_id, long skip, double now) {
    const KernelArgs *a = k->a;
    long off = a->path_off[path_id] + skip;
    long plen = a->path_len[path_id] - skip;
    k->jpath_off[i] = (int32_t)off;
    k->jpath_len[i] = (int32_t)plen;

    /* Release mutation point for the congestion aggregates. */
    if (a->use_agg) {
        double size = k->size[i];
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
    k->rem[i] = a->is_leaf[first] ? k->p_leaf[i] : k->size[i];
    sync_chain(k, first, now);
    if (k->status)
        return;
    /* Inlined fast admission paths (the two cases that dominate the
     * arrival phase); anything involving settles, finished-top drains
     * or outages goes through the full admit_now. */
    if (a->enc[first] && !k->down[first]) {
        const double *kc = key_col(k, first);
        int64_t key = pack(k->rank[i], i);
        if (k->actives[first] >= 0) {
            if (ent_lt(kc, k->heap[first][0], key)) {
                /* Incumbent outranks the newcomer: plain push, run
                 * continues unbroken, node_next unchanged. */
                int64_t *heap = heap_room(k, first, k->heap_len[first]);
                if (!heap)
                    return;
                hpush(heap, &k->heap_len[first], key, kc);
                if (a->use_agg)
                    k->qv[first] += k->rem[i];
                return;
            }
        } else if (k->heap_len[first] == 0) {
            /* Idle, fully-drained node: the newcomer starts at once. */
            k->heap[first][0] = key;
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
 * id, not yet released — its path is still empty, or it lies past a
 * bounded run's jobs — or terminal). */
static void cancel_job(K *k, long ji, double t) {
    const KernelArgs *a = k->a;
    if (ji < 0 || ji >= k->n || k->hop[ji] >= k->jpath_len[ji])
        return;
    long hop = k->hop[ji];
    long ni = a->path_concat[k->jpath_off[ji] + hop];
    const double *kc = key_col(k, ni);
    int64_t *heap = k->heap[ni];
    long hlen = k->heap_len[ni];
    int was_active = k->actives[ni] == ji;
    if (was_active) {
        settle_run(k, ni, ji, k->astarts[ni], k->arems[ni], t);
        k->actives[ni] = -1;
        const double *ftol = a->is_leaf[ni] ? k->ftol_leaf : k->ftol_size;
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
        hpop(heap, &hlen, kc);
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
            heapify(heap, hlen, kc);
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
                k->tv[v] -= k->size[ji];
        }
    }
    if (a->is_leaf[ni]) {
        /* Close out the fractional-flow deficit: the fraction is
         * `rem / p_leaf`, constant since the last settle. */
        double pl = k->p_leaf[ji];
        k->deficit[ji] += (pl - rem_i) / pl * (t - k->prev_end[ji]);
    }
    k->rem[ji] = 0.0;
    k->hop[ji] = k->jpath_len[ji];
    k->cancel[ji] = t;
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

/* ---- policy: the greedy rule (Section 3.4) --------------------------- */

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
            long l = a->entry_leaf_slot[q];
            if (k->n_down && path_blocked(k, a->leaf_path[l])) {
                changed = 1;
                continue;
            }
            double s = a->entry_leaf_steps[q];
            int64_t leaf = a->leaf_id[l];
            if (!b->keep || s < b->steps ||
                (s == b->steps && leaf < b->tie_leaf)) {
                b->steps = s;
                b->tie_leaf = leaf;
                b->tie_slot = (int32_t)l;
            }
            if (!b->keep || leaf < b->min_leaf) {
                b->min_leaf = leaf;
                b->min_slot = (int32_t)l;
            }
            b->keep = 1;
        }
        any |= b->keep;
    }
    return changed && any;
}

/* F(j, ni) at root-adjacent node `ni` (`f_top_value`'s hot path): sync
 * the node, then sum its heap in array order.  Policies score the
 * masked job: its size estimate, compared as the SJF tuple
 * (p, release, id) against queued jobs' true sizes — their leaf sizes
 * when the root-adjacent node is itself a leaf. */
static double f_top(K *k, long ni, long i, double now) {
    const KernelArgs *a = k->a;
    if (k->node_next[ni] <= now)
        advance_node(k, ni, now);
    double p_j = k->p_est[i];
    double total = p_j;
    long hl = k->heap_len[ni];
    if (!hl)
        return total;
    const int64_t *h = k->heap[ni];
    const double *p_col = a->is_leaf[ni] ? k->p_leaf : k->size;
    const double *rel = k->rel;
    const int64_t *job_id = k->job_id;
    double rel_j = rel[i];
    int64_t id_j = job_id[i];
    long active = k->actives[ni];
    double live = 0.0;
    if (active >= 0) {
        live = k->arems[ni] - a->speed[ni] * (now - k->astarts[ni]);
        if (live < 0.0)
            live = 0.0;
    }
    for (long q = 0; q < hl; q++) {
        long idx = (long)(h[q] & IDX_MASK);
        double p_i = p_col[idx];
        if (p_i < p_j ||
            (p_i == p_j &&
             (rel[idx] < rel_j ||
              (rel[idx] == rel_j && job_id[idx] < id_j))))
            total += idx == active ? live : k->rem[idx];
        else if (p_i > p_j)
            total += p_j;
    }
    return total;
}

static long assign_greedy(K *k, long i, double now) {
    const KernelArgs *a = k->a;
    double weight_p = a->weight * k->p_est[i];
    const Branch *br = k->branch;
    if (k->n_down && derive_branches(k, k->filtered))
        br = k->filtered;
    for (long e = 0; e < a->n_entries; e++)
        if (br[e].keep)
            k->bases[e] = f_top(k, a->entry_ni[e], i, now);
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
    return weight_p > 0.0 ? br[best_pos].tie_slot : br[best_pos].min_slot;
}

/* Unlink job `q` from the leaf list it is on (if any). */
static void at_unlink(K *k, long q) {
    long l = k->at_leaf[q];
    if (l < 0)
        return;
    long p = k->at_prev[q], nq = k->at_next[q];
    if (p < 0)
        k->at_head[l] = (int32_t)nq;
    else
        k->at_next[p] = (int32_t)nq;
    if (nq < 0)
        k->at_tail[l] = (int32_t)p;
    else
        k->at_prev[nq] = (int32_t)p;
    k->at_leaf[q] = -1;
}

/* F'(j, v) at leaf slot `l` (`f_prime_value`'s hot path): sync the
 * leaf's chain, then sum over the leaf's alive jobs in ascending job
 * id.  A job still upstream counts its full p_{i,v}, the job in service
 * its live residual; finished and cancelled jobs are unlinked here. */
static double f_prime(K *k, long l, long i, double p_jv, double now) {
    const KernelArgs *a = k->a;
    long lni = a->leaf_ni[l];
    sync_chain(k, lni, now);
    double total = p_jv;
    const double *rel = k->rel;
    const int64_t *job_id = k->job_id;
    double rel_j = rel[i];
    int64_t id_j = job_id[i];
    long active = k->actives[lni];
    for (long q = k->at_head[l]; q >= 0;) {
        long nq = k->at_next[q];
        long plen = k->jpath_len[q];
        if (k->hop[q] >= plen) {
            at_unlink(k, q);
            q = nq;
            continue;
        }
        double p_iv = k->p_leaf[q];
        double rem;
        if (k->hop[q] == plen - 1) { /* physically at the leaf */
            if (q == active) {
                rem = k->arems[lni] - a->speed[lni] * (now - k->astarts[lni]);
                if (rem < 0.0)
                    rem = 0.0;
            } else {
                rem = k->rem[q];
            }
        } else { /* still upstream: the full leaf requirement remains */
            rem = p_iv;
        }
        if (p_iv < p_jv ||
            (p_iv == p_jv &&
             (rel[q] < rel_j || (rel[q] == rel_j && job_id[q] < id_j))))
            total += rem;
        else if (p_iv > p_jv)
            total += p_jv * rem / p_iv;
        q = nq;
    }
    return total;
}

/* Link job `i` into leaf slot `l`'s list, keeping ascending job id
 * (an append whenever ids rise with release order). */
static void at_insert(K *k, long l, long i) {
    const int64_t *id = k->job_id;
    int32_t *next = k->at_next;
    int32_t *prev = k->at_prev;
    long tail = k->at_tail[l];
    k->at_leaf[i] = (int32_t)l;
    if (tail < 0 || id[tail] < id[i]) {
        next[i] = -1;
        prev[i] = (int32_t)tail;
        if (tail < 0)
            k->at_head[l] = (int32_t)i;
        else
            next[tail] = (int32_t)i;
        k->at_tail[l] = (int32_t)i;
        return;
    }
    long q = k->at_head[l];
    while (id[q] < id[i])
        q = next[q];
    long p = prev[q];
    next[i] = (int32_t)q;
    prev[i] = (int32_t)p;
    prev[q] = (int32_t)i;
    if (p < 0)
        k->at_head[l] = (int32_t)i;
    else
        next[p] = (int32_t)i;
}

/* p_{j,v} of the arriving job `i` at leaf slot `l`, as the masked job
 * reports it. */
static inline double p_on_slot(const K *k, long i, long l) {
    return k->cur_pjv ? k->cur_pjv[l] : k->p_est[i];
}

/* GreedyUnrelatedAssignment: F + F' + weight * p_j * steps per feasible
 * leaf.  Down-aware with its unfiltered rescan: when every feasible leaf
 * sits behind an outage, the leaves are rescored ignoring it. */
static long assign_greedy_unrelated(K *k, long i, double now) {
    const KernelArgs *a = k->a;
    double weight_p = a->weight * k->p_est[i];
    int filter = k->n_down > 0;
    for (;;) {
        long best = -1;
        int64_t best_leaf = 0;
        double best_score = INFINITY;
        for (long e = 0; e < a->n_entries; e++) {
            double base = 0.0;
            int priced = 0;
            for (long q = a->entry_leaf_off[e]; q < a->entry_leaf_off[e + 1];
                 q++) {
                long l = a->entry_leaf_slot[q];
                double p_jv = p_on_slot(k, i, l);
                if (isinf(p_jv))
                    continue;
                if (filter && path_blocked(k, a->leaf_path[l]))
                    continue;
                if (!priced) {
                    base = f_top(k, a->entry_ni[e], i, now);
                    priced = 1;
                }
                double score = base + f_prime(k, l, i, p_jv, now) +
                               weight_p * a->entry_leaf_steps[q];
                int64_t leaf = a->leaf_id[l];
                if (score < best_score ||
                    (score == best_score && (best < 0 || leaf < best_leaf))) {
                    best_score = score;
                    best_leaf = leaf;
                    best = l;
                }
            }
        }
        if (k->status)
            return -1;
        if (best >= 0 || !filter)
            return best;
        filter = 0;
    }
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
    long n_leaves = a->n_leaves;
    const double *p_jv = k->cur_pjv;
    /* Down-aware: feasible candidates whose path crosses a down node
     * drop out, unless that would drop every feasible candidate. */
    const uint8_t *keep = NULL;
    if (k->n_down) {
        long kept = 0, feasible = 0;
        for (long c = 0; c < n_leaves; c++) {
            uint8_t ok = 0;
            if (!p_jv || !isinf(p_jv[c])) {
                feasible += 1;
                ok = (uint8_t)!path_blocked(k, a->leaf_path[c]);
            }
            k->keep[c] = ok;
            kept += ok;
        }
        if (kept && kept < feasible)
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
    /* The masked job's own path volume: d·p for uniform sizes, and
     * (d-1)·p + p_{j,v} over per-leaf sizes (the two round differently). */
    double p = k->p_est[i];
    long best_pos = -1;
    int64_t best_leaf = 0;
    double best_score = INFINITY;
    for (long c = 0; c < n_leaves; c++) {
        if (keep && !keep[c])
            continue;
        double own;
        if (p_jv) {
            if (isinf(p_jv[c]))
                continue;
            own = (a->leaf_d[c] - 1.0) * p + p_jv[c];
        } else {
            own = a->leaf_d[c] * p;
        }
        long lni = a->leaf_ni[c];
        sync_chain(k, lni, now); /* volume_through syncs the leaf chain */
        double vol;
        if (k->tc[lni] == 0) {
            vol = 0.0;
        } else {
            vol = k->tv[lni] - live_processed(k, lni, now);
            if (!(vol > 0.0))
                vol = 0.0;
        }
        double score = k->top_load[a->leaf_top[c]] + vol + own;
        int64_t leaf = a->leaf_id[c];
        if (score < best_score ||
            (score == best_score && (best_pos < 0 || leaf < best_leaf))) {
            best_score = score;
            best_leaf = leaf;
            best_pos = c;
        }
    }
    if (k->status)
        return -1;
    return best_pos;
}

/* ---- one arrival: the policy call, then _handle_arrival -------------- */

/* Job `i` arrives at `now` with `pjv` its p_{j,v} row (unrelated
 * setting).  A static leaf comes in as `slot`; `skip` drops the hops
 * above a router origin. */
static void arrive(K *k, long i, double now, long slot, long skip,
                   const double *pjv) {
    const KernelArgs *a = k->a;
    long kind = (long)a->policy_kind;
    k->cur_pjv = pjv;
    if (kind != 0) {
        slot = kind == 1   ? assign_greedy(k, i, now)
               : kind == 2 ? assign_least_loaded(k, i, now)
                           : assign_greedy_unrelated(k, i, now);
        if (slot < 0) {
            /* A nested advance tripped max_events, or (vacuous for
             * validated instances) every score was NaN. */
            if (!k->status)
                k->status = ST_BAD_ARGS;
            return;
        }
    }
    if (kind != 0 || k->session) {
        if (pjv) {
            double pl = pjv[slot];
            double ft = a->ftol_rtol * pl;
            k->p_leaf[i] = pl;
            k->ftol_leaf[i] = ft > a->ftol_atol ? ft : a->ftol_atol;
            if (!k->session && a->rank_jv)
                k->leaf_rank[i] = a->rank_jv[(size_t)i * a->n_leaves + slot];
        } else {
            /* Identical setting: p_{j,leaf} == p_j. */
            k->p_leaf[i] = k->size[i];
            k->ftol_leaf[i] = k->ftol_size[i];
        }
        if (kind == 3)
            at_insert(k, slot, i);
    }
    long path_id = a->leaf_path[slot];
    k->path_id[i] = (int32_t)path_id;
    handle_arrival(k, i, path_id, skip, now);
}

/* ---- batch entry point ------------------------------------------------ */

int repro_run(const KernelArgs *a) {
    if (!a || a->n_jobs < 0 || a->n_nodes <= 0 || a->max_path <= 0)
        return ST_BAD_ARGS;
    long n = (long)a->n_jobs;
    long m = (long)a->n_nodes;

    K k;
    memset(&k, 0, sizeof(k));
    k.a = a;
    k.n = n;
    k.m = m;
    k.mp = (long)a->max_path;

    size_t mn = (size_t)m * (size_t)n;
    size_t ne = (size_t)(a->n_entries > 0 ? a->n_entries : 1);
    size_t nt = (size_t)(a->n_tops > 0 ? a->n_tops : 1);
    size_t nl = (size_t)(a->n_leaves > 0 ? a->n_leaves : 1);
    size_t bytes = 0;
    bytes += mn * sizeof(int64_t);        /* heaps */
    bytes += mn * sizeof(double);         /* pend_t */
    bytes += mn * sizeof(int64_t);        /* pend_key */
    bytes += mn * sizeof(int32_t);        /* pend_idx */
    bytes += (size_t)m * sizeof(void *) * 4; /* per-node buffer pointers */
    bytes += (size_t)m * sizeof(long) * 8;   /* lengths, caps, pis, actives, tc */
    bytes += (size_t)m * sizeof(double) * 6; /* astarts arems node_next tv qv busy */
    bytes += (size_t)n * sizeof(double) * 4; /* rem p_leaf ftol_leaf prev_end */
    bytes += (size_t)n * sizeof(int64_t);    /* leaf_rank */
    bytes += (size_t)n * sizeof(long);       /* hop */
    bytes += (size_t)n * sizeof(int32_t) * 5; /* jpath_off jpath_len at_* */
    bytes += ne * sizeof(Branch) * 2;         /* branch filtered */
    bytes += ne * sizeof(double);             /* bases */
    bytes += nt * sizeof(double);             /* top_load */
    bytes += nl * sizeof(int32_t) * 2;        /* at_head at_tail */
    bytes += (size_t)m + nl;                  /* down keep */
    char *blob = (char *)malloc(bytes);
    if (!blob)
        return ST_NOMEM;
    char *p = blob;
    /* Widest fields first, so every field is naturally aligned. */
#define TAKE(var, type, count)                                               \
    var = (type *)p;                                                         \
    p += (size_t)(count) * sizeof(type)
    int64_t *heap_block, *pend_key_block;
    double *pend_t_block;
    int32_t *pend_idx_block;
    TAKE(heap_block, int64_t, mn);
    TAKE(pend_t_block, double, mn);
    TAKE(pend_key_block, int64_t, mn);
    TAKE(k.heap, int64_t *, m);
    TAKE(k.pend_t, double *, m);
    TAKE(k.pend_key, int64_t *, m);
    TAKE(k.pend_idx, int32_t *, m);
    TAKE(k.heap_len, long, m);
    TAKE(k.heap_cap, long, m);
    TAKE(k.pend_len, long, m);
    TAKE(k.pend_cap, long, m);
    TAKE(k.pis, long, m);
    TAKE(k.actives, long, m);
    TAKE(k.tc, long, m);
    TAKE(k.astarts, double, m);
    TAKE(k.arems, double, m);
    TAKE(k.node_next, double, m);
    TAKE(k.tv, double, m);
    TAKE(k.qv, double, m);
    TAKE(k.busy, double, m);
    TAKE(k.rem, double, n);
    TAKE(k.p_leaf, double, n);
    TAKE(k.ftol_leaf, double, n);
    TAKE(k.prev_end, double, n);
    TAKE(k.leaf_rank, int64_t, n);
    TAKE(k.hop, long, n);
    TAKE(k.branch, Branch, ne);
    TAKE(k.filtered, Branch, ne);
    TAKE(k.bases, double, ne);
    TAKE(k.top_load, double, nt);
    TAKE(pend_idx_block, int32_t, mn);
    TAKE(k.jpath_off, int32_t, n);
    TAKE(k.jpath_len, int32_t, n);
    TAKE(k.at_next, int32_t, n);
    TAKE(k.at_prev, int32_t, n);
    TAKE(k.at_leaf, int32_t, n);
    TAKE(k.at_head, int32_t, nl);
    TAKE(k.at_tail, int32_t, nl);
    TAKE(k.down, uint8_t, m);
    TAKE(k.keep, uint8_t, nl);
#undef TAKE
    /* The batch job columns are read-only inputs: the kernel never
     * writes through these pointers. */
    k.rel = (double *)a->rel;
    k.size = (double *)a->size;
    k.p_est = (double *)a->p_est;
    k.ftol_size = (double *)a->ftol_size;
    k.job_id = (int64_t *)a->job_id;
    k.rank = a->rank;
    k.path_id = a->out_path_id;
    k.avail = a->out_avail;
    k.avail_cnt = a->out_avail_cnt;
    k.comp = a->out_comp;
    k.comp_cnt = a->out_comp_cnt;
    k.deficit = a->out_deficit;
    k.cancel = a->out_cancel;

    for (long ni = 0; ni < m; ni++) {
        k.heap[ni] = heap_block + (size_t)ni * n;
        k.pend_t[ni] = pend_t_block + (size_t)ni * n;
        k.pend_key[ni] = pend_key_block + (size_t)ni * n;
        k.pend_idx[ni] = pend_idx_block + (size_t)ni * n;
        k.heap_cap[ni] = k.pend_cap[ni] = n;
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
        k.busy[ni] = 0.0;
        k.down[ni] = 0;
    }
    for (long i = 0; i < n; i++) {
        k.rem[i] = 0.0;
        k.prev_end[i] = 0.0;
        k.hop[i] = 0;
        k.jpath_off[i] = 0;
        k.jpath_len[i] = 0;
        k.at_leaf[i] = -1;
        a->out_deficit[i] = 0.0;
        /* Availability timelines pre-seeded with the release instant:
         * a job's first availability is exactly its release. */
        a->out_avail[(size_t)i * k.mp] = a->rel[i];
        a->out_avail_cnt[i] = 1;
        a->out_comp_cnt[i] = 0;
        k.leaf_rank[i] = 0;
        if (a->policy_kind == 0) {
            k.p_leaf[i] = a->p_leaf_in[i];
            k.ftol_leaf[i] = a->ftol_leaf_in[i];
            if (a->leaf_rank_in)
                k.leaf_rank[i] = a->leaf_rank_in[i];
        }
    }
    for (size_t l = 0; l < nl; l++)
        k.at_head[l] = k.at_tail[l] = -1;

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
        arrive(&k, i, now, kind == 0 ? a->job_path_id[i] : -1,
               a->job_skip ? a->job_skip[i] : 0,
               a->p_jv ? a->p_jv + (size_t)i * a->n_leaves : NULL);
    }
    /* Events left after the last arrival, up to the horizon, run before
     * the final sweep. */
    while (e < n_dyn && a->ev_time[e] <= a->horizon && !k.status)
        apply_event(&k, e++);
    /* Arrivals and dynamic events count as events, as on the engine. */
    k.num_events += n + e;

    /* Final sweep: preorder guarantees every node's parent is synced
     * first, so one pass runs all work due by the horizon (at infinity,
     * all in-flight work); a finite horizon then settles there. */
    sync_all(&k, a->horizon);
    if (!k.status && a->horizon < INFINITY)
        settle_at(&k, a->horizon);

    *a->out_num_events = (int64_t)k.num_events;
    free(blob);
    return k.status;
}

/* ---- session entry points --------------------------------------------- */

static int cmp_tagged(const void *x, const void *y) {
    const Tagged *p = (const Tagged *)x, *q = (const Tagged *)y;
    if (p->t != q->t)
        return p->t < q->t ? -1 : 1;
    return (p->id > q->id) - (p->id < q->id);
}

/* The per-slot arrays of a session, with their widths in elements. */
#define SLOT_ARRAYS(X)                                                       \
    X(rel, double, 1) X(size, double, 1) X(p_est, double, 1)                 \
    X(ftol_size, double, 1) X(job_id, int64_t, 1) X(seq, int64_t, 1)         \
    X(aseq, int64_t, 1) X(est, double, 1) X(rem, double, 1)                  \
    X(p_leaf, double, 1) X(ftol_leaf, double, 1) X(prev_end, double, 1)      \
    X(hop, long, 1) X(jpath_off, int32_t, 1) X(jpath_len, int32_t, 1)        \
    X(path_id, int32_t, 1) X(skip, int32_t, 1) X(at_next, int32_t, 1)        \
    X(at_prev, int32_t, 1) X(at_leaf, int32_t, 1) X(deficit, double, 1)      \
    X(cancel, double, 1) X(avail_cnt, int32_t, 1) X(comp_cnt, int32_t, 1)    \
    X(free_slots, int32_t, 1) X(avail, double, k->mp) X(comp, double, k->mp)

/* Room for `need` live slots: every per-slot array doubles until it
 * fits, and the new slots join the free stack. */
static int grow_slots(K *k, long need) {
    long cap = k->n ? k->n : 16;
    while (cap < need)
        cap *= 2;
    if (cap == k->n)
        return 1;
#define GROW(f, T, w)                                                        \
    if (!regrow((void **)&k->f, (size_t)cap * (size_t)(w) * sizeof(T)))      \
        return 0;
    SLOT_ARRAYS(GROW)
#undef GROW
    k->rank = k->seq;
    k->leaf_rank = k->seq;
    for (long s = cap - 1; s >= k->n; s--) {
        k->aseq[s] = -1;
        k->free_slots[k->n_free++] = (int32_t)s;
    }
    k->n = cap;
    return 1;
}

static int reserve_tags(K *k, long need) {
    if (need <= k->tags_cap)
        return 1;
    long cap = k->tags_cap ? k->tags_cap : 16;
    while (cap < need)
        cap *= 2;
    if (!regrow((void **)&k->tags, (size_t)cap * sizeof(Tagged)) ||
        !regrow((void **)&k->step_slot, (size_t)cap * sizeof(int32_t)))
        return 0;
    k->tags_cap = cap;
    return 1;
}

/* Rebase every live sequence number (heap and pending entries too) so
 * the oldest is 0: relative order, hence every heap, is unchanged. */
static void rebase_seq(K *k) {
    int64_t base = k->next_seq;
    for (long s = 0; s < k->n; s++)
        if (k->aseq[s] >= 0 && k->seq[s] < base)
            base = k->seq[s];
    for (long s = 0; s < k->n; s++)
        if (k->aseq[s] >= 0)
            k->seq[s] -= base;
    for (long ni = 0; ni < k->m; ni++) {
        for (long q = 0; q < k->heap_len[ni]; q++) {
            int64_t e = k->heap[ni][q];
            k->heap[ni][q] = pack((e >> 32) - base, (long)(e & IDX_MASK));
        }
        for (long q = k->pis[ni]; q < k->pend_len[ni]; q++) {
            int64_t e = k->pend_key[ni][q];
            k->pend_key[ni][q] = pack((e >> 32) - base, (long)(e & IDX_MASK));
        }
    }
    k->next_seq -= base;
}

void repro_session_free(void *h) {
    K *k = (K *)h;
    if (!k)
        return;
    if (k->heap)
        for (long ni = 0; ni < k->m; ni++) {
            free(k->heap[ni]);
            free(k->pend_t[ni]);
            free(k->pend_key[ni]);
            free(k->pend_idx[ni]);
        }
    void *owned[] = {
        k->heap, k->pend_t, k->pend_key, k->pend_idx, k->heap_len,
        k->heap_cap, k->pend_len, k->pend_cap, k->pis, k->actives,
        k->astarts, k->arems, k->node_next, k->tc, k->tv, k->qv, k->busy,
        k->down, k->branch, k->filtered, k->bases, k->top_load, k->keep,
        k->at_head, k->at_tail, k->done, k->tags, k->step_slot,
    };
    for (size_t q = 0; q < sizeof(owned) / sizeof(owned[0]); q++)
        free(owned[q]);
#define FREE(f, T, w) free(k->f);
    SLOT_ARRAYS(FREE)
#undef FREE
    free(k);
}

/* Open a session over the topology and policy tables of `a`, which
 * must outlive it (the job columns and batch outputs are not read).
 * Returns NULL when out of memory or on bad arguments. */
void *repro_session_open(const KernelArgs *a) {
    if (!a || a->n_nodes <= 0 || a->max_path <= 0 || a->n_dyn)
        return NULL;
    K *k = (K *)calloc(1, sizeof(K));
    if (!k)
        return NULL;
    long m = (long)a->n_nodes;
    k->a = a;
    k->session = 1;
    k->keyed = a->sjf != 0;
    k->m = m;
    k->mp = (long)a->max_path;
    size_t ne = (size_t)(a->n_entries > 0 ? a->n_entries : 1);
    size_t nt = (size_t)(a->n_tops > 0 ? a->n_tops : 1);
    size_t nl = (size_t)(a->n_leaves > 0 ? a->n_leaves : 1);
    int ok = (k->heap = calloc((size_t)m, sizeof(int64_t *))) &&
             (k->pend_t = calloc((size_t)m, sizeof(double *))) &&
             (k->pend_key = calloc((size_t)m, sizeof(int64_t *))) &&
             (k->pend_idx = calloc((size_t)m, sizeof(int32_t *))) &&
             (k->heap_len = calloc((size_t)m, sizeof(long))) &&
             (k->heap_cap = calloc((size_t)m, sizeof(long))) &&
             (k->pend_len = calloc((size_t)m, sizeof(long))) &&
             (k->pend_cap = calloc((size_t)m, sizeof(long))) &&
             (k->pis = calloc((size_t)m, sizeof(long))) &&
             (k->actives = calloc((size_t)m, sizeof(long))) &&
             (k->astarts = calloc((size_t)m, sizeof(double))) &&
             (k->arems = calloc((size_t)m, sizeof(double))) &&
             (k->node_next = calloc((size_t)m, sizeof(double))) &&
             (k->tc = calloc((size_t)m, sizeof(long))) &&
             (k->tv = calloc((size_t)m, sizeof(double))) &&
             (k->qv = calloc((size_t)m, sizeof(double))) &&
             (k->busy = calloc((size_t)m, sizeof(double))) &&
             (k->down = calloc((size_t)m, 1)) &&
             (k->branch = calloc(ne, sizeof(Branch))) &&
             (k->filtered = calloc(ne, sizeof(Branch))) &&
             (k->bases = calloc(ne, sizeof(double))) &&
             (k->top_load = calloc(nt, sizeof(double))) &&
             (k->keep = calloc(nl, 1)) &&
             (k->at_head = malloc(nl * sizeof(int32_t))) &&
             (k->at_tail = malloc(nl * sizeof(int32_t))) &&
             (k->done = malloc(16 * sizeof(int32_t)));
    for (long ni = 0; ok && ni < m; ni++) {
        ok = (k->heap[ni] = malloc(8 * sizeof(int64_t))) &&
             (k->pend_t[ni] = malloc(8 * sizeof(double))) &&
             (k->pend_key[ni] = malloc(8 * sizeof(int64_t))) &&
             (k->pend_idx[ni] = malloc(8 * sizeof(int32_t)));
        k->heap_cap[ni] = k->pend_cap[ni] = 8;
        k->actives[ni] = -1;
        k->node_next[ni] = INFINITY;
    }
    if (!ok || !grow_slots(k, a->n_jobs > 16 ? (long)a->n_jobs : 16) ||
        !reserve_tags(k, 16)) {
        repro_session_free(k);
        return NULL;
    }
    k->done_cap = 16;
    for (size_t l = 0; l < nl; l++)
        k->at_head[l] = k->at_tail[l] = -1;
    if (a->policy_kind == 1)
        derive_branches(k, k->branch);
    return k;
}

/* Write slot `slot`'s row `r` of the output columns. */
static void put_row(K *k, StepArgs *s, long r, long slot, double comp) {
    size_t mp = (size_t)k->mp;
    s->out_id[r] = k->job_id[slot];
    s->out_rel[r] = k->rel[slot];
    s->out_comp[r] = comp;
    s->out_est[r] = k->est[slot];
    s->out_deficit[r] = k->deficit[slot];
    s->out_leaf[r] = k->path_id[slot];
    s->out_skip[r] = k->skip[slot];
    s->out_avail_cnt[r] = k->avail_cnt[slot];
    s->out_hops_cnt[r] = k->comp_cnt[slot];
    memcpy(s->out_avail + r * mp, k->avail + (size_t)slot * mp,
           (size_t)k->avail_cnt[slot] * sizeof(double));
    memcpy(s->out_hops + r * mp, k->comp + (size_t)slot * mp,
           (size_t)k->comp_cnt[slot] * sizeof(double));
}

static void put_tallies(K *k, StepArgs *s) {
    s->num_events = k->num_events;
    s->n_live = k->n_live;
    s->evicted_alive = k->ev_alive;
    s->evicted_frac = k->ev_frac;
}

/* Admit the step's jobs, run to `until`, and hand back the jobs that
 * finished (sorted by completion time, then id; their flow terms folded
 * in that order and their slots freed) plus every node's busy time. */
int repro_session_step(void *h, StepArgs *s) {
    K *k = (K *)h;
    if (!k || !s || s->n < 0)
        return ST_BAD_ARGS;
    if (k->status)
        return k->status;
    const KernelArgs *a = k->a;
    long n = (long)s->n;
    if ((k->n_live + n > k->n && !grow_slots(k, k->n_live + n)) ||
        !reserve_tags(k, n))
        return k->status = ST_NOMEM;
    if (k->next_seq + n >= SEQ_LIMIT) {
        rebase_seq(k);
        if (k->next_seq + n >= SEQ_LIMIT)
            return k->status = ST_NOMEM;
    }
    size_t mp = (size_t)k->mp;
    for (long j = 0; j < n; j++) {
        long i = k->free_slots[--k->n_free];
        k->step_slot[j] = (int32_t)i;
        k->rel[i] = s->rel[j];
        k->size[i] = s->size[j];
        k->p_est[i] = s->p_est[j];
        double ft = a->ftol_rtol * s->size[j];
        k->ftol_size[i] = ft > a->ftol_atol ? ft : a->ftol_atol;
        k->job_id[i] = s->job_id[j];
        k->est[i] = s->est[j];
        k->aseq[i] = k->next_aseq++;
        k->skip[i] = s->skip ? s->skip[j] : 0;
        k->rem[i] = 0.0;
        k->prev_end[i] = 0.0;
        k->hop[i] = 0;
        k->jpath_off[i] = 0;
        k->jpath_len[i] = 0;
        k->at_leaf[i] = -1;
        k->deficit[i] = 0.0;
        k->cancel[i] = NAN;
        k->avail[(size_t)i * mp] = s->rel[j];
        k->avail_cnt[i] = 1;
        k->comp_cnt[i] = 0;
        k->tags[j].t = s->rel[j];
        k->tags[j].id = s->job_id[j];
        k->tags[j].idx = j;
    }
    /* Sequence numbers: the step's jobs in (release, id) order. */
    qsort(k->tags, (size_t)n, sizeof(Tagged), cmp_tagged);
    for (long r = 0; r < n; r++)
        k->seq[k->step_slot[k->tags[r].idx]] = k->next_seq + r;
    k->next_seq += n;
    k->n_live += n;

    long n_leaves = (long)a->n_leaves;
    for (long j = 0; j < n && !k->status; j++)
        arrive(k, k->step_slot[j], s->at[j],
               s->leaf_slot ? s->leaf_slot[j] : -1,
               k->skip[k->step_slot[j]],
               s->p_jv ? s->p_jv + (size_t)j * n_leaves : NULL);
    k->num_events += n;
    if (!k->status)
        sync_all(k, s->until);
    if (k->status)
        return k->status;

    /* The finished jobs, in (completion time, id) order. */
    long nd = k->n_done;
    if (nd > s->out_cap)
        return k->status = ST_BAD_ARGS;
    if (!reserve_tags(k, nd))
        return k->status = ST_NOMEM;
    for (long d = 0; d < nd; d++) {
        long i = k->done[d];
        k->tags[d].t = k->comp[(size_t)i * mp + k->comp_cnt[i] - 1];
        k->tags[d].id = k->job_id[i];
        k->tags[d].idx = i;
    }
    qsort(k->tags, (size_t)nd, sizeof(Tagged), cmp_tagged);
    for (long r = 0; r < nd; r++) {
        long i = k->tags[r].idx;
        double t = k->tags[r].t;
        put_row(k, s, r, i, t);
        double flow = t - k->rel[i];
        k->ev_alive += flow;
        k->ev_frac += flow - k->deficit[i];
        at_unlink(k, i);
        k->aseq[i] = -1;
        k->free_slots[k->n_free++] = (int32_t)i;
    }
    k->n_done = 0;
    k->n_live -= nd;
    s->n_out = nd;
    double until = s->until;
    for (long ni = 0; ni < k->m; ni++) {
        double b = k->busy[ni];
        if (k->actives[ni] >= 0 && until > k->astarts[ni])
            b += until - k->astarts[ni];
        s->busy[ni] = b;
    }
    put_tallies(k, s);
    return ST_OK;
}

/* Settle at `until` (the session's clock); then hand back the in-flight
 * jobs in admission order and every node's gauge state.  The session
 * cannot step afterwards. */
int repro_session_close(void *h, StepArgs *s) {
    K *k = (K *)h;
    if (!k || !s)
        return ST_BAD_ARGS;
    if (k->status)
        return k->status;
    settle_at(k, s->until);
    if (k->n_live > s->out_cap || !reserve_tags(k, k->n_live))
        return k->status = ST_BAD_ARGS;
    long r = 0;
    for (long i = 0; i < k->n; i++)
        if (k->aseq[i] >= 0) {
            k->tags[r].t = 0.0;
            k->tags[r].id = k->aseq[i];
            k->tags[r].idx = i;
            r += 1;
        }
    qsort(k->tags, (size_t)r, sizeof(Tagged), cmp_tagged);
    for (long q = 0; q < r; q++)
        put_row(k, s, q, k->tags[q].idx, NAN);
    s->n_out = r;
    for (long ni = 0; ni < k->m; ni++) {
        s->busy[ni] = k->busy[ni];
        s->depth[ni] = k->heap_len[ni];
        s->qvol[ni] = k->qv[ni];
        s->through[ni] = k->tc[ni];
    }
    put_tallies(k, s);
    k->status = ST_BAD_ARGS; /* closed */
    return ST_OK;
}
