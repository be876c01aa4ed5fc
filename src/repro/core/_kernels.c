/* Compiled kernels: ADWISE's window loop (Algorithm 1) and the
 * single-edge stream kernel (HDRF: straight-line passes over k bound
 * rows per edge), each one transaction per batch, the
 * vertex id -> dense row table both are fed through, the edge-file line
 * scanner and its inverse (integer rows -> text), the scanner of the
 * daemon's request line's "edges" member, and the cluster's BSP
 * host step (combine over a host's adjacency slots, fold over its sync
 * plan).
 *
 * Built by repro/core/_kernels.py with
 *
 *     cc -O3 -fPIC -shared -ffp-contract=off
 *
 * and loaded through cffi's ABI mode; the declarations between the
 * cdef markers below are what Python hands to ffi.cdef, so the struct
 * layout and the prototypes have exactly one source.
 *
 * -ffp-contract=off forbids fused multiply-adds so every float64
 * operation rounds exactly like the object-window reference (numpy /
 * Python float arithmetic); nothing here may reorder or fuse
 * floating-point arithmetic.
 *
 * Ownership (DESIGN.md §14): every array is a numpy buffer owned,
 * grown and rebound in Python (repro/core/_binding.py for the state
 * tables and output lists, repro/core/array_window.py for the window's,
 * repro/partitioning/fast_state.py for its intern table,
 * repro/cluster/transport.py for the host step's) — this file never
 * allocates or frees.  When a buffer runs out the kernel returns a
 * KERN_NEED_* status *before* mutating anything the retry would repeat;
 * Python grows the buffer, rebinds the pointer and calls again.
 */

#include <stdint.h>
#include <string.h>

/* cdef-begin */
#define KERN_DONE 0            /* input consumed, nothing more to pop   */
#define KERN_BLOCK_BOUNDARY 1  /* n_out reached stop_at: adapt w        */
#define KERN_NEED_SLOTS 2      /* slot free-list empty                  */
#define KERN_NEED_ARENA 3      /* arena cannot take `need` more entries */
#define KERN_NEED_OUT 4        /* out_* / chg_* buffers full            */
#define KERN_NEED_ROWS 5       /* every dense row taken (kern_intern)   */
#define KERN_NEED_TABLE 6      /* intern table would pass load 1/2      */

typedef struct {
    /* Per-slot arrays (slot_cap entries unless noted). */
    double  *score;         /* cached best score g(e, p*)              */
    double  *rep;           /* slot_cap x k memoized R(e, .)           */
    double  *cs;            /* slot_cap x k memoized CS(e, .)          */
    int64_t *col;           /* cached best partition (spread column)   */
    int64_t *entry;         /* entry id (stream order, unique)         */
    int64_t *slot_version;  /* window version the cache was scored at  */
    int64_t *rep_key;       /* slot_cap x 5 validity key of rep        */
    int64_t *nbr_key;       /* slot_cap x 2 validity key of the segment */
    int64_t *cs_sum;        /* neighbour row-version checksum of cs    */
    int64_t *ui;            /* dense row of endpoint u                 */
    int64_t *vi;            /* dense row of endpoint v                 */
    int64_t *nbr_start;     /* neighbourhood segment in the arena      */
    int64_t *nbr_count;
    int64_t *agenda;        /* the num_candidates candidate slots,     */
                            /*   ascending entry id                    */
    int64_t *free_slots;    /* LIFO free-list, num_free entries        */
    int64_t *link_next;     /* 2 x slot_cap incidence nodes: node      */
    int64_t *link_prev;     /*   2s sits in ui[s]'s list, 2s+1 in vi's */
    int64_t *scratch;       /* 3 x slot_cap                            */
    uint8_t *candidate;
    uint8_t *alive;
    /* Per-dense-vertex arrays (vertex_cap entries). */
    int64_t *iver;          /* incidence version (window membership)   */
    int64_t *head;          /* first incidence node, -1 if none        */
    int64_t *stamp;         /* neighbourhood dedupe marks              */
    uint8_t *replicas;      /* vertex_cap x k replica matrix (state)   */
    int64_t *row_version;   /* replica-row versions (state)            */
    int64_t *deg;           /* dense degree table (state)              */
    /* Per-partition arrays (k entries). */
    double  *lamb;          /* lambda * B(p); kern_hdrf: lam * C_bal(p) */
    int64_t *lamb_version;  /* window version lamb[p] last moved at    */
    int64_t *sizes;         /* partition sizes (state)                 */
    double  *krow;          /* kern_hdrf: one edge's score row         */
    /* Neighbourhood arena and transaction outputs. */
    int64_t *pool;
    int64_t *out_u;         /* popped assignments, n_out entries: the  */
    int64_t *out_v;         /*   edge's dense rows, its partition      */
    int64_t *out_col;       /*   column and its score                  */
    double  *out_score;
    int64_t *chg_row;       /* newly set replica bits, n_changed       */
    int64_t *chg_col;
    /* Capacities. */
    int64_t k, slot_cap, vertex_cap, pool_cap, out_cap;
    /* Configuration. */
    int64_t lazy, use_cs, max_candidates, adaptive_lambda, total_edges;
    double  epsilon;
    /* Window scalars. */
    int64_t count, num_candidates, next_id, version, promotions;
    int64_t num_free, pool_used, stamp_clock;
    int64_t lamb_epoch;     /* window version all of lamb last moved at */
    double  score_sum;
    /* Vertex-cache scalars (mirrors of the partition state). */
    int64_t max_degree, max_size, min_size, assigned_edges;
    double  lam;
    /* Transaction cursors. */
    int64_t consumed;       /* input edges admitted so far             */
    int64_t n_out, n_changed;
    int64_t charge;         /* score computations to charge the clock  */
    int64_t need;           /* arena entries wanted on KERN_NEED_ARENA */
    int64_t rule3_pending;  /* changed rows whose rule 3 is unfinished */
    /* Tallies. */
    int64_t stat_refills, stat_pops, stat_rescored_slots;
    int64_t stat_rep_recomputed, stat_cs_recomputed;
    int64_t stat_agenda_inserts, stat_agenda_removes, stat_agenda_rescores;
    int64_t stat_agenda_scanned, stat_segments_written, stat_assembled;
} KernCtx;

int64_t kern_pump(KernCtx *c, const int64_t *pairs, int64_t n,
                  int64_t target_w, int64_t force, int64_t stop_at);
int64_t kern_hdrf(KernCtx *c, const int64_t *pairs, int64_t n, double lam);
int64_t kern_restore(KernCtx *c, const int64_t *pairs,
                     const int64_t *entry, const double *score,
                     const int64_t *col, const int64_t *version,
                     const uint8_t *candidate, int64_t n);
/* FastPartitionState's vertex intern table: open addressing over `cap`
 * slots (a power of two >= 2, load <= 1/2), linear probing. */
typedef struct {
    int64_t *slots;         /* cap x 2: the id interned at a slot and   */
                            /*   its dense row; row -1 = slot empty     */
    int64_t *ids;           /* row -> id, row_cap entries: row order is */
    int64_t cap, row_cap;   /*   first-sight order                      */
    int64_t n_rows;         /* ids interned so far                      */
    int64_t cursor;         /* input ids kern_intern has resolved       */
} InternTable;

int64_t kern_intern(InternTable *t, const int64_t *ids, int64_t n,
                    int64_t *rows);
void kern_lookup(const InternTable *t, const int64_t *ids, int64_t n,
                 int64_t *rows);
void kern_rehash(InternTable *t);
int64_t kern_parse_rows(const uint8_t *buf, int64_t len, int64_t ncols,
                        int64_t *out, int64_t cap, int64_t *consumed);
int64_t kern_format_rows(const int64_t *rows, int64_t n, int64_t ncols,
                         const char *open, int64_t open_len,
                         const char *sep, int64_t sep_len,
                         const char *close, int64_t close_len,
                         uint8_t *out, int64_t cap);
int64_t kern_scan_edges(const uint8_t *line, int64_t len, int64_t *out,
                        int64_t cap, int64_t *span);
/* The cluster's host step over 8-byte elements: what `op` combines. */
#define KERN_ADD_F64 0
#define KERN_MIN_F64 1
#define KERN_MIN_I64 2

void kern_scatter(int64_t op, const int64_t *indices, const int64_t *rows,
                  int64_t n_slots, const uint8_t *send, const void *values,
                  void *out, uint8_t *recv);
void kern_sync_take(const void *values, const uint8_t *recv,
                    const int64_t *mirrors, const int64_t *slots, int64_t n,
                    void *partial, uint8_t *partial_recv);
void kern_sync_fold(int64_t op, void *values, uint8_t *recv,
                    const int64_t *targets, const void *partial,
                    const uint8_t *partial_recv, int64_t n);
void kern_sync_put(void *values, uint8_t *recv, const int64_t *masters,
                   const int64_t *mirrors, int64_t n);
/* cdef-end */

/* ------------------------------------------------------------------ */
/* Slot lists: shell sort (gap sequence 3h+1) under a strict order     */
/* ------------------------------------------------------------------ */

typedef int (*before_fn)(const KernCtx *, int64_t, int64_t);

/* Rule 2's best-eighth order: (score desc, entry asc). */
static int by_score(const KernCtx *c, int64_t a, int64_t b)
{
    double sa = c->score[a];
    double sb = c->score[b];
    if (sa > sb)
        return 1;
    if (sa < sb)
        return 0;
    return c->entry[a] < c->entry[b];
}

static int by_entry(const KernCtx *c, int64_t a, int64_t b)
{
    return c->entry[a] < c->entry[b];
}

static int by_segment(const KernCtx *c, int64_t a, int64_t b)
{
    return c->nbr_start[a] < c->nbr_start[b];
}

static void sort_slots(const KernCtx *c, int64_t *slots, int64_t m,
                       before_fn before)
{
    int64_t gap = 1;
    int64_t i;
    while (gap < m / 3)
        gap = 3 * gap + 1;
    for (; gap > 0; gap /= 3) {
        for (i = gap; i < m; i++) {
            int64_t s = slots[i];
            int64_t j = i;
            while (j >= gap && before(c, s, slots[j - gap])) {
                slots[j] = slots[j - gap];
                j -= gap;
            }
            slots[j] = s;
        }
    }
}

/* ------------------------------------------------------------------ */
/* Window -> slot incidence: intrusive per-vertex lists                */
/* ------------------------------------------------------------------ */

static void link_node(KernCtx *c, int64_t node, int64_t vertex)
{
    int64_t first = c->head[vertex];
    c->link_next[node] = first;
    c->link_prev[node] = -1;
    if (first >= 0)
        c->link_prev[first] = node;
    c->head[vertex] = node;
}

static void unlink_node(KernCtx *c, int64_t node, int64_t vertex)
{
    int64_t prev = c->link_prev[node];
    int64_t next = c->link_next[node];
    if (prev >= 0)
        c->link_next[prev] = next;
    else
        c->head[vertex] = next;
    if (next >= 0)
        c->link_prev[next] = prev;
}

/* A self-loop holds a single node: its one endpoint lists it once. */
static void link_slot(KernCtx *c, int64_t s)
{
    link_node(c, 2 * s, c->ui[s]);
    if (c->vi[s] != c->ui[s])
        link_node(c, 2 * s + 1, c->vi[s]);
}

/* N(u) ∪ N(v) \ {u, v} over window edges, written at the arena's append
 * cursor as far as it fits; returns the full size either way.  The
 * endpoints are stamped first, which both excludes them and makes an
 * edge's own incidence nodes contribute nothing. */
static int64_t gather_neighbourhood(KernCtx *c, int64_t du, int64_t dv)
{
    int64_t mark = ++c->stamp_clock;
    int64_t room = c->pool_cap - c->pool_used;
    int64_t *out = c->pool + c->pool_used;
    int64_t cnt = 0;
    int64_t vertex = du;
    c->stamp[du] = mark;
    c->stamp[dv] = mark;
    for (;;) {
        int64_t node;
        for (node = c->head[vertex]; node >= 0; node = c->link_next[node]) {
            int64_t s = node >> 1;
            int64_t other = (node & 1) ? c->ui[s] : c->vi[s];
            if (c->stamp[other] != mark) {
                c->stamp[other] = mark;
                if (cnt < room)
                    out[cnt] = other;
                cnt++;
            }
        }
        if (vertex == dv)
            break;
        vertex = dv;
    }
    return cnt;
}

/* Repack live segments to the front of the arena, in place (ascending
 * start order, so a segment never moves past one not yet moved).  Fails
 * — with `need` set — unless the arena ends at most half full counting
 * the `cnt` entries about to be appended: Python then grows it. */
static int arena_reserve(KernCtx *c, int64_t cnt)
{
    int64_t *order = c->scratch + 2 * c->slot_cap;
    int64_t m = 0, used = 0;
    int64_t s, t;
    for (s = 0; s < c->slot_cap; s++)
        if (c->alive[s] && c->nbr_count[s] > 0)
            order[m++] = s;
    sort_slots(c, order, m, by_segment);
    for (t = 0; t < m; t++) {
        s = order[t];
        memmove(c->pool + used, c->pool + c->nbr_start[s],
                (size_t)c->nbr_count[s] * sizeof(int64_t));
        c->nbr_start[s] = used;
        used += c->nbr_count[s];
    }
    c->pool_used = used;
    c->need = used + cnt;
    return 2 * c->need <= c->pool_cap;
}

/* (Re)write slot s's neighbourhood segment and restamp its keys; the CS
 * checksum is forced invalid (the memoized CS was for another set).
 * Returns 0, having changed nothing but garbage, when the arena is full. */
static int write_segment(KernCtx *c, int64_t s)
{
    int64_t du = c->ui[s];
    int64_t dv = c->vi[s];
    int64_t cnt = gather_neighbourhood(c, du, dv);
    if (c->pool_used + cnt > c->pool_cap) {
        if (!arena_reserve(c, cnt))
            return 0;
        cnt = gather_neighbourhood(c, du, dv);
    }
    c->nbr_start[s] = cnt ? c->pool_used : 0;
    c->nbr_count[s] = cnt;
    c->pool_used += cnt;
    c->nbr_key[2 * s] = c->iver[du];
    c->nbr_key[2 * s + 1] = c->iver[dv];
    c->cs_sum[s] = -1;
    c->stat_segments_written++;
    return 1;
}

/* ------------------------------------------------------------------ */
/* Component memos: pull-validity checks and recomputation             */
/* ------------------------------------------------------------------ */

static int rep_fresh(const KernCtx *c, int64_t s)
{
    const int64_t *key = c->rep_key + s * 5;
    int64_t iu = c->ui[s];
    int64_t iv = c->vi[s];
    return key[0] == c->row_version[iu]
        && key[1] == c->row_version[iv]
        && key[2] == c->deg[iu]
        && key[3] == c->deg[iv]
        && key[4] == c->max_degree;
}

static int nbr_fresh(const KernCtx *c, int64_t s)
{
    return c->nbr_key[s * 2] == c->iver[c->ui[s]]
        && c->nbr_key[s * 2 + 1] == c->iver[c->vi[s]];
}

static int64_t nbr_version_sum(const KernCtx *c, int64_t s)
{
    int64_t start = c->nbr_start[s];
    int64_t total = 0;
    int64_t i;
    for (i = 0; i < c->nbr_count[s]; i++)
        total += c->row_version[c->pool[start + i]];
    return total;
}

static void recompute_rep(KernCtx *c, int64_t s)
{
    int64_t iu = c->ui[s];
    int64_t iv = c->vi[s];
    int64_t maxd = c->max_degree < 1 ? 1 : c->max_degree;
    double psi_u = (double)c->deg[iu] / (2.0 * (double)maxd);
    double psi_v = (double)c->deg[iv] / (2.0 * (double)maxd);
    double wu = 2.0 - psi_u;
    double wv = 2.0 - psi_v;
    const uint8_t *ru = c->replicas + iu * c->k;
    const uint8_t *rv = c->replicas + iv * c->k;
    double *row = c->rep + s * c->k;
    int64_t *key = c->rep_key + s * 5;
    int64_t j;
    for (j = 0; j < c->k; j++) {
        double a = ru[j] ? wu : 0.0;
        double b = rv[j] ? wv : 0.0;
        row[j] = a + b;
    }
    key[0] = c->row_version[iu];
    key[1] = c->row_version[iv];
    key[2] = c->deg[iu];
    key[3] = c->deg[iv];
    key[4] = c->max_degree;
}

/* CS(e, p) = |{n in N : p in R(n)}| / |N|.  The reference adds 1.0 per
 * hit; hits are counted in integers instead (exact in a double below
 * 2^53, so the sum and the one division are bit-identical): replica
 * bytes are 0 or 1 (KernelBinding requires numpy bool), so eight columns
 * add as one 64-bit word, a byte lane each, flushed into the row before
 * a lane could pass 255.  Words go 64 columns a pass (the lanes live in
 * eight locals); the k mod 8 tail columns count by the byte. */
static void recompute_cs(KernCtx *c, int64_t s)
{
    const int64_t *nbr = c->pool + c->nbr_start[s];
    int64_t cnt = c->nbr_count[s];
    int64_t k = c->k;
    int64_t words = k / 8;
    int64_t tail[7] = {0};
    int64_t vsum = 0;
    double *row = c->cs + s * k;
    int64_t base, i, j, w;
    for (i = 0; i < cnt; i++) {
        const uint8_t *r = c->replicas + nbr[i] * k;
        vsum += c->row_version[nbr[i]];
        for (j = 8 * words; j < k; j++)
            tail[j - 8 * words] += r[j];
    }
    for (j = 0; j < 8 * words; j++)
        row[j] = 0.0;
    for (; j < k; j++)
        row[j] = (double)tail[j - 8 * words];
    for (base = 0; base < words; base += 8) {
        int64_t nw = words - base < 8 ? words - base : 8;
        double *out = row + 8 * base;
        for (i = 0; i < cnt;) {
            int64_t stop = cnt - i < 255 ? cnt : i + 255;
            uint64_t lanes[8] = {0};
            uint8_t hits[64];
            for (; i < stop; i++) {
                const uint8_t *r = c->replicas + nbr[i] * k + 8 * base;
                for (w = 0; w < nw; w++) {
                    uint64_t word;  /* memcpy: rows are not 8-aligned */
                    memcpy(&word, r + 8 * w, 8);
                    lanes[w] += word;
                }
            }
            memcpy(hits, lanes, sizeof hits);
            for (j = 0; j < 8 * nw; j++)
                out[j] += (double)hits[j];
        }
    }
    if (cnt > 0)
        for (j = 0; j < k; j++)
            row[j] = row[j] / (double)cnt;
    c->cs_sum[s] = vsum;
}

/* Total score over the spread; first maximum wins (spread order). */
static void assemble(KernCtx *c, int64_t s)
{
    const double *rrow = c->rep + s * c->k;
    const double *crow = c->cs + s * c->k;
    double best = 0.0;
    int64_t best_col = 0;
    int64_t j;
    for (j = 0; j < c->k; j++) {
        double t = c->lamb[j] + rrow[j];
        if (c->use_cs)
            t = t + crow[j];
        if (j == 0 || t > best) {
            best = t;
            best_col = j;
        }
    }
    c->score[s] = best;
    c->col[s] = best_col;
    c->slot_version[s] = c->version;
}

/* lambda * B(p) over the spread (Eq. 3), as AdwiseScoring computes it. */
static void refresh_lamb(KernCtx *c)
{
    double denominator = (double)(c->max_size - c->min_size) + 1e-9;
    int64_t j;
    for (j = 0; j < c->k; j++)
        c->lamb[j] = c->lam
            * ((double)(c->max_size - c->sizes[j]) / denominator);
}

/* ------------------------------------------------------------------ */
/* Rescoring (pop / rule 2 / rule 3 share it)                          */
/* ------------------------------------------------------------------ */

/* Rebuild slot s's neighbourhood segment if it is stale; idempotent, so
 * a transaction that runs out of arena half-way simply starts over. */
static int refresh_segment(KernCtx *c, int64_t s)
{
    return !c->use_cs || nbr_fresh(c, s) || write_segment(c, s);
}

static int refresh_segments(KernCtx *c, const int64_t *slots, int64_t m)
{
    int64_t t;
    for (t = 0; t < m; t++)
        if (!refresh_segment(c, slots[t]))
            return 0;
    return 1;
}

/* Rescore slot s against the current state, unless it is version-fresh
 * with every key matching — recomputing it would bit-equal its cache.
 * Callers go in entry order: score_sum accumulates as the reference's.
 *
 * Nor is the argmax re-assembled when both memos held and, since the
 * slot's version, lamb moved only at columns other than its best column
 * c, each by a one-column step (kern_pump).  A step leaves lam,
 * max_size and min_size as they were, so every other lamb[j] is the same
 * float computation as before, and lamb[j*] did not rise.  Rounding is
 * monotone, so t[j*] did not rise either; t[c] is bit-unchanged, so c
 * is still a maximum.  It is still the first: a tie at j* < c would
 * already have made j* the first maximum.  Score and col stay. */
static void rescore_slot(KernCtx *c, int64_t s)
{
    int fresh_r = rep_fresh(c, s);
    int fresh_c = !c->use_cs || c->cs_sum[s] == nbr_version_sum(c, s);
    double old = c->score[s];
    if (c->slot_version[s] == c->version && fresh_r && fresh_c)
        return;
    if (!fresh_r) {
        recompute_rep(c, s);
        c->stat_rep_recomputed++;
    }
    if (!fresh_c) {
        recompute_cs(c, s);
        c->stat_cs_recomputed++;
    }
    if (fresh_r && fresh_c && c->slot_version[s] >= c->lamb_epoch
            && c->lamb_version[c->col[s]] <= c->slot_version[s]) {
        c->slot_version[s] = c->version;
    } else {
        assemble(c, s);
        c->stat_assembled++;
    }
    c->score_sum += c->score[s] - old;
    c->stat_rescored_slots++;
}

static void rescore(KernCtx *c, const int64_t *slots, int64_t m)
{
    int64_t t;
    for (t = 0; t < m; t++)
        rescore_slot(c, slots[t]);
}

/* Put candidate slot s at its place in the entry-ordered agenda: the
 * end for a rule 1 admit (the largest entry id so far) and a restored
 * image; a rule 2/3 promotion shifts the later candidates up one. */
static void agenda_insert(KernCtx *c, int64_t s)
{
    int64_t pos = c->num_candidates++;
    for (; pos > 0 && c->entry[c->agenda[pos - 1]] > c->entry[s]; pos--)
        c->agenda[pos] = c->agenda[pos - 1];
    c->agenda[pos] = s;
}

static void promote(KernCtx *c, int64_t s)
{
    c->candidate[s] = 1;
    agenda_insert(c, s);
    c->stat_agenda_inserts++;
}

/* Rule 2: candidate set empty -> rescore Q, promote above-threshold
 * edges (or, when scores are uniform, the best eighth). */
static int rule2(KernCtx *c)
{
    int64_t *slots = c->scratch;
    int64_t m = 0, above = 0, take;
    int64_t s, t;
    double threshold;
    for (s = 0; s < c->slot_cap; s++)
        if (c->alive[s] && !c->candidate[s])
            slots[m++] = s;
    sort_slots(c, slots, m, by_entry);
    if (!refresh_segments(c, slots, m))
        return 0;
    c->charge += m * c->k;
    rescore(c, slots, m);
    threshold = c->score_sum / (double)c->count + c->epsilon;
    for (t = 0; t < m; t++)
        if (c->score[slots[t]] > threshold)
            slots[above++] = slots[t];
    if (above == 0) {
        sort_slots(c, slots, m, by_score);
        above = m / 8 > 1 ? m / 8 : 1;
    }
    take = above < c->max_candidates ? above : c->max_candidates;
    for (t = 0; t < take; t++)
        promote(c, slots[t]);
    c->promotions += take;
    return 1;
}

/* Rule 3: reassess secondary edges touching the changed replica rows. */
static int rule3(KernCtx *c, const int64_t *rows, int64_t nrows)
{
    int64_t *slots = c->scratch;
    int64_t m = 0, unique = 0;
    int64_t r, t, node;
    double threshold;
    if (!c->lazy)
        return 1;
    for (r = 0; r < nrows; r++)
        for (node = c->head[rows[r]]; node >= 0; node = c->link_next[node])
            if (!c->candidate[node >> 1])
                slots[m++] = node >> 1;
    if (m == 0)
        return 1;
    sort_slots(c, slots, m, by_entry);
    for (t = 0; t < m; t++)  /* an edge may touch both changed rows */
        if (t == 0 || slots[t] != slots[t - 1])
            slots[unique++] = slots[t];
    m = unique;
    if (!refresh_segments(c, slots, m))
        return 0;
    threshold = c->score_sum / (double)c->count + c->epsilon;
    c->charge += m * c->k;
    rescore(c, slots, m);
    for (t = 0; t < m; t++) {
        int64_t s = slots[t];
        if (c->score[s] > threshold
                && c->num_candidates < c->max_candidates) {
            promote(c, s);
            c->promotions++;
        }
    }
    return 1;
}

/* One agenda transaction: rescore the version-stale candidates — in
 * agenda order, which is entry order — and return the position of the
 * first strict maximum (the reference's first-max-in-entry-order), or
 * -1 when the arena ran out.  Segments first: the only step that can
 * fail comes before any score moves. */
static int64_t agenda_pop(KernCtx *c)
{
    const int64_t *agenda = c->agenda;
    int64_t n = c->num_candidates;
    int64_t rescored = 0, best = 0;
    int64_t i;
    for (i = 0; i < n; i++)
        if (c->slot_version[agenda[i]] != c->version
                && !refresh_segment(c, agenda[i]))
            return -1;
    for (i = 0; i < n; i++) {
        if (c->slot_version[agenda[i]] != c->version) {
            rescore_slot(c, agenda[i]);
            rescored++;
        }
        if (c->score[agenda[i]] > c->score[agenda[best]])
            best = i;
    }
    c->charge += rescored * c->k;
    c->stat_agenda_rescores += rescored > 0;
    c->stat_agenda_scanned += n;
    return best;
}

/* Pop the best slot of a non-empty window into out_*[n_out] and *slot;
 * it leaves the window (its ui/vi stay readable until the slot is reused). */
static int64_t pop_slot(KernCtx *c, int64_t *slot)
{
    int64_t pos, s, vertex;
    if (c->n_out == c->out_cap)
        return KERN_NEED_OUT;
    if (c->num_candidates == 0 && !rule2(c))
        return KERN_NEED_ARENA;
    pos = agenda_pop(c);
    if (pos < 0)
        return KERN_NEED_ARENA;
    s = c->agenda[pos];
    c->out_u[c->n_out] = c->ui[s];
    c->out_v[c->n_out] = c->vi[s];
    c->out_col[c->n_out] = c->col[s];
    c->out_score[c->n_out] = c->score[s];
    c->n_out++;
    c->score_sum -= c->score[s];
    c->candidate[s] = 0;
    c->num_candidates--;
    memmove(c->agenda + pos, c->agenda + pos + 1,
            (size_t)(c->num_candidates - pos) * sizeof(int64_t));
    c->stat_agenda_removes++;
    c->alive[s] = 0;
    /* Membership at the endpoints changed: neighbours' segments are now
     * stale (pulled on their next rescore). */
    vertex = c->ui[s];
    unlink_node(c, 2 * s, vertex);
    c->iver[vertex]++;
    if (c->vi[s] != vertex) {
        vertex = c->vi[s];
        unlink_node(c, 2 * s + 1, vertex);
        c->iver[vertex]++;
    }
    c->count--;
    c->free_slots[c->num_free++] = s;
    /* The caller assigns this edge next, which shifts balance scores:
     * every remaining cache becomes version-stale. */
    c->version++;
    c->stat_pops++;
    *slot = s;
    return KERN_DONE;
}

/* ------------------------------------------------------------------ */
/* Rule 1: admit one edge                                              */
/* ------------------------------------------------------------------ */

static void observe_degree(KernCtx *c, int64_t vertex)
{
    int64_t d = ++c->deg[vertex];
    if (d > c->max_degree)
        c->max_degree = d;
}

static int64_t admit(KernCtx *c, int64_t du, int64_t dv)
{
    int64_t s;
    if (c->num_free == 0)
        return KERN_NEED_SLOTS;
    s = c->free_slots[c->num_free - 1];
    c->ui[s] = du;
    c->vi[s] = dv;
    c->nbr_start[s] = 0;
    c->nbr_count[s] = 0;
    /* The one step that can run out of room comes first, while the slot
     * is still free: the neighbourhood sees only earlier entries. */
    if (c->use_cs && !write_segment(c, s))
        return KERN_NEED_ARENA;
    c->num_free--;
    observe_degree(c, du);
    observe_degree(c, dv);
    c->entry[s] = c->next_id++;
    c->candidate[s] = 0;
    c->alive[s] = 1;
    /* Inserting the edge changes its neighbours' neighbourhoods (they
     * see the bumped counter as a stale key) but not its own (it
     * excludes itself), so its key is stamped after the bump. */
    c->iver[du]++;
    if (dv != du)
        c->iver[dv]++;
    c->nbr_key[2 * s] = c->iver[du];
    c->nbr_key[2 * s + 1] = c->iver[dv];
    recompute_rep(c, s);
    if (c->use_cs)
        recompute_cs(c, s);
    assemble(c, s);
    link_slot(c, s);
    c->count++;
    c->score_sum += c->score[s];
    c->charge += c->k;
    c->stat_refills++;
    if (!c->lazy
            || (c->score[s] > c->score_sum / (double)c->count + c->epsilon
                && c->num_candidates < c->max_candidates))
        promote(c, s);
    return KERN_DONE;
}

/* ------------------------------------------------------------------ */
/* Vertex-cache update for an assigned edge (FastPartitionState.assign) */
/* ------------------------------------------------------------------ */

static void set_replica(KernCtx *c, int64_t row, int64_t j)
{
    uint8_t *bit = c->replicas + row * c->k + j;
    if (*bit)
        return;
    *bit = 1;
    c->row_version[row]++;
    c->chg_row[c->n_changed] = row;
    c->chg_col[c->n_changed] = j;
    c->n_changed++;
}

static void assign(KernCtx *c, int64_t du, int64_t dv, int64_t j)
{
    int64_t old = c->sizes[j];
    int64_t p;
    set_replica(c, du, j);
    set_replica(c, dv, j);
    c->sizes[j] = old + 1;
    if (old + 1 > c->max_size)
        c->max_size = old + 1;
    if (old == c->min_size) {
        c->min_size = c->sizes[0];
        for (p = 1; p < c->k; p++)
            if (c->sizes[p] < c->min_size)
                c->min_size = c->sizes[p];
    }
    c->assigned_edges++;
}

/* What the window's scoring does after an assignment: Eq. 4, as
 * AdaptiveBalancer.update, then lambda * B(p) for the new sizes. */
static void adapt_lambda(KernCtx *c)
{
    if (c->adaptive_lambda) {
        double alpha = 1.0;
        double tolerance, imbalance;
        if (c->total_edges > 0) {
            alpha = (double)c->assigned_edges / (double)c->total_edges;
            if (!(alpha < 1.0))
                alpha = 1.0;
        }
        tolerance = 1.0 - alpha;
        if (!(tolerance > 0.0))
            tolerance = 0.0;
        imbalance = c->max_size == 0 ? 0.0
            : (double)(c->max_size - c->min_size) / (double)c->max_size;
        c->lam = c->lam + (imbalance - tolerance);
        if (!(c->lam > 0.4))
            c->lam = 0.4;
        if (!(c->lam < 5.0))
            c->lam = 5.0;
    }
    refresh_lamb(c);
}

/* ------------------------------------------------------------------ */
/* Entry points                                                        */
/* ------------------------------------------------------------------ */

/* What follows an assignment: rule 3 over the rows it changed (the last
 * rule3_pending of chg_row), then the block-boundary check. */
static int64_t finish_assignment(KernCtx *c, int64_t stop_at)
{
    if (!rule3(c, c->chg_row + c->n_changed - c->rule3_pending,
               c->rule3_pending))
        return KERN_NEED_ARENA;
    c->rule3_pending = 0;
    return c->n_out == stop_at ? KERN_BLOCK_BOUNDARY : KERN_DONE;
}

/* Algorithm 1 over pairs[consumed..n): refill to target_w, pop while
 * the window is full (or, with force, non-empty), assign, adapt lambda,
 * rule 3 — until the input is consumed (KERN_DONE), n_out reaches
 * stop_at (KERN_BLOCK_BOUNDARY: the caller adapts w and calls again) or
 * a buffer must grow (KERN_NEED_*: the caller grows it and calls again
 * with the same arguments). */
int64_t kern_pump(KernCtx *c, const int64_t *pairs, int64_t n,
                  int64_t target_w, int64_t force, int64_t stop_at)
{
    int64_t status, need, s, changed, j, max_size, min_size;
    double lam, lamb_j;
    refresh_lamb(c);
    c->lamb_epoch = c->version;
    if (c->rule3_pending) {  /* re-entered after rule 3 ran out of arena */
        status = finish_assignment(c, stop_at);
        if (status != KERN_DONE)
            return status;
    }
    for (;;) {
        need = target_w - c->count;
        for (; need > 0 && c->consumed < n; need--, c->consumed++) {
            status = admit(c, pairs[2 * c->consumed],
                           pairs[2 * c->consumed + 1]);
            if (status != KERN_DONE)
                return status;
        }
        if (c->count == 0 || (need > 0 && !force))
            return KERN_DONE;
        status = pop_slot(c, &s);
        if (status != KERN_DONE)
            return status;
        changed = c->n_changed;
        j = c->col[s];
        lam = c->lam;
        max_size = c->max_size;
        min_size = c->min_size;
        lamb_j = c->lamb[j];
        assign(c, c->ui[s], c->vi[s], j);
        c->rule3_pending = c->n_changed - changed;
        adapt_lambda(c);
        /* A one-column step (see rescore_slot) or a move of all of lamb. */
        if (c->lam == lam && c->max_size == max_size
                && c->min_size == min_size && c->lamb[j] <= lamb_j)
            c->lamb_version[j] = c->version;
        else
            c->lamb_epoch = c->version;
        status = finish_assignment(c, stop_at);
        if (status != KERN_DONE)
            return status;
    }
}

/* HDRF (Petroni et al.) over pairs[consumed..n), one edge at a time as
 * StreamingPartitioner.partition_edge does it: observe both degrees,
 * score every partition with C_rep + lam * C_bal, assign to the first
 * maximum.  Each expression keeps HDRFPartitioner.score's association —
 * theta from the post-observe partial degrees (their sum is >= 2),
 * 1 + (1 - theta), (max - size) / ((1e-9 + max) - min) — which is what
 * makes the choice bit-identical.  Per edge, straight-line passes over
 * k: the score row krow = (ru * wu + rv * wv) + lamb (a replica byte is
 * 0 or 1, so 1 * w = w and +0.0 + x = x: the reference's conditional
 * adds), then the first maximum.  lamb holds lam * C_bal, built whole
 * at entry and whenever max_size or min_size moves; otherwise an
 * assignment changes one size, so only that column is recomputed —
 * the same expression, the same double.  Past 2^24 edges 1e-9 vanishes
 * from the denominator: at 0.0 every size is max_size and every C_bal
 * is 0.0 (the reference's answer too); the assignment then moves
 * max_size, so the next edge rebuilds before the 0/0 column it leaves
 * is read.  Partitions go
 * to out_col, newly set replica bits to chg_*; KERN_NEED_OUT comes
 * before the edge it could not record is observed, so re-entry is
 * "call again with the same arguments". */
static double hdrf_balance(const KernCtx *c, double lam, double denominator,
                           int64_t j)
{
    return lam * ((double)(c->max_size - c->sizes[j]) / denominator);
}

int64_t kern_hdrf(KernCtx *c, const int64_t *pairs, int64_t n, double lam)
{
    double *bal = c->lamb, *sc = c->krow;
    double denominator = 1.0;
    int64_t max_size = -1, min_size = -1;  /* bal not built yet */
    for (; c->consumed < n; c->consumed++) {
        int64_t du = pairs[2 * c->consumed];
        int64_t dv = pairs[2 * c->consumed + 1];
        const uint8_t *ru = c->replicas + du * c->k;
        const uint8_t *rv = c->replicas + dv * c->k;
        double theta_u, theta_v, wu, wv, best;
        int64_t best_col = 0;
        int64_t j;
        if (c->n_out == c->out_cap)
            return KERN_NEED_OUT;
        observe_degree(c, du);
        observe_degree(c, dv);
        theta_u = (double)c->deg[du] / (double)(c->deg[du] + c->deg[dv]);
        theta_v = 1.0 - theta_u;
        wu = 1.0 + (1.0 - theta_u);
        wv = 1.0 + (1.0 - theta_v);
        if (c->max_size != max_size || c->min_size != min_size) {
            max_size = c->max_size;
            min_size = c->min_size;
            denominator = (1e-9 + (double)max_size) - (double)min_size;
            for (j = 0; j < c->k; j++)
                bal[j] = denominator != 0.0
                    ? hdrf_balance(c, lam, denominator, j) : 0.0;
        }
        for (j = 0; j < c->k; j++)
            sc[j] = ((double)ru[j] * wu + (double)rv[j] * wv) + bal[j];
        best = sc[0];
        for (j = 1; j < c->k; j++)
            if (sc[j] > best) {
                best = sc[j];
                best_col = j;
            }
        c->out_col[c->n_out++] = best_col;
        assign(c, du, dv, best_col);
        bal[best_col] = hdrf_balance(c, lam, denominator, best_col);
    }
    return KERN_DONE;
}

/* Load `n` image entries (ascending entry order) into an empty window
 * with freshly initialised arrays: memos start invalid and refill with
 * the values a fresh computation would produce anyway. */
int64_t kern_restore(KernCtx *c, const int64_t *pairs,
                     const int64_t *entry, const double *score,
                     const int64_t *col, const int64_t *version,
                     const uint8_t *candidate, int64_t n)
{
    int64_t i;
    if (n > c->num_free)
        return KERN_NEED_SLOTS;
    for (i = 0; i < n; i++) {
        int64_t s = c->free_slots[--c->num_free];
        c->ui[s] = pairs[2 * i];
        c->vi[s] = pairs[2 * i + 1];
        c->entry[s] = entry[i];
        c->score[s] = score[i];
        c->col[s] = col[i];
        c->slot_version[s] = version[i];
        c->candidate[s] = candidate[i];
        c->alive[s] = 1;
        link_slot(c, s);
        c->count++;
        if (candidate[i])
            agenda_insert(c, s);
    }
    return KERN_DONE;
}

/* ------------------------------------------------------------------ */
/* Vertex interning: id -> dense row (FastPartitionState)              */
/* ------------------------------------------------------------------ */

/* The slot holding `id`, or the empty slot that ends its probe chain
 * (load <= 1/2: there is one).  Multiplicative hash, keeping the
 * product's top log2(cap) bits: the ones every bit of the id reaches. */
static int64_t tab_slot(const InternTable *t, int64_t id)
{
    int shift = 64 - __builtin_ctzll((uint64_t)t->cap);
    uint64_t slot = ((uint64_t)id * 0x9E3779B97F4A7C15ull) >> shift;
    while (t->slots[2 * slot + 1] >= 0 && t->slots[2 * slot] != id)
        slot = (slot + 1) & (uint64_t)(t->cap - 1);
    return (int64_t)slot;
}

/* rows[i] = dense row of ids[i] over ids[cursor..n), a first sighting
 * taking the next row.  KERN_NEED_ROWS / KERN_NEED_TABLE come before
 * the id that does not fit is written anywhere: Python doubles the row
 * tables, or the slot array (kern_rehash), and calls again. */
int64_t kern_intern(InternTable *t, const int64_t *ids, int64_t n,
                    int64_t *rows)
{
    for (; t->cursor < n; t->cursor++) {
        int64_t id = ids[t->cursor];
        int64_t slot = tab_slot(t, id);
        if (t->slots[2 * slot + 1] < 0) {
            if (t->n_rows == t->row_cap)
                return KERN_NEED_ROWS;
            if (2 * (t->n_rows + 1) > t->cap)
                return KERN_NEED_TABLE;
            t->slots[2 * slot] = id;
            t->slots[2 * slot + 1] = t->n_rows;
            t->ids[t->n_rows++] = id;
        }
        rows[t->cursor] = t->slots[2 * slot + 1];
    }
    return KERN_DONE;
}

/* The same without interning: -1 for an id never seen. */
void kern_lookup(const InternTable *t, const int64_t *ids, int64_t n,
                 int64_t *rows)
{
    int64_t i;
    for (i = 0; i < n; i++)
        rows[i] = t->slots[2 * tab_slot(t, ids[i]) + 1];
}

/* Fill a freshly emptied slot array from the row -> id column. */
void kern_rehash(InternTable *t)
{
    int64_t r;
    for (r = 0; r < t->n_rows; r++) {
        int64_t slot = tab_slot(t, t->ids[r]);
        t->slots[2 * slot] = t->ids[r];
        t->slots[2 * slot + 1] = r;
    }
}

/* ------------------------------------------------------------------ */
/* Edge-list text <-> integer rows (repro/graph/io.py)                 */
/* ------------------------------------------------------------------ */

/* The whole lines of buf[0, len) — not NUL-terminated; a last line may
 * lack its terminator — as rows of their first `ncols` decimal int64
 * tokens, written to out[row * ncols + col]; returns the row count and
 * sets *consumed to the offset reached.  Blank lines and lines whose
 * first token starts with '#' or '%' are skipped, columns past `ncols`
 * ignored; "\n" and "\r" each end a line (the second half of a "\r\n"
 * is a blank one).  `out` may be NULL to count rows only; with `out`,
 * at most `cap` rows are written.
 * This is a fast path, not the grammar: at the first line it is not
 * certain about (a token that is not [+-]digits or does not fit int64,
 * a missing column, any byte of the line >= 0x80 or a separator other
 * than space and tab) it stops with *consumed at that line's first
 * byte, and parse_edge_line decides what the line means. */
int64_t kern_parse_rows(const uint8_t *buf, int64_t len, int64_t ncols,
                        int64_t *out, int64_t cap, int64_t *consumed)
{
    int64_t i = 0, n = 0;
    while (i < len && !(out && n == cap)) {
        int64_t line = i, col = 0;
        while (i < len && (buf[i] == ' ' || buf[i] == '\t'))
            i++;
        if (i < len && (buf[i] == '#' || buf[i] == '%'))
            col = -1;               /* comment: only the line's end matters */
        while (col >= 0 && col < ncols && i < len
               && buf[i] != '\n' && buf[i] != '\r') {
            int negative = buf[i] == '-';
            uint64_t limit = (uint64_t)INT64_MAX + (uint64_t)negative;
            uint64_t value = 0;
            int64_t first;
            if (buf[i] == '-' || buf[i] == '+')
                i++;
            first = i;
            while (i < len && buf[i] >= '0' && buf[i] <= '9') {
                uint64_t digit = (uint64_t)(buf[i] - '0');
                if (value > (limit - digit) / 10)
                    goto decline;
                value = value * 10 + digit;
                i++;
            }
            if (i == first || (i < len && buf[i] != ' ' && buf[i] != '\t'
                               && buf[i] != '\n' && buf[i] != '\r'))
                goto decline;
            if (out)
                out[n * ncols + col] = negative
                    ? -(int64_t)(value - (value != 0)) - (value != 0)
                    : (int64_t)value;
            col++;
            while (i < len && (buf[i] == ' ' || buf[i] == '\t'))
                i++;
        }
        if (col > 0 && col < ncols)
            goto decline;           /* a row with a column missing */
        while (i < len && buf[i] != '\n' && buf[i] != '\r') {
            if (buf[i] & 0x80)
                goto decline;
            i++;
        }
        if (i < len)
            i++;                    /* "\r\n": the "\n" is a blank line */
        n += col == ncols;
        continue;
decline:
        *consumed = line;
        return n;
    }
    *consumed = i;
    return n;
}

/* The inverse: the n rows of rows[n * ncols] as text — per row `open`,
 * its ncols columns in decimal joined by `sep`, then `close` — written
 * to out[0, cap); returns the bytes written, or -1 (having written a
 * prefix) if they do not fit.  Python sizes `out` from the widest
 * value.  A negative value is its magnitude as uint64 after a '-', so
 * INT64_MIN is exact. */
int64_t kern_format_rows(const int64_t *rows, int64_t n, int64_t ncols,
                         const char *open, int64_t open_len,
                         const char *sep, int64_t sep_len,
                         const char *close, int64_t close_len,
                         uint8_t *out, int64_t cap)
{
    int64_t at = 0, i, col;
    for (i = 0; i < n; i++) {
        for (col = 0; col < ncols; col++) {
            int64_t value = rows[i * ncols + col];
            uint64_t magnitude = value < 0 ? 0 - (uint64_t)value
                                           : (uint64_t)value;
            const char *before = col ? sep : open;
            int64_t before_len = col ? sep_len : open_len;
            uint8_t digits[20];
            int64_t d = 20;
            do {
                digits[--d] = (uint8_t)('0' + magnitude % 10);
                magnitude /= 10;
            } while (magnitude);
            if (at + before_len + (value < 0) + (20 - d) > cap)
                return -1;
            memcpy(out + at, before, (size_t)before_len);
            at += before_len;
            if (value < 0)
                out[at++] = '-';
            memcpy(out + at, digits + d, (size_t)(20 - d));
            at += 20 - d;
        }
        if (at + close_len > cap)
            return -1;
        memcpy(out + at, close, (size_t)close_len);
        at += close_len;
    }
    return at;
}

/* ------------------------------------------------------------------ */
/* The daemon's request line (repro/service/server.py)                 */
/* ------------------------------------------------------------------ */

static int json_space(uint8_t b)
{
    return b == ' ' || b == '\t' || b == '\n' || b == '\r';
}

static int64_t skip_space(const uint8_t *s, int64_t i, int64_t len)
{
    while (i < len && json_space(s[i]))
        i++;
    return i;
}

/* Past the string opening at s[i] == '"', or -1 if it is unterminated;
 * sets *escaped if it holds a backslash. */
static int64_t skip_string(const uint8_t *s, int64_t i, int64_t len,
                           int *escaped)
{
    for (i++; i < len; i++) {
        if (s[i] == '\\') {
            *escaped = 1;
            i++;
        } else if (s[i] == '"') {
            return i + 1;
        }
    }
    return -1;
}

/* Past the member value starting at s[i], or -1 if it is unterminated:
 * strings and bracket nesting are followed, nothing is validated. */
static int64_t skip_value(const uint8_t *s, int64_t i, int64_t len)
{
    int64_t depth = 0;
    int escaped;
    while (i < len) {
        if (s[i] == '"') {
            i = skip_string(s, i, len, &escaped);
            if (i < 0 || !depth)
                return i;
            continue;
        }
        if (s[i] == '{' || s[i] == '[') {
            depth++;
        } else if (s[i] == '}' || s[i] == ']') {
            if (!depth)
                return i;
            if (!--depth)
                return i + 1;
        } else if (!depth && (s[i] == ',' || json_space(s[i]))) {
            return i;
        }
        i++;
    }
    return -1;
}

/* Past the JSON integer at s[i], stored to *value, or -1 if it is not
 * one that fits int64 (no digits, a leading zero, '+'). */
static int64_t scan_int(const uint8_t *s, int64_t i, int64_t len,
                        int64_t *value)
{
    int negative = i < len && s[i] == '-';
    uint64_t limit = (uint64_t)INT64_MAX + (uint64_t)negative;
    uint64_t magnitude = 0;
    int64_t first;
    i += negative;
    first = i;
    while (i < len && s[i] >= '0' && s[i] <= '9') {
        uint64_t digit = (uint64_t)(s[i] - '0');
        if (magnitude > (limit - digit) / 10)
            return -1;
        magnitude = magnitude * 10 + digit;
        i++;
    }
    if (i == first || (s[first] == '0' && i - first > 1))
        return -1;
    *value = negative ? -(int64_t)(magnitude - (magnitude != 0))
                        - (magnitude != 0)
                      : (int64_t)magnitude;
    return i;
}

/* Past the `[[u, v], ...]` array at s[i], its pairs written to out (at
 * most cap of them) and counted in *n, or -1 if it is anything else. */
static int64_t scan_pairs(const uint8_t *s, int64_t i, int64_t len,
                          int64_t *out, int64_t cap, int64_t *n)
{
    int64_t col;
    *n = 0;
    if (i == len || s[i] != '[')
        return -1;
    i = skip_space(s, i + 1, len);
    if (i < len && s[i] == ']')
        return i + 1;
    for (;;) {
        if (*n == cap || i == len || s[i] != '[')
            return -1;
        i++;
        for (col = 0; col < 2; col++) {
            i = scan_int(s, skip_space(s, i, len), len, out + 2 * *n + col);
            if (i < 0)
                return -1;
            i = skip_space(s, i, len);
            if (i == len || s[i] != (col ? ']' : ','))
                return -1;
            i++;
        }
        ++*n;
        i = skip_space(s, i, len);
        if (i < len && s[i] == ']')
            return i + 1;
        if (i == len || s[i] != ',')
            return -1;
        i = skip_space(s, i + 1, len);
    }
}

/* The "edges" member of the request object on line[0, len) — not
 * NUL-terminated — as (u, v) int64 rows written to out (at most cap
 * pairs); returns the pair count and sets span[0], span[1] to the byte
 * range of the member's value, so that Python can decode the rest of
 * the line with the value cut out.
 * This is a fast path, not the grammar: it returns -1, and json.loads
 * decides the line, unless the first non-whitespace byte is '{', no
 * top-level key holds a backslash, the key "edges" occurs exactly once
 * at the top level, and its value is exactly '[' then "[int, int]"
 * items separated by commas then ']', each int a JSON integer (no
 * leading zero, '+', fraction or exponent) within int64.  The other
 * members are skipped, not validated: json.loads does that on the rest
 * of the line. */
int64_t kern_scan_edges(const uint8_t *line, int64_t len, int64_t *out,
                        int64_t cap, int64_t *span)
{
    int64_t i = skip_space(line, 0, len), n = -1;
    if (i == len || line[i] != '{')
        return -1;
    i = skip_space(line, i + 1, len);
    while (i < len && line[i] == '"') {
        int escaped = 0, edges;
        int64_t key = i;
        i = skip_string(line, i, len, &escaped);
        if (i < 0 || escaped)
            return -1;
        edges = i - key == 7 && !memcmp(line + key, "\"edges\"", 7);
        if (edges && n >= 0)
            return -1;
        i = skip_space(line, i, len);
        if (i == len || line[i] != ':')
            return -1;
        i = skip_space(line, i + 1, len);
        if (edges) {
            span[0] = i;
            i = span[1] = scan_pairs(line, i, len, out, cap, &n);
        } else {
            i = skip_value(line, i, len);
        }
        if (i < 0)
            return -1;
        i = skip_space(line, i, len);
        if (i < len && line[i] == '}')
            return n;
        if (i == len || line[i] != ',')
            return -1;
        i = skip_space(line, i + 1, len);
    }
    return -1;
}

/* ------------------------------------------------------------------ */
/* BSP host step (repro/cluster/transport.py, DESIGN.md §8)            */
/* ------------------------------------------------------------------ */

/* Every index below was range-checked once, when the ShardGroup was
 * built; dtype, length and contiguity of the element arrays per call. */

#define COMBINE_ADD(acc, v) ((acc) + (v))
/* np.minimum: the newcomer wins a tie, a NaN on either side stays. */
#define COMBINE_MIN(acc, v) (((acc) < (v) || (acc) != (acc)) ? (acc) : (v))

/* for (i < n) if (WHEN) { acc[AT] = acc[AT] (+) VALUE; recv[AT] = 1 } —
 * ascending i is np.bincount's accumulation order, and the fold's. */
#define COMBINE_LOOP(T, COMBINE, WHEN, AT, VALUE, FLAG)               \
    do {                                                              \
        T *acc = acc_; const T *val = val_; int64_t i;                \
        for (i = 0; i < n; i++) {                                     \
            if (WHEN)                                                 \
                acc[AT] = COMBINE(acc[AT], VALUE);                    \
            if (FLAG)                                                 \
                recv[AT] = 1;                                         \
        }                                                             \
    } while (0)

/* Compute: every slot i whose source vertex rows[i] sends combines
 * values[rows[i]] into out[indices[i]] and marks it received. */
void kern_scatter(int64_t op, const int64_t *indices, const int64_t *rows,
                  int64_t n, const uint8_t *send, const void *val_,
                  void *acc_, uint8_t *recv)
{
#define SCATTER(T, COMBINE, VALUE) \
    COMBINE_LOOP(T, COMBINE, send[rows[i]], indices[i], VALUE, send[rows[i]])
    switch (op) {
    case KERN_ADD_F64: SCATTER(double, COMBINE_ADD, val[rows[i]]); break;
    case KERN_MIN_F64: SCATTER(double, COMBINE_MIN, val[rows[i]]); break;
    case KERN_MIN_I64: SCATTER(int64_t, COMBINE_MIN, val[rows[i]]); break;
    }
}

/* Exchange, gather side: this host's own mirror partials to their
 * places in the contribution buffer. */
void kern_sync_take(const void *values, const uint8_t *recv,
                    const int64_t *mirrors, const int64_t *slots, int64_t n,
                    void *partial, uint8_t *partial_recv)
{
    int64_t i;
    for (i = 0; i < n; i++) {
        memcpy((char *)partial + 8 * slots[i],
               (const char *)values + 8 * mirrors[i], 8);
        partial_recv[slots[i]] = recv[mirrors[i]];
    }
}

/* The buffer's rank rounds lie end to end and no master repeats inside
 * one, so one ascending pass folds each master's own partial first,
 * then its mirrors by ascending partition: the round-by-round
 * association. */
void kern_sync_fold(int64_t op, void *acc_, uint8_t *recv,
                    const int64_t *targets, const void *val_,
                    const uint8_t *partial_recv, int64_t n)
{
#define FOLD(T, COMBINE) \
    COMBINE_LOOP(T, COMBINE, 1, targets[i], val[i], partial_recv[i])
    switch (op) {
    case KERN_ADD_F64: FOLD(double, COMBINE_ADD); break;
    case KERN_MIN_F64: FOLD(double, COMBINE_MIN); break;
    case KERN_MIN_I64: FOLD(int64_t, COMBINE_MIN); break;
    }
}

/* Exchange, scatter side: each master's combined element over its
 * mirrors on this host.  No index is both, so in place. */
void kern_sync_put(void *values, uint8_t *recv, const int64_t *masters,
                   const int64_t *mirrors, int64_t n)
{
    int64_t i;
    for (i = 0; i < n; i++) {
        memcpy((char *)values + 8 * mirrors[i],
               (const char *)values + 8 * masters[i], 8);
        recv[mirrors[i]] = recv[masters[i]];
    }
}
