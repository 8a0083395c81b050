/* Native kernels of repro, loaded with ctypes by repro/native/__init__.py,
 * which declares each one once (its arguments and the checks a call
 * passes before it gets here) and names its numpy twin.
 *
 * Five kernels, nine symbols, each byte-identical to the numpy path it
 * replaces:
 *
 * repro_naive_scan        PQ Scan (Algorithm 1) of a run of jobs with its
 *                         top-k selection, from combined tables:
 *                         NaiveScanner.scan_run.
 * repro_naive_scan_halves The same scan from Step 2's two halves, each
 *                         looked-up entry combined where it is read:
 *                         NaiveScanner.scan_halves.
 * repro_cross_tables      Step 2's query half, 2<x_j, C_ji>:
 *                         ProductQuantizer.cross_tables_batch; with its
 *                         _portable and _avx2 clones.
 * repro_route             Step 1, the centroid distances and each query's
 *                         nprobe nearest cells: IVFADCIndex.route_batch;
 *                         with its _portable and _avx2 clones.
 * repro_select_rows       The best k (distance, id) pairs of every row of
 *                         a block: select_topk_rows, as the merge of
 *                         StreamingMerger.results calls it.
 *
 * Identity rests on doing the same IEEE operations in the same order:
 * every row's distance is table[0][code0] + table[1][code1] + ... added
 * left to right (adc_distances' order), every table entry is
 * (cell_half + r_sq) - query_half, clamped at 0 as numpy.maximum does,
 * and every cross term is 0.0 + x_0 C_0i + x_1 C_1i + ... in d order,
 * then doubled, as numpy's einsum and its `*= 2.0` do. Routing's dot
 * products follow einsum's contiguous two-operand loop instead (see
 * repro_route).
 * The build uses -ffp-contract=off and never -ffast-math, so no add is
 * fused, reassociated or vectorised across a row's components. Rows are
 * independent, so a block of them is summed component by component:
 * the adds of different rows overlap, each row's stay in order.
 *
 * The selection keeps, per cell, the best (distance, id) pairs in the
 * library's total order (distance, then id), so it picks and sorts
 * exactly what select_topk_rows does. A NaN distance has no
 * place in that order: the scan reports it and the caller falls back to
 * numpy, which defines that case.
 */

#include <math.h>
#include <stddef.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* Rows summed together: enough independent adds to hide a load's
 * latency, few enough that their sums stay in L1. */
#define ROW_BLOCK 64

#define SCAN_OK 0
#define SCAN_BAD_CODE 1
#define SCAN_NAN 2
#define SCAN_NO_MEMORY 3
#define SCAN_BAD_INDEX 4
#define SCAN_NO_CLONE 5 /* an AVX2 clone, on a CPU without AVX2 */

/* (da, ia) sorts before (db, ib); without branches, which the sorts'
 * unpredictable comparisons would mispredict. */
static inline int precedes(double da, int64_t ia, double db, int64_t ib)
{
    return (da < db) | ((da == db) & (ia < ib));
}

static inline void swap_pairs(double *dist, int64_t *ids, int64_t a, int64_t b)
{
    double d = dist[a];
    int64_t id = ids[a];
    dist[a] = dist[b];
    ids[a] = ids[b];
    dist[b] = d;
    ids[b] = id;
}

/* Move the `keep` best of `count` pairs to the front, in no order, with
 * the keep-th best at keep - 1: quickselect, median-of-three pivots. */
static void select_front(double *dist, int64_t *ids, int64_t count, int64_t keep)
{
    int64_t lo = 0, hi = count - 1, target = keep - 1;
    while (lo < hi) {
        int64_t mid = lo + (hi - lo) / 2;
        if (precedes(dist[mid], ids[mid], dist[lo], ids[lo]))
            swap_pairs(dist, ids, lo, mid);
        if (precedes(dist[hi], ids[hi], dist[lo], ids[lo]))
            swap_pairs(dist, ids, lo, hi);
        if (precedes(dist[mid], ids[mid], dist[hi], ids[hi]))
            swap_pairs(dist, ids, mid, hi);
        double pivot = dist[hi];
        int64_t pivot_id = ids[hi];
        int64_t store = lo;
        for (int64_t i = lo; i < hi; i++) {
            /* Lomuto without a branch: always swap, advance on "before" */
            double d = dist[i];
            int64_t id = ids[i];
            int before = precedes(d, id, pivot, pivot_id);
            dist[i] = dist[store];
            ids[i] = ids[store];
            dist[store] = d;
            ids[store] = id;
            store += before;
        }
        swap_pairs(dist, ids, store, hi);
        if (store == target)
            return;
        if (store < target)
            lo = store + 1;
        else
            hi = store - 1;
    }
}

/* Sort `count` pairs ascending, a bottom-up merge sort through the
 * scratch pairs `spare_dist`/`spare_ids` (room for `count`). */
static void sort_pairs(double *dist, int64_t *ids, int64_t count,
                       double *spare_dist, int64_t *spare_ids)
{
    double *from_dist = dist, *to_dist = spare_dist;
    int64_t *from_ids = ids, *to_ids = spare_ids;
    for (int64_t run = 1; run < count; run *= 2) {
        for (int64_t lo = 0; lo < count; lo += 2 * run) {
            int64_t mid = lo + run < count ? lo + run : count;
            int64_t hi = lo + 2 * run < count ? lo + 2 * run : count;
            int64_t i = lo, j = mid, out = lo;
            while (i < mid && j < hi) {
                int right = precedes(from_dist[j], from_ids[j],
                                     from_dist[i], from_ids[i]);
                int64_t pick = right ? j : i;
                to_dist[out] = from_dist[pick];
                to_ids[out] = from_ids[pick];
                out++;
                j += right;
                i += 1 - right;
            }
            for (; i < mid; i++, out++) {
                to_dist[out] = from_dist[i];
                to_ids[out] = from_ids[i];
            }
            for (; j < hi; j++, out++) {
                to_dist[out] = from_dist[j];
                to_ids[out] = from_ids[j];
            }
        }
        double *swap_dist = from_dist;
        int64_t *swap_ids = from_ids;
        from_dist = to_dist;
        from_ids = to_ids;
        to_dist = swap_dist;
        to_ids = swap_ids;
    }
    if (from_dist != dist) {
        memcpy(dist, from_dist, count * sizeof(double));
        memcpy(ids, from_ids, count * sizeof(int64_t));
    }
}

/* One entry of Step 2's combine, as tables_from_halves makes it. */
static inline double combined(double cell, double r, double query)
{
    double v = (cell + r) - query;
    return v <= 0.0 ? 0.0 : v; /* a NaN stays NaN */
}

/* Step 2's combine of one cell's (m, ksub) table into `out`. */
static void combine_block(const double *restrict cell, const double *restrict r_sq,
                          const double *restrict query, int64_t m, int64_t ksub,
                          double *restrict out)
{
    for (int64_t j = 0; j < m; j++) {
        double r = r_sq[j];
        for (int64_t e = 0; e < ksub; e++)
            out[e] = combined(cell[e], r, query[e]);
        cell += ksub;
        query += ksub;
        out += ksub;
    }
}

/* What a cell's entries are read from: a combined (m, ksub) table, or
 * (table NULL) Step 2's halves, each entry combined as it is looked up:
 * the cell's cell_half block, the query's query_half row and its r_sq. */
typedef struct {
    const double *table;
    const double *cell;
    const double *query;
    const double *r_sq;
} Lookup;

/* Distances of `rows` rows to one (m, ksub) table, each summed left to
 * right. Four rows at a time, so that four sums' adds are in flight at
 * once; where m is a multiple of 8, a row's codes are read 8 at a time. */
static void table_sums(const double *table, int64_t m, int64_t ksub,
                       const uint8_t *codes, int64_t rows, double *sums)
{
    int64_t r = 0;
    if (m % 8 == 0) {
        for (; r + 4 <= rows; r += 4) {
            const uint8_t *c = codes + r * m;
            double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
            for (int64_t j = 0; j < m; j += 8) {
                const double *t = table + j * ksub;
                uint64_t w0, w1, w2, w3;
                memcpy(&w0, c + j, 8);
                memcpy(&w1, c + m + j, 8);
                memcpy(&w2, c + 2 * m + j, 8);
                memcpy(&w3, c + 3 * m + j, 8);
#define LOOKUP(b) (t + (b) * ksub)
#define TERM(w, b) LOOKUP(b)[((w) >> (8 * (b))) & 0xff]
                if (j == 0) {
                    s0 = TERM(w0, 0);
                    s1 = TERM(w1, 0);
                    s2 = TERM(w2, 0);
                    s3 = TERM(w3, 0);
                } else {
                    s0 += TERM(w0, 0);
                    s1 += TERM(w1, 0);
                    s2 += TERM(w2, 0);
                    s3 += TERM(w3, 0);
                }
#define STEP(b)              \
    s0 += TERM(w0, b);       \
    s1 += TERM(w1, b);       \
    s2 += TERM(w2, b);       \
    s3 += TERM(w3, b);
                STEP(1) STEP(2) STEP(3) STEP(4) STEP(5) STEP(6) STEP(7)
#undef STEP
#undef TERM
#undef LOOKUP
            }
            sums[r] = s0;
            sums[r + 1] = s1;
            sums[r + 2] = s2;
            sums[r + 3] = s3;
        }
    }
    for (; r < rows; r++) {
        const uint8_t *c = codes + r * m;
        double s = table[c[0]];
        for (int64_t j = 1; j < m; j++)
            s += table[j * ksub + c[j]];
        sums[r] = s;
    }
}

/* table_sums without the table: each term is combined from the halves
 * where it is read, the entry the table would hold. */
static void halves_sums(const Lookup *at, int64_t m, int64_t ksub,
                        const uint8_t *codes, int64_t rows, double *sums)
{
    const double *cell = at->cell, *query = at->query, *r_sq = at->r_sq;
    int64_t r = 0;
#define TERM(e) combined(b[e], rj, q[e])
    for (; r + 4 <= rows; r += 4) {
        const uint8_t *c = codes + r * m;
        const double *b = cell, *q = query;
        double rj = r_sq[0];
        double s0 = TERM(c[0]), s1 = TERM(c[m]), s2 = TERM(c[2 * m]),
               s3 = TERM(c[3 * m]);
        for (int64_t j = 1; j < m; j++) {
            b += ksub;
            q += ksub;
            rj = r_sq[j];
            s0 += TERM(c[j]);
            s1 += TERM(c[m + j]);
            s2 += TERM(c[2 * m + j]);
            s3 += TERM(c[3 * m + j]);
        }
        sums[r] = s0;
        sums[r + 1] = s1;
        sums[r + 2] = s2;
        sums[r + 3] = s3;
    }
    for (; r < rows; r++) {
        const uint8_t *c = codes + r * m;
        const double *b = cell, *q = query;
        double rj = r_sq[0];
        double s = TERM(c[0]);
        for (int64_t j = 1; j < m; j++) {
            b += ksub;
            q += ksub;
            rj = r_sq[j];
            s += TERM(c[j]);
        }
        sums[r] = s;
    }
#undef TERM
}

/* Add (d, id) to a buffer of 2 * width pairs holding `count`; a full
 * buffer keeps its best `width`, whose worst distance (`worst`) then
 * turns away every farther pair. Returns the new count. */
static inline int64_t offer(double d, int64_t id, double *buf_dist,
                            int64_t *buf_ids, int64_t count, int64_t width,
                            double *worst)
{
    buf_dist[count] = d;
    buf_ids[count] = id;
    if (++count == 2 * width) {
        select_front(buf_dist, buf_ids, count, width);
        count = width;
        *worst = buf_dist[width - 1];
    }
    return count;
}

/* The best min(count, width) of an offer buffer, sorted to its front
 * (its tail is the sort's spare); returns how many. */
static int64_t best_sorted(double *buf_dist, int64_t *buf_ids, int64_t count,
                           int64_t width)
{
    if (count > width) {
        select_front(buf_dist, buf_ids, count, width);
        count = width;
    }
    sort_pairs(buf_dist, buf_ids, count, buf_dist + width, buf_ids + width);
    return count;
}

/* The best min(n, k) pairs of a row of n distances, dist[j] paired with
 * ids[j] (with j where ids is NULL), sorted by (distance, id) to the
 * front of buf_dist / buf_ids (room for 2k pairs), through an offer
 * buffer. Returns how many, or -1 on a NaN. */
static int64_t offer_best(const double *dist, const int64_t *ids, int64_t n,
                          int64_t k, double *buf_dist, int64_t *buf_ids)
{
    double worst = INFINITY;
    int64_t count = 0;
    for (int64_t j = 0; j < n; j++) {
        double d = dist[j];
        if (d > worst)
            continue;
        if (d != d)
            return -1;
        count = offer(d, ids != NULL ? ids[j] : j, buf_dist, buf_ids, count, k,
                      &worst);
    }
    return best_sorted(buf_dist, buf_ids, count, k);
}

/* The same for a row whose ids are given, kept sorted by insertion one
 * pair at a time (room for k pairs). */
static int64_t insert_best(const double *dist, const int64_t *ids, int64_t n,
                           int64_t k, double *buf_dist, int64_t *buf_ids)
{
    int64_t count = 0;
    for (int64_t j = 0; j < n; j++) {
        double d = dist[j];
        int64_t id = ids[j];
        if (d != d)
            return -1;
        if (count == k) {
            if (!precedes(d, id, buf_dist[k - 1], buf_ids[k - 1]))
                continue;
            count--; /* the worst held pair drops out */
        }
        int64_t at = count++;
        for (; at > 0 && precedes(d, id, buf_dist[at - 1], buf_ids[at - 1]); at--) {
            buf_dist[at] = buf_dist[at - 1];
            buf_ids[at] = buf_ids[at - 1];
        }
        buf_dist[at] = d;
        buf_ids[at] = id;
    }
    return count;
}

/* The widest k the merge keeps by insertion: its rows are runs of sorted
 * cells, so few pairs get in. Measured on a 2-core x86-64 host over 128
 * rows of 8 sorted runs of k (alternating pairs), insertion's time over
 * the offer buffer's read 0.41-0.44 at k 10, 0.59 at 32, 0.72 at 64,
 * 0.86 at 100, 1.08 at 128 and 1.68 at 256. Routing's rows come in no
 * order, and there insertion won nothing steady (1.08 at nprobe 1, 0.91
 * to 1.01 at 4-24 over 128 cells): routing keeps the buffer. */
#define MERGE_INSERT_MAX 100

/* Scan one cell: the rows of one partition against one cell's entries.
 * Live rows that can still be among the best `width` are offered to a
 * buffer of 2 * width pairs. Returns how many of the best pairs lead the
 * buffer, sorted (min(width, live rows)), or -1 on a NaN. */
static int64_t scan_cell(const Lookup *at, int64_t m, int64_t ksub,
                         const uint8_t *codes, const int64_t *ids,
                         const uint8_t *dead, int64_t n, int64_t width,
                         double *buf_dist, int64_t *buf_ids)
{
    double sums[ROW_BLOCK];
    double worst = INFINITY;
    int64_t count = 0;
    for (int64_t start = 0; start < n; start += ROW_BLOCK) {
        int64_t rows = n - start < ROW_BLOCK ? n - start : ROW_BLOCK;
        if (at->table != NULL)
            table_sums(at->table, m, ksub, codes + start * m, rows, sums);
        else
            halves_sums(at, m, ksub, codes + start * m, rows, sums);
        for (int64_t r = 0; r < rows; r++) {
            int64_t row = start + r;
            double d = sums[r];
            if (d > worst || (dead != NULL && dead[row]))
                continue;
            if (d != d)
                return -1;
            count = offer(d, ids[row], buf_dist, buf_ids, count, width, &worst);
        }
    }
    return best_sorted(buf_dist, buf_ids, count, width);
}

/* Step 2's halves of n table rows, as repro_naive_scan_halves reads
 * them: row i's entry (j, e) is
 * max((cell_half[cells[i], j, e] + r_sq[i, j]) - query_half[rows[i], j, e], 0).
 * r_sq is (n, m) float64, C order. query_half holds n_queries rows,
 * query_stride doubles apart (rows NULL: row i reads query row i; a
 * negative row counts from the end, as numpy indexing does); cell_half
 * holds n_cell_rows cells, cell_stride doubles apart (0 for one (m, ksub)
 * block shared by every cell). Each (m, ksub) block is C order. */
typedef struct {
    const double *r_sq;
    const double *query_half;
    int64_t query_stride;
    const int64_t *rows;
    int64_t n_queries;
    const double *cell_half;
    int64_t cell_stride;
    const int64_t *cells;
    int64_t n_cell_rows;
} Halves;

/* Row i's lookup from the halves; 0, or 1 for a row or cell out of
 * range. */
static int halves_lookup(const Halves *h, int64_t i, int64_t m, Lookup *at)
{
    int64_t row = h->rows != NULL ? h->rows[i] : i;
    int64_t part = h->cells[i];
    if (row < 0)
        row += h->n_queries;
    if (row < 0 || row >= h->n_queries || part < 0 || part >= h->n_cell_rows)
        return 1;
    at->table = NULL;
    at->cell = h->cell_half + part * h->cell_stride;
    at->query = h->query_half + row * h->query_stride;
    at->r_sq = h->r_sq + i * m;
    return 0;
}

/* The scan of a run of jobs; cell i's entries are tables[i] or, with
 * halves, combined from them (see repro_naive_scan_halves). */
static int scan_jobs(const double *tables, const Halves *halves,
                     int64_t scratch_min_rows,
                     int64_t m, int64_t ksub, const uint8_t *codes,
                     const int64_t *ids, const uint8_t *dead,
                     const int64_t *n_rows, const int64_t *n_cells,
                     int64_t n_jobs, int64_t width, double *out_dist,
                     int64_t *out_ids, int64_t *lengths)
{
    int status = SCAN_OK;
    double *buf_dist = malloc(2 * (width > 0 ? width : 1) * sizeof(double));
    int64_t *buf_ids = malloc(2 * (width > 0 ? width : 1) * sizeof(int64_t));
    double *scratch = halves != NULL ? malloc(m * ksub * sizeof(double)) : NULL;
    if (buf_dist == NULL || buf_ids == NULL
        || (halves != NULL && scratch == NULL && m * ksub > 0)) {
        status = SCAN_NO_MEMORY;
        goto done;
    }
    int64_t cell = 0;
    for (int64_t job = 0; job < n_jobs; job++) {
        int64_t n = n_rows[job];
        if (ksub < 256) {
            for (int64_t e = 0; e < n * m; e++)
                if (codes[e] >= ksub) {
                    status = SCAN_BAD_CODE;
                    goto done;
                }
        }
        for (int64_t q = 0; q < n_cells[job]; q++, cell++) {
            double *dist = out_dist + cell * width;
            int64_t *cell_ids = out_ids + cell * width;
            int64_t size = 0;
            Lookup at = {NULL, NULL, NULL, NULL};
            if (halves == NULL) {
                at.table = tables + cell * m * ksub;
            } else {
                if (halves_lookup(halves, cell, m, &at)) {
                    status = SCAN_BAD_INDEX;
                    goto done;
                }
                /* A long partition reads each entry many times: combine
                 * its table once, into the scratch block. */
                if (width > 0 && n >= scratch_min_rows) {
                    combine_block(at.cell, at.r_sq, at.query, m, ksub, scratch);
                    at.table = scratch;
                }
            }
            if (width > 0) {
                size = scan_cell(&at, m, ksub, codes, ids, dead, n, width,
                                 buf_dist, buf_ids);
                if (size < 0) {
                    status = SCAN_NAN;
                    goto done;
                }
            }
            memcpy(dist, buf_dist, size * sizeof(double));
            memcpy(cell_ids, buf_ids, size * sizeof(int64_t));
            for (int64_t k = size; k < width; k++) {
                dist[k] = INFINITY;
                cell_ids[k] = INT64_MAX;
            }
            lengths[cell] = size;
        }
        codes += n * m;
        ids += n;
        if (dead != NULL)
            dead += n;
    }
done:
    free(buf_dist);
    free(buf_ids);
    free(scratch);
    return status;
}

/* The PQ Scan of a run of jobs, one cell per table.
 *
 * tables     (cells, m, ksub) float64, C order; job i owns n_cells[i]
 *            consecutive tables.
 * codes      (sum n_rows, m) uint8, C order: job i's n_rows[i] rows, job
 *            after job. ids and dead (NULL: no dead row) run alongside.
 * width      min(topk, widest partition): each output row holds the
 *            cell's best `width` live pairs sorted by (distance, id), then
 *            (INFINITY, INT64_MAX). lengths gets how many are real.
 *
 * Returns SCAN_OK, or (outputs undefined) SCAN_BAD_CODE for a code >= ksub,
 * SCAN_NAN for a NaN distance or SCAN_NO_MEMORY. */
int repro_naive_scan(const double *tables, int64_t m, int64_t ksub,
                     const uint8_t *codes, const int64_t *ids,
                     const uint8_t *dead, const int64_t *n_rows,
                     const int64_t *n_cells, int64_t n_jobs, int64_t width,
                     double *out_dist, int64_t *out_ids, int64_t *lengths)
{
    return scan_jobs(tables, NULL, 0, m, ksub, codes, ids, dead, n_rows,
                     n_cells, n_jobs, width, out_dist, out_ids, lengths);
}

/* repro_naive_scan with no table materialised: cell i reads the entry
 * its table would hold from the halves (laid out as Halves says, one
 * table row per cell) where it looks it up. A job of at least
 * scratch_min_rows rows reads each entry that many times over, so each
 * of its cells is combined once into a reused (m, ksub) scratch table
 * and scanned from there. The other arguments and the outputs are
 * repro_naive_scan's. Returns its codes, or SCAN_BAD_INDEX for a row or
 * cell out of range. */
int repro_naive_scan_halves(const double *r_sq, const double *query_half,
                            int64_t query_stride, const int64_t *rows,
                            int64_t n_queries, const double *cell_half,
                            int64_t cell_stride, const int64_t *cells,
                            int64_t n_cell_rows, int64_t m, int64_t ksub,
                            int64_t scratch_min_rows, const uint8_t *codes,
                            const int64_t *ids, const uint8_t *dead,
                            const int64_t *n_rows, const int64_t *n_cells,
                            int64_t n_jobs, int64_t width, double *out_dist,
                            int64_t *out_ids, int64_t *lengths)
{
    Halves halves = {r_sq,      query_half,  query_stride, rows,
                     n_queries, cell_half,   cell_stride,  cells, n_cell_rows};
    return scan_jobs(NULL, &halves, scratch_min_rows, m, ksub, codes,
                     ids, dead, n_rows, n_cells, n_jobs, width, out_dist,
                     out_ids, lengths);
}

/* Step 2's query half, out[q, j, i] = 2 (0.0 + x[q, j, 0] C[j, 0, i] + ...
 * + x[q, j, dsub - 1] C[j, dsub - 1, i]): what numpy's einsum
 * "qjd,jdi->qji" accumulates, in d order, before cross_tables_batch
 * doubles it. x is (n, m * dsub), codebooks (m, dsub, ksub) and out
 * (n, m, ksub), all float64 in C order.
 *
 * Each (q, j) row of out is summed in blocks of centroids held in
 * registers across the dsub products (cross_rows), so a block is loaded
 * and stored once. The vectors are GCC's: lane t of a
 * vector add or multiply is the scalar operation on lane t, so a lane
 * does what the scalar loop would. A row depends on x's row alone, so
 * it gives the same bytes whatever block of rows it is computed in. */
typedef double v2d __attribute__((vector_size(16)));
typedef double v4d __attribute__((vector_size(32)));
/* The same, read from any double's address. */
typedef double v2du __attribute__((vector_size(16), aligned(8), may_alias));
typedef double v4du __attribute__((vector_size(32), aligned(8), may_alias));

/* Blocks of V vectors of type T (L lanes each): L * V centroids. */
#define CROSS_BLOCKS(T, L, V)                                            \
    for (; i + (L) * (V) <= ksub; i += (L) * (V)) {                      \
        T acc[V];                                                        \
        for (int t = 0; t < (V); t++)                                    \
            acc[t] = (T){0.0};                                           \
        for (int64_t d = 0; d < dsub; d++) {                             \
            double xd = xs[d];                                           \
            const double *cd = c + d * ksub + i;                         \
            for (int t = 0; t < (V); t++) {                              \
                T centroids;                                             \
                memcpy(&centroids, cd + (L) * t, sizeof(T));             \
                acc[t] += xd * centroids;                                \
            }                                                            \
        }                                                                \
        for (int t = 0; t < (V); t++) {                                  \
            T twice = acc[t] * 2.0;                                      \
            memcpy(o + i + (L) * t, &twice, sizeof(T));                  \
        }                                                                \
    }

/* `wide`: 256-bit vectors in blocks of 32, 16 and 4 centroids (16
 * registers of AVX2 hold 8 accumulators and the operands); otherwise
 * 128-bit ones in blocks of 16 and 4. */
static inline __attribute__((always_inline)) void
cross_rows(const double *x, int64_t n, int64_t m, int64_t dsub, int64_t ksub,
           const double *codebooks, double *out, int wide)
{
    for (int64_t q = 0; q < n; q++) {
        for (int64_t j = 0; j < m; j++) {
            const double *xs = x + (q * m + j) * dsub;
            const double *c = codebooks + j * dsub * ksub;
            double *o = out + (q * m + j) * ksub;
            int64_t i = 0;
            if (wide) {
                CROSS_BLOCKS(v4d, 4, 8)
                CROSS_BLOCKS(v4d, 4, 4)
                CROSS_BLOCKS(v4d, 4, 1)
            } else {
                CROSS_BLOCKS(v2d, 2, 8)
                CROSS_BLOCKS(v2d, 2, 2)
            }
            for (; i < ksub; i++) {
                double acc = 0.0;
                for (int64_t d = 0; d < dsub; d++)
                    acc += xs[d] * c[d * ksub + i];
                o[i] = acc * 2.0;
            }
        }
    }
}

#undef CROSS_BLOCKS

/* The query half for any machine of the architecture (SSE2 on x86-64). */
int repro_cross_tables_portable(const double *x, int64_t n, int64_t m,
                                int64_t dsub, int64_t ksub,
                                const double *codebooks, double *out)
{
    cross_rows(x, n, m, dsub, ksub, codebooks, out, 0);
    return 0;
}

#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
#define HAVE_AVX2_CLONE 1
/* The same operations four lanes wide: AVX2 only, no FMA, so every
 * product is rounded before its add as in the portable clone. */
__attribute__((target("avx2"))) static void
cross_rows_avx2(const double *x, int64_t n, int64_t m, int64_t dsub,
                int64_t ksub, const double *codebooks, double *out)
{
    cross_rows(x, n, m, dsub, ksub, codebooks, out, 1);
}

static int has_avx2(void)
{
    static int known = -1; /* every thread that races here writes the same */
    if (known < 0) {
        __builtin_cpu_init();
        known = __builtin_cpu_supports("avx2") != 0;
    }
    return known;
}
#endif

/* The AVX2 clone; SCAN_NO_CLONE (nothing written) where the CPU has no
 * AVX2. */
int repro_cross_tables_avx2(const double *x, int64_t n, int64_t m,
                            int64_t dsub, int64_t ksub,
                            const double *codebooks, double *out)
{
#ifdef HAVE_AVX2_CLONE
    if (has_avx2()) {
        cross_rows_avx2(x, n, m, dsub, ksub, codebooks, out);
        return 0;
    }
#endif
    (void)x, (void)n, (void)m, (void)dsub, (void)ksub, (void)codebooks,
        (void)out;
    return SCAN_NO_CLONE;
}

/* The query half on the widest clone this CPU runs. */
int repro_cross_tables(const double *x, int64_t n, int64_t m, int64_t dsub,
                       int64_t ksub, const double *codebooks, double *out)
{
    if (repro_cross_tables_avx2(x, n, m, dsub, ksub, codebooks, out) == 0)
        return 0;
    return repro_cross_tables_portable(x, n, m, dsub, ksub, codebooks, out);
}

/* Step 1, routing: dists[q, i] = max((x_sq[q] + c_sq[i]) - 2.0 * x_q.c_i, 0)
 * and each query's nprobe cells of least (distance, cell id), as
 * IVFADCIndex.route_batch computes them with numpy.
 *
 * Every dot product, x_q.c_i and x_sq[q] = x_q.x_q alike, is what numpy's
 * einsum ("qd,id->qi", "qd,qd->q") accumulates with its contiguous
 * two-operand loop: two lanes, lane l summing the products of d = l mod 2;
 * blocks of 8 products per lane pair, each block's four pairs added in
 * the order 6-7, 4-5, 2-3, 0-1 (einsum's unrolled multiply-adds, which
 * are a multiply and an add on a build without FMA); then the pairs left
 * in d order, a lone last product on lane 0; then 0.0 + (lane 0 + lane
 * 1). The loader compares this with einsum once per process (numpy's
 * loop is chosen at run time) and routes in numpy if the two differ. */

/* One dot product in einsum's order. */
static double einsum_dot(const double *a, const double *b, int64_t d)
{
    double l0 = 0.0, l1 = 0.0;
    int64_t i = 0;
    for (; i + 8 <= d; i += 8)
        for (int t = 6; t >= 0; t -= 2) {
            l0 = a[i + t] * b[i + t] + l0;
            l1 = a[i + t + 1] * b[i + t + 1] + l1;
        }
    for (; i + 2 <= d; i += 2) {
        l0 = a[i] * b[i] + l0;
        l1 = a[i + 1] * b[i + 1] + l1;
    }
    if (i < d)
        l0 = a[i] * b[i] + l0;
    return 0.0 + (l0 + l1);
}

/* Lanes of a route tile's vectors: 4 (256 bits) when `wide`. */
static inline int tile_lanes(int wide) { return wide ? 4 : 2; }

/* Element pairs in a tile's lane order, for vectors of `lanes` (2 or 4)
 * lanes: lanes 2h and 2h + 1 of vector k hold the pair of row
 * k * per_vector + h * per_lane of `rows` (row stride d). The pairs come
 * step by step in einsum's order, `vectors` vectors a step: step s <
 * n_steps is the pair at steps[s], and when d is odd a last step holds
 * (row[d - 1], 0.0), einsum's zero-filled tail load, whose 0.0 * 0.0 on
 * lane 1 leaves that lane as it was (a lane never holds -0.0). */
static void lane_pairs(const double *rows, int64_t d, int vectors, int lanes,
                       int per_vector, int per_lane, const int64_t *steps,
                       int64_t n_steps, double *out)
{
    for (int64_t s = 0; s < n_steps + d % 2; s++)
        for (int k = 0; k < vectors; k++)
            for (int h = 0; h < lanes / 2; h++) {
                const double *row = rows + (k * per_vector + h * per_lane) * d;
                double *o = out + (s * vectors + k) * lanes + 2 * h;
                if (s < n_steps) {
                    memcpy(o, row + steps[s], 2 * sizeof(double));
                } else {
                    o[0] = row[d - 1];
                    o[1] = 0.0;
                }
            }
}

/* x_q.c_i of ROWS (1 or 4) queries against each whole tile of L
 * centroids, in vectors T of L lanes. A tile's pairs (cs, n_pairs steps
 * of two vectors) hold L / 2 centroids a vector; a query's (xs, ROWS
 * vectors a step) its own pair L / 2 times. acc[q][v] lanes 2h and
 * 2h + 1 sum query q against centroid v * L / 2 + h of the tile. */
#define ROUTE_TILES(T, L, ROWS)                                           \
    for (int64_t t = 0; t < n / (L); t++) {                               \
        const T##u *cv = (const T##u *)(cs + t * n_pairs * 2 * (L));      \
        const T##u *xv = (const T##u *)xs;                                \
        T acc[ROWS][2];                                                   \
        for (int q = 0; q < (ROWS); q++)                                  \
            acc[q][0] = acc[q][1] = (T){0.0};                             \
        for (int64_t s = 0; s < n_pairs; s++, cv += 2, xv += (ROWS))      \
            for (int q = 0; q < (ROWS); q++)                              \
                for (int v = 0; v < 2; v++)                               \
                    acc[q][v] = xv[q] * cv[v] + acc[q][v];                \
        for (int q = 0; q < (ROWS); q++)                                  \
            for (int v = 0; v < 2; v++)                                   \
                for (int h = 0; h < (L) / 2; h++)                         \
                    out[q * n + t * (L) + v * (L) / 2 + h] =              \
                        0.0 + (acc[q][v][2 * h] + acc[q][v][2 * h + 1]);  \
    }

/* x_q.c_i of `rows` (1 or 4) queries x (row stride d) against all n
 * centroids into out (row stride n): the tiles, then the centroids
 * left one at a time. `wide`: tiles of four centroids in 256-bit
 * vectors; otherwise of two in 128-bit ones (tile_lanes). */
static inline __attribute__((always_inline)) void
route_cross(const double *x, const double *xs, const double *cs, int rows,
            int64_t d, const double *codebook, int64_t n, int64_t n_pairs,
            double *out, int wide)
{
    if (wide && rows == 4) {
        ROUTE_TILES(v4d, 4, 4)
    } else if (wide) {
        ROUTE_TILES(v4d, 4, 1)
    } else if (rows == 4) {
        ROUTE_TILES(v2d, 2, 4)
    } else {
        ROUTE_TILES(v2d, 2, 1)
    }
    for (int64_t i = n - n % tile_lanes(wide); i < n; i++)
        for (int q = 0; q < rows; q++)
            out[q * n + i] = einsum_dot(x + q * d, codebook + i * d, d);
}

#undef ROUTE_TILES

/* The routing of b queries: the codebook's pairs in tile order, then a
 * block of up to four queries at a time, each row's distances then its
 * selection (see repro_route). */
static inline __attribute__((always_inline)) int
route_rows(const double *x, int64_t b, int64_t d, const double *codebook,
           const double *c_sq, int64_t n, int64_t nprobe, int64_t *out,
           double *out_dist, int wide)
{
    if (nprobe < 1 || nprobe > n)
        return SCAN_BAD_INDEX;
    int status = SCAN_OK, lanes = tile_lanes(wide);
    int64_t n_pairs = d / 2 + d % 2;
    double *cross = malloc(4 * n * sizeof(double));
    double *buf_dist = malloc(2 * nprobe * sizeof(double));
    int64_t *buf_ids = malloc(2 * nprobe * sizeof(int64_t));
    int64_t *steps = malloc(n_pairs * sizeof(int64_t));
    double *xs = malloc(4 * n_pairs * lanes * sizeof(double));
    double *cs = malloc((n / lanes * lanes * n_pairs * 2 + 1) * sizeof(double));
    if (cross == NULL || buf_dist == NULL || buf_ids == NULL || steps == NULL ||
        xs == NULL || cs == NULL) {
        status = SCAN_NO_MEMORY;
        goto done;
    }
    /* einsum's order of the element pairs: 6, 4, 2, 0 of each block of
     * 8, then the pairs left. */
    int64_t n_steps = 0, at = 0;
    for (; at + 8 <= d; at += 8)
        for (int t = 6; t >= 0; t -= 2)
            steps[n_steps++] = at + t;
    for (; at + 2 <= d; at += 2)
        steps[n_steps++] = at;
    for (int64_t t = 0; t < n / lanes; t++)
        lane_pairs(codebook + t * lanes * d, d, 2, lanes, lanes / 2, 1, steps,
                   n_steps, cs + t * n_pairs * 2 * lanes);
    int rows;
    for (int64_t q0 = 0; q0 < b; q0 += rows) {
        rows = b - q0 >= 4 ? 4 : 1;
        const double *xq = x + q0 * d;
        lane_pairs(xq, d, rows, lanes, 1, 0, steps, n_steps, xs);
        route_cross(xq, xs, cs, rows, d, codebook, n, n_pairs, cross, wide);
        for (int r = 0; r < rows; r++) {
            const double *xr = xq + r * d;
            double *row = cross + r * n, x_sq = einsum_dot(xr, xr, d);
            for (int64_t i = 0; i < n; i++) {
                double v = (x_sq + c_sq[i]) - 2.0 * row[i];
                if (!isfinite(v)) {
                    status = SCAN_NAN;
                    goto done;
                }
                row[i] = v <= 0.0 ? 0.0 : v;
            }
            if (out_dist != NULL)
                memcpy(out_dist + (q0 + r) * n, row, n * sizeof(double));
            offer_best(row, NULL, n, nprobe, buf_dist, buf_ids);
            memcpy(out + (q0 + r) * nprobe, buf_ids, nprobe * sizeof(int64_t));
        }
    }
done:
    free(cross);
    free(buf_dist);
    free(buf_ids);
    free(steps);
    free(xs);
    free(cs);
    return status;
}

#ifdef HAVE_AVX2_CLONE
/* The same lanes and adds four centroids a tile: AVX2, no FMA, so every
 * product is rounded before its add. */
__attribute__((target("avx2"))) static int
route_rows_avx2(const double *x, int64_t b, int64_t d, const double *codebook,
                const double *c_sq, int64_t n, int64_t nprobe, int64_t *out,
                double *out_dist)
{
    return route_rows(x, b, d, codebook, c_sq, n, nprobe, out, out_dist, 1);
}
#endif

/* Routing on any machine of the architecture (SSE2 on x86-64).
 *
 * x          (b, d) float64 queries, C order.
 * codebook   (n, d) float64 coarse centroids, C order; c_sq their
 *            einsum("id,id->i") squared norms.
 * out        (b, nprobe) int64: each row's nprobe cells of least
 *            (distance, cell id), in that order.
 * out_dist   (b, n) float64 for the distances themselves, or NULL.
 *
 * Returns SCAN_OK, or (outputs undefined) SCAN_NAN for a distance that is
 * not finite (numpy then routes), SCAN_BAD_INDEX for an nprobe outside
 * [1, n] or SCAN_NO_MEMORY. */
int repro_route_portable(const double *x, int64_t b, int64_t d,
                         const double *codebook, const double *c_sq, int64_t n,
                         int64_t nprobe, int64_t *out, double *out_dist)
{
    return route_rows(x, b, d, codebook, c_sq, n, nprobe, out, out_dist, 0);
}

/* The AVX2 clone: the same adds, four lanes a vector (no FMA); returns
 * SCAN_NO_CLONE (nothing written) where the CPU has no AVX2. */
int repro_route_avx2(const double *x, int64_t b, int64_t d,
                     const double *codebook, const double *c_sq, int64_t n,
                     int64_t nprobe, int64_t *out, double *out_dist)
{
#ifdef HAVE_AVX2_CLONE
    if (has_avx2())
        return route_rows_avx2(x, b, d, codebook, c_sq, n, nprobe, out,
                               out_dist);
#endif
    (void)x, (void)b, (void)d, (void)codebook, (void)c_sq, (void)n,
        (void)nprobe, (void)out, (void)out_dist;
    return SCAN_NO_CLONE;
}

/* Routing on the widest clone this CPU runs. */
int repro_route(const double *x, int64_t b, int64_t d, const double *codebook,
                const double *c_sq, int64_t n, int64_t nprobe, int64_t *out,
                double *out_dist)
{
    int status = repro_route_avx2(x, b, d, codebook, c_sq, n, nprobe, out,
                                  out_dist);
    if (status != SCAN_NO_CLONE)
        return status;
    return repro_route_portable(x, b, d, codebook, c_sq, n, nprobe, out,
                                out_dist);
}

/* The best k pairs of each of b rows, by (distance, id), sorted: what
 * select_topk_rows returns for a (b, n) block whose row i pairs
 * dist[i * n + j] with ids[i * n + j]; 1 <= k <= n. out_dist and out_ids
 * are (b, k).
 *
 * Returns SCAN_OK, or (outputs undefined) SCAN_NAN for a NaN distance
 * (numpy then selects), SCAN_BAD_INDEX for a k outside [1, n] or
 * SCAN_NO_MEMORY. */
int repro_select_rows(const double *dist, const int64_t *ids, int64_t b,
                      int64_t n, int64_t k, double *out_dist, int64_t *out_ids)
{
    if (k < 1 || k > n)
        return SCAN_BAD_INDEX;
    int status = SCAN_OK;
    double *buf_dist = malloc(2 * k * sizeof(double));
    int64_t *buf_ids = malloc(2 * k * sizeof(int64_t));
    if (buf_dist == NULL || buf_ids == NULL) {
        status = SCAN_NO_MEMORY;
        goto done;
    }
    for (int64_t r = 0; r < b; r++) {
        if ((k <= MERGE_INSERT_MAX ? insert_best : offer_best)(
                dist + r * n, ids + r * n, n, k, buf_dist, buf_ids) < 0) {
            status = SCAN_NAN;
            goto done;
        }
        memcpy(out_dist + r * k, buf_dist, k * sizeof(double));
        memcpy(out_ids + r * k, buf_ids, k * sizeof(int64_t));
    }
done:
    free(buf_dist);
    free(buf_ids);
    return status;
}
