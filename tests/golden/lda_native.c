/* Generated by augur-backend native codegen v3. Do not edit. */
#include <stdint.h>
#include <stddef.h>
#include <math.h>

typedef struct { int32_t tag; int32_t buf; int64_t a; int64_t b; double x; } augv;
typedef struct augctx augctx;
typedef struct {
  double   (*dist_ll)(augctx*, int32_t, int32_t, const augv*, augv);
  augv     (*dist_grad)(augctx*, int32_t, int32_t, int32_t, const augv*, augv);
  augv     (*op)(augctx*, int32_t, int32_t, augv, augv);
  double   (*dot)(augctx*, augv, augv);
  double   (*own_get)(augctx*, augv, int64_t);
  augv     (*own_row)(augctx*, augv, int64_t);
  void     (*write)(augctx*, int32_t, int64_t, int64_t, int32_t, augv);
  void     (*sample)(augctx*, int32_t, int32_t, const augv*, int32_t, int32_t, int64_t, int64_t);
  double   (*uniform)(augctx*);
  uint64_t (*par_enter)(augctx*);
  void     (*par_iter)(augctx*, uint64_t, int64_t);
  void     (*par_exit)(augctx*);
  void     (*trap)(augctx*, int32_t, double, double);
} augvt;
struct augctx { double** B; const augvt* vt; void* eng; uint64_t W; double* S; };

/* Every bounds/length check fails through here: the runtime's trap
   unwinds back into Rust and never returns. */
__attribute__((noreturn, cold, noinline))
static void aug_trap(augctx* c, int32_t code, double a, double b) {
  c->vt->trap(c, code, a, b);
  __builtin_unreachable();
}

static inline augv av_num(double x) { augv v = {0, 0, 0, 0, x}; return v; }
static inline augv av_slice(int32_t b, int64_t s, int64_t l) { augv v = {1, b, s, l, 0.0}; return v; }
static inline augv av_mat(int32_t b, int64_t s, int64_t d) { augv v = {2, b, s, d, 0.0}; return v; }
static inline augv av_rows(int32_t b) { augv v = {3, b, 0, 0, 0.0}; return v; }

/* Rust `f64 as i64` / `as u64`: truncating, saturating, NaN -> 0. */
static inline int64_t aug_i64(double x) {
  if (x != x) return 0;
  if (x <= -9223372036854775808.0) return INT64_MIN;
  if (x >= 9223372036854775807.0) return INT64_MAX;
  return (int64_t)x;
}
static inline int64_t aug_idx(double x) { /* `f64 as usize`, stored as int64 (saturated -> -1 compares OOB as uint64) */
  if (!(x >= 1.0)) return 0;
  if (x >= 18446744073709551615.0) return (int64_t)UINT64_MAX;
  return (int64_t)(uint64_t)x;
}
static inline double aug_u8(double x) { /* Rust `f64 as u8` then back to f64 */
  if (!(x >= 0.0)) return 0.0;
  if (x > 255.0) return 255.0;
  return (double)(uint64_t)x;
}

/* augur_math::special — exact formula copies. */
static inline double aug_sigmoid(double x) {
  if (x >= 0.0) { double e = exp(-x); return 1.0 / (1.0 + e); }
  else { double e = exp(x); return e / (1.0 + e); }
}
static inline double aug_log1p_exp(double x) {
  return x > 0.0 ? x + log1p(exp(-x)) : log1p(exp(x));
}

/* augur_dist::scalar / kind.rs wrappers — exact formula copies. */
static inline double aug_normal_ll(double x, double mu, double var) {
  if (var <= 0.0) return -INFINITY;
  double d = x - mu;
  return -0.5 * (1.8378770664093456 + log(var)) - 0.5 * d * d / var;
}
static inline double aug_bern_ll(double x, double p) {
  if (!(x == 0.0 || x == 1.0)) return -INFINITY;
  if (!(p >= 0.0 && p <= 1.0)) return -INFINITY;
  return x == 1.0 ? log(p) : log1p(-p);
}
static inline double aug_bernlogit_ll(double x, double eta) {
  if (!(x == 0.0 || x == 1.0)) return -INFINITY;
  return x == 1.0 ? -aug_log1p_exp(-eta) : -aug_log1p_exp(eta);
}
static inline double aug_exp_ll(double x, double rate) {
  if (x < 0.0 || rate <= 0.0) return -INFINITY;
  return log(rate) - rate * x;
}
/* The cell a Categorical point `k` selects: `k as usize` for k >= 0,
   else UINT64_MAX, which is past every length. A loop counter i selects
   (uint64_t)i, the same cell. */
static inline uint64_t aug_cat_k(double k) {
  return k < 0.0 ? UINT64_MAX : (uint64_t)aug_idx(k);
}
static inline double aug_cat_ll(uint64_t k, const double* p, int64_t len) {
  if (k < (uint64_t)len && p[k] > 0.0) return log(p[k]);
  return -INFINITY;
}
/* aug_cat_ll over a log table: lt[i] is aug_cat_ll(i, p, len). */
static inline double aug_cat_ll_tab(uint64_t k, const double* lt, int64_t len) {
  return k < (uint64_t)len ? lt[k] : -INFINITY;
}
static void aug_log_table(double* restrict lt, const double* restrict p, int64_t n) {
  for (int64_t i = 0; i < n; i++) lt[i] = p[i] > 0.0 ? log(p[i]) : -INFINITY;
}
/* The same table for `rows` equal rows of `cols` cells, stored column by
   column: lt[j * rows + r] is aug_cat_ll(j, p + r * cols, cols). */
static void aug_log_table_t(double* restrict lt, const double* restrict p, int64_t rows, int64_t cols) {
  for (int64_t r = 0; r < rows; r++)
    for (int64_t j = 0; j < cols; j++)
      lt[j * rows + r] = p[r * cols + j] > 0.0 ? log(p[r * cols + j]) : -INFINITY;
}
static inline double aug_cat_ll_tabc(uint64_t k, const double* lt, int64_t cols, int64_t r, int64_t rows) {
  return k < (uint64_t)cols ? lt[(int64_t)k * rows + r] : -INFINITY;
}

/* fmax(a, b) without the libm call: NaN-ignoring, like fmax and Rust's
   f64::max. Between -0.0 and 0.0 either may win, as with those; the
   maximum below only enters as `l - m` under `exp`, where it makes no
   difference. */
static inline double aug_fmax(double a, double b) {
  return (b > a || a != a) ? b : a;
}

/* augur_math::Prng::categorical_log — operation-for-operation. */
static int64_t aug_cat_logits(augctx* c, const double* l, int64_t n) {
  double m = -INFINITY;
  for (int64_t i = 0; i < n; i++) m = aug_fmax(m, l[i]);
  if (!(m > -INFINITY)) aug_trap(c, 10, 0.0, 0.0);
  if (n <= 64) {
    double e[64];
    for (int64_t i = 0; i < n; i++) e[i] = exp(l[i] - m);
    double total = 0.0;
    for (int64_t i = 0; i < n; i++) total += e[i];
    if (!(total > 0.0 && isfinite(total))) aug_trap(c, 11, 0.0, 0.0);
    double t = c->vt->uniform(c) * total;
    for (int64_t i = 0; i < n; i++) {
      t -= e[i];
      if (t < 0.0) return i;
    }
    return n - 1;
  }
  double total = 0.0;
  for (int64_t i = 0; i < n; i++) total += exp(l[i] - m);
  if (!(total > 0.0 && isfinite(total))) aug_trap(c, 11, 0.0, 0.0);
  double t = c->vt->uniform(c) * total;
  for (int64_t i = 0; i < n; i++) {
    t -= exp(l[i] - m);
    if (t < 0.0) return i;
  }
  return n - 1;
}

static const int64_t off5[11] = {0, 25, 47, 66, 91, 115, 138, 155, 172, 196, 213};
static const int64_t off6[11] = {0, 3, 6, 9, 12, 15, 18, 21, 24, 27, 30};
static const int64_t off7[4] = {0, 60, 120, 180};
static const int64_t off8[11] = {0, 25, 47, 66, 91, 115, 138, 155, 172, 196, 213};
static const int64_t off9[11] = {0, 3, 6, 9, 12, 15, 18, 21, 24, 27, 30};
static const int64_t off10[4] = {0, 60, 120, 180};

/* proc 0: u0_gibbs */
static void aug_p0(augctx* c) {
  double** B = c->B;
  const augvt* vt = c->vt;
  uint64_t W = 0;
  double* restrict b1 = B[1];
  double* b2 = B[2];
  double* restrict b4 = B[4];
  double* b6 = B[6];
  double* restrict b8 = B[8];
  double* b9 = B[9];
  double t0 = 0e0;
  W += (uint64_t)(30);
  for (int64_t q1 = 0; q1 < (30); q1++) b9[(0) + q1] = t0;
  W += 1;
  int64_t k2 = aug_i64(0e0);
  int64_t k3 = aug_i64(b1[0]);
  W += 2;
  for (int64_t i0 = k2; i0 < k3; i0++) {
    int64_t k4 = aug_i64(0e0);
    double t5 = (double)i0;
    if (!(t5 >= 0.0)) aug_trap(c, 0, t5, 0.0);
    int64_t k6 = aug_idx(t5);
    if (!((uint64_t)k6 < (uint64_t)(10))) aug_trap(c, 1, (double)(uint64_t)k6, (double)(10));
    int64_t k7 = aug_i64(b4[(0) + k6]);
    W += 5;
    for (int64_t i1 = k4; i1 < k7; i1++) {
      double t8 = (double)i0;
      if (!(t8 >= 0.0)) aug_trap(c, 6, t8, 0.0);
      int64_t k9 = aug_idx(t8);
      if (!((uint64_t)(k9 + 1) < (uint64_t)11)) aug_trap(c, 5, (double)(uint64_t)k9, 0.0);
      double t10 = (double)i1;
      if (!(t10 >= 0.0)) aug_trap(c, 0, t10, 0.0);
      int64_t k11 = aug_idx(t10);
      double t12 = (double)i0;
      if (!(t12 >= 0.0)) aug_trap(c, 0, t12, 0.0);
      int64_t k13 = aug_idx(t12);
      if (!((uint64_t)(k13 + 1) < (uint64_t)11)) aug_trap(c, 5, (double)(uint64_t)k13, 0.0);
      if (!((uint64_t)k11 < (uint64_t)((off8[k13 + 1] - off8[k13])))) aug_trap(c, 1, (double)(uint64_t)k11, (double)((off8[k13 + 1] - off8[k13])));
      double t14 = b8[(off8[k13]) + k11];
      if (!(t14 >= 0.0)) aug_trap(c, 6, t14, 0.0);
      int64_t k15 = aug_idx(t14);
      if (!((uint64_t)k15 < (uint64_t)((off9[k9 + 1] - off9[k9])))) aug_trap(c, 7, (double)(uint64_t)k15, (double)((off9[k9 + 1] - off9[k9])));
      double t16 = 1e0;
      b9[((off9[k9]) + k15)] += t16;
      W += 10;
    }
  }
  int64_t k17 = aug_i64(0e0);
  int64_t k18 = aug_i64(b1[0]);
  W += 2;
  {
    uint64_t L19 = vt->par_enter(c);
    for (int64_t i0 = k17; i0 < k18; i0++) {
      vt->par_iter(c, L19, i0);
      double t20 = (double)i0;
      if (!(t20 >= 0.0)) aug_trap(c, 0, t20, 0.0);
      int64_t k21 = aug_idx(t20);
      if (!((uint64_t)(k21 + 1) < (uint64_t)11)) aug_trap(c, 5, (double)(uint64_t)k21, 0.0);
      augv v22 = vt->op(c, 0, 2, av_slice(2, 0, 3), av_slice(9, off9[k21], (off9[k21 + 1] - off9[k21])));
      double t23 = (double)i0;
      if (!(t23 >= 0.0)) aug_trap(c, 6, t23, 0.0);
      int64_t k24 = aug_idx(t23);
      if (!((uint64_t)(k24 + 1) < (uint64_t)11)) aug_trap(c, 5, (double)(uint64_t)k24, 0.0);
      augv a25[2];
      a25[0] = v22;
      a25[1] = av_num(0.0);
      W += 7;
      vt->sample(c, 3, 1, a25, 6, 0, off6[k24], (off6[k24 + 1] - off6[k24]));
    }
    vt->par_exit(c);
  }
  c->W += W;
  (void)B; (void)vt;
}

/* proc 1: u1_gibbs */
static void aug_p1(augctx* c) {
  double** B = c->B;
  const augvt* vt = c->vt;
  uint64_t W = 0;
  double* restrict b0 = B[0];
  double* restrict b1 = B[1];
  double* b3 = B[3];
  double* restrict b4 = B[4];
  double* restrict b5 = B[5];
  double* b7 = B[7];
  double* restrict b8 = B[8];
  double* b10 = B[10];
  double t0 = 0e0;
  W += (uint64_t)(180);
  for (int64_t q1 = 0; q1 < (180); q1++) b10[(0) + q1] = t0;
  W += 1;
  int64_t k2 = aug_i64(0e0);
  int64_t k3 = aug_i64(b1[0]);
  W += 2;
  for (int64_t i0 = k2; i0 < k3; i0++) {
    int64_t k4 = aug_i64(0e0);
    double t5 = (double)i0;
    if (!(t5 >= 0.0)) aug_trap(c, 0, t5, 0.0);
    int64_t k6 = aug_idx(t5);
    if (!((uint64_t)k6 < (uint64_t)(10))) aug_trap(c, 1, (double)(uint64_t)k6, (double)(10));
    int64_t k7 = aug_i64(b4[(0) + k6]);
    W += 5;
    for (int64_t i1 = k4; i1 < k7; i1++) {
      double t8 = (double)i1;
      if (!(t8 >= 0.0)) aug_trap(c, 0, t8, 0.0);
      int64_t k9 = aug_idx(t8);
      double t10 = (double)i0;
      if (!(t10 >= 0.0)) aug_trap(c, 0, t10, 0.0);
      int64_t k11 = aug_idx(t10);
      if (!((uint64_t)(k11 + 1) < (uint64_t)11)) aug_trap(c, 5, (double)(uint64_t)k11, 0.0);
      if (!((uint64_t)k9 < (uint64_t)((off8[k11 + 1] - off8[k11])))) aug_trap(c, 1, (double)(uint64_t)k9, (double)((off8[k11 + 1] - off8[k11])));
      double t12 = b8[(off8[k11]) + k9];
      if (!(t12 >= 0.0)) aug_trap(c, 6, t12, 0.0);
      int64_t k13 = aug_idx(t12);
      if (!((uint64_t)(k13 + 1) < (uint64_t)4)) aug_trap(c, 5, (double)(uint64_t)k13, 0.0);
      double t14 = (double)i1;
      if (!(t14 >= 0.0)) aug_trap(c, 0, t14, 0.0);
      int64_t k15 = aug_idx(t14);
      double t16 = (double)i0;
      if (!(t16 >= 0.0)) aug_trap(c, 0, t16, 0.0);
      int64_t k17 = aug_idx(t16);
      if (!((uint64_t)(k17 + 1) < (uint64_t)11)) aug_trap(c, 5, (double)(uint64_t)k17, 0.0);
      if (!((uint64_t)k15 < (uint64_t)((off5[k17 + 1] - off5[k17])))) aug_trap(c, 1, (double)(uint64_t)k15, (double)((off5[k17 + 1] - off5[k17])));
      double t18 = b5[(off5[k17]) + k15];
      if (!(t18 >= 0.0)) aug_trap(c, 6, t18, 0.0);
      int64_t k19 = aug_idx(t18);
      if (!((uint64_t)k19 < (uint64_t)((off10[k13 + 1] - off10[k13])))) aug_trap(c, 7, (double)(uint64_t)k19, (double)((off10[k13 + 1] - off10[k13])));
      double t20 = 1e0;
      b10[((off10[k13]) + k19)] += t20;
      W += 16;
    }
  }
  int64_t k21 = aug_i64(0e0);
  int64_t k22 = aug_i64(b0[0]);
  W += 2;
  {
    uint64_t L23 = vt->par_enter(c);
    for (int64_t i0 = k21; i0 < k22; i0++) {
      vt->par_iter(c, L23, i0);
      double t24 = (double)i0;
      if (!(t24 >= 0.0)) aug_trap(c, 0, t24, 0.0);
      int64_t k25 = aug_idx(t24);
      if (!((uint64_t)(k25 + 1) < (uint64_t)4)) aug_trap(c, 5, (double)(uint64_t)k25, 0.0);
      augv v26 = vt->op(c, 0, 2, av_slice(3, 0, 60), av_slice(10, off10[k25], (off10[k25 + 1] - off10[k25])));
      double t27 = (double)i0;
      if (!(t27 >= 0.0)) aug_trap(c, 6, t27, 0.0);
      int64_t k28 = aug_idx(t27);
      if (!((uint64_t)(k28 + 1) < (uint64_t)4)) aug_trap(c, 5, (double)(uint64_t)k28, 0.0);
      augv a29[2];
      a29[0] = v26;
      a29[1] = av_num(0.0);
      W += 7;
      vt->sample(c, 3, 1, a29, 7, 0, off7[k28], (off7[k28 + 1] - off7[k28]));
    }
    vt->par_exit(c);
  }
  c->W += W;
  (void)B; (void)vt;
}

/* proc 2: u2_gibbs */
static void aug_p2(augctx* c) {
  double** B = c->B;
  const augvt* vt = c->vt;
  uint64_t W = 0;
  double* restrict b1 = B[1];
  double* restrict b4 = B[4];
  double* restrict b5 = B[5];
  double* restrict b6 = B[6];
  double* restrict b7 = B[7];
  double* restrict b8 = B[8];
  double* restrict b11 = B[11];
  double* restrict lt6 = c->S + 0;
  aug_log_table(lt6, b6, 30);
  double* restrict lt7 = c->S + 30;
  aug_log_table_t(lt7, b7, 3, 60);
  int64_t k0 = aug_i64(0e0);
  int64_t k1 = aug_i64(b1[0]);
  W += 2;
  {
    uint64_t L2 = vt->par_enter(c);
    for (int64_t i0 = k0; i0 < k1; i0++) {
      vt->par_iter(c, L2, i0);
      int64_t k3 = aug_i64(0e0);
      double t4 = (double)i0;
      if (!(t4 >= 0.0)) aug_trap(c, 0, t4, 0.0);
      int64_t k5 = aug_idx(t4);
      if (!((uint64_t)k5 < (uint64_t)(10))) aug_trap(c, 1, (double)(uint64_t)k5, (double)(10));
      int64_t k6 = aug_i64(b4[(0) + k5]);
      W += 5;
      for (int64_t i1 = k3; i1 < k6; i1++) {
        int64_t k7 = aug_i64(0e0);
        double t8 = (double)i0;
        if (!(t8 >= 0.0)) aug_trap(c, 0, t8, 0.0);
        int64_t k9 = aug_idx(t8);
        if (!((uint64_t)(k9 + 1) < (uint64_t)11)) aug_trap(c, 5, (double)(uint64_t)k9, 0.0);
        int64_t k10 = aug_i64((double)((off6[k9 + 1] - off6[k9])));
        W += 6;
        if (k7 >= 0 && k10 <= 3 && i0 >= 0 && (uint64_t)i0 < (uint64_t)10 && i1 >= 0 && (uint64_t)i1 < (uint64_t)(off5[i0 + 1] - off5[i0])) {
          for (int64_t i2 = k7; i2 < k10; i2++) {
            int64_t k30 = i2;
            double t31 = 0e0;
            double r32 = t31;
            W += 3;
            int64_t k33 = i0;
            double t34 = aug_cat_ll_tab((uint64_t)i2, (lt6 + (off6[k33])), (off6[k33 + 1] - off6[k33]));
            int64_t k35 = i2;
            double t36 = t34;
            r32 += t36;
            W += 12;
            int64_t k37 = i2;
            int64_t k38 = i1;
            int64_t k39 = i0;
            double t40 = aug_cat_ll_tabc(aug_cat_k(b5[(off5[k39]) + k38]), lt7, 60, k37, 3);
            int64_t k41 = i2;
            double t42 = t40;
            r32 += t42;
            W += 18;
            b11[((0) + k41)] = r32;
          }
        } else {
          for (int64_t i2 = k7; i2 < k10; i2++) {
            double t11 = (double)i2;
            if (!(t11 >= 0.0)) aug_trap(c, 6, t11, 0.0);
            int64_t k12 = aug_idx(t11);
            if (!((uint64_t)k12 < (uint64_t)(3))) aug_trap(c, 7, (double)(uint64_t)k12, (double)(3));
            double t13 = 0e0;
            b11[((0) + k12)] = t13;
            W += 3;
            double t14 = (double)i0;
            if (!(t14 >= 0.0)) aug_trap(c, 0, t14, 0.0);
            int64_t k15 = aug_idx(t14);
            if (!((uint64_t)(k15 + 1) < (uint64_t)11)) aug_trap(c, 5, (double)(uint64_t)k15, 0.0);
            double t16 = aug_cat_ll_tab((uint64_t)i2, (lt6 + (off6[k15])), (off6[k15 + 1] - off6[k15]));
            double t17 = (double)i2;
            if (!(t17 >= 0.0)) aug_trap(c, 6, t17, 0.0);
            int64_t k18 = aug_idx(t17);
            if (!((uint64_t)k18 < (uint64_t)(3))) aug_trap(c, 7, (double)(uint64_t)k18, (double)(3));
            double t19 = t16;
            b11[((0) + k18)] += t19;
            W += 12;
            double t20 = (double)i2;
            if (!(t20 >= 0.0)) aug_trap(c, 0, t20, 0.0);
            int64_t k21 = aug_idx(t20);
            if (!((uint64_t)(k21 + 1) < (uint64_t)4)) aug_trap(c, 5, (double)(uint64_t)k21, 0.0);
            double t22 = (double)i1;
            if (!(t22 >= 0.0)) aug_trap(c, 0, t22, 0.0);
            int64_t k23 = aug_idx(t22);
            double t24 = (double)i0;
            if (!(t24 >= 0.0)) aug_trap(c, 0, t24, 0.0);
            int64_t k25 = aug_idx(t24);
            if (!((uint64_t)(k25 + 1) < (uint64_t)11)) aug_trap(c, 5, (double)(uint64_t)k25, 0.0);
            if (!((uint64_t)k23 < (uint64_t)((off5[k25 + 1] - off5[k25])))) aug_trap(c, 1, (double)(uint64_t)k23, (double)((off5[k25 + 1] - off5[k25])));
            double t26 = aug_cat_ll_tabc(aug_cat_k(b5[(off5[k25]) + k23]), lt7, 60, k21, 3);
            double t27 = (double)i2;
            if (!(t27 >= 0.0)) aug_trap(c, 6, t27, 0.0);
            int64_t k28 = aug_idx(t27);
            if (!((uint64_t)k28 < (uint64_t)(3))) aug_trap(c, 7, (double)(uint64_t)k28, (double)(3));
            double t29 = t26;
            b11[((0) + k28)] += t29;
            W += 18;
          }
        }
        int64_t k43 = 3;
        W += (uint64_t)k43;
        int64_t k44 = aug_cat_logits(c, (b11 + (0)), k43);
        double t45 = (double)i0;
        if (!(t45 >= 0.0)) aug_trap(c, 6, t45, 0.0);
        int64_t k46 = aug_idx(t45);
        if (!((uint64_t)(k46 + 1) < (uint64_t)11)) aug_trap(c, 5, (double)(uint64_t)k46, 0.0);
        double t47 = (double)i1;
        if (!(t47 >= 0.0)) aug_trap(c, 6, t47, 0.0);
        int64_t k48 = aug_idx(t47);
        if (!((uint64_t)k48 < (uint64_t)((off8[k46 + 1] - off8[k46])))) aug_trap(c, 7, (double)(uint64_t)k48, (double)((off8[k46 + 1] - off8[k46])));
        W += 7;
        b8[((off8[k46]) + k48)] = (double)k44;
      }
    }
    vt->par_exit(c);
  }
  c->W += W;
  (void)B; (void)vt;
}

/* proc 3: init_params */
static void aug_p3(augctx* c) {
  double** B = c->B;
  const augvt* vt = c->vt;
  uint64_t W = 0;
  double* restrict b0 = B[0];
  double* restrict b1 = B[1];
  double* b2 = B[2];
  double* b3 = B[3];
  double* restrict b4 = B[4];
  double* b6 = B[6];
  double* b7 = B[7];
  double* b8 = B[8];
  int64_t k0 = aug_i64(0e0);
  int64_t k1 = aug_i64(b1[0]);
  W += 2;
  {
    uint64_t L2 = vt->par_enter(c);
    for (int64_t i0 = k0; i0 < k1; i0++) {
      vt->par_iter(c, L2, i0);
      double t3 = (double)i0;
      if (!(t3 >= 0.0)) aug_trap(c, 6, t3, 0.0);
      int64_t k4 = aug_idx(t3);
      if (!((uint64_t)(k4 + 1) < (uint64_t)11)) aug_trap(c, 5, (double)(uint64_t)k4, 0.0);
      augv a5[2];
      a5[0] = av_slice(2, 0, 3);
      a5[1] = av_num(0.0);
      W += 2;
      vt->sample(c, 3, 1, a5, 6, 0, off6[k4], (off6[k4 + 1] - off6[k4]));
    }
    vt->par_exit(c);
  }
  int64_t k6 = aug_i64(0e0);
  int64_t k7 = aug_i64(b0[0]);
  W += 2;
  {
    uint64_t L8 = vt->par_enter(c);
    for (int64_t i0 = k6; i0 < k7; i0++) {
      vt->par_iter(c, L8, i0);
      double t9 = (double)i0;
      if (!(t9 >= 0.0)) aug_trap(c, 6, t9, 0.0);
      int64_t k10 = aug_idx(t9);
      if (!((uint64_t)(k10 + 1) < (uint64_t)4)) aug_trap(c, 5, (double)(uint64_t)k10, 0.0);
      augv a11[2];
      a11[0] = av_slice(3, 0, 60);
      a11[1] = av_num(0.0);
      W += 2;
      vt->sample(c, 3, 1, a11, 7, 0, off7[k10], (off7[k10 + 1] - off7[k10]));
    }
    vt->par_exit(c);
  }
  int64_t k12 = aug_i64(0e0);
  int64_t k13 = aug_i64(b1[0]);
  W += 2;
  {
    uint64_t L14 = vt->par_enter(c);
    for (int64_t i0 = k12; i0 < k13; i0++) {
      vt->par_iter(c, L14, i0);
      int64_t k15 = aug_i64(0e0);
      double t16 = (double)i0;
      if (!(t16 >= 0.0)) aug_trap(c, 0, t16, 0.0);
      int64_t k17 = aug_idx(t16);
      if (!((uint64_t)k17 < (uint64_t)(10))) aug_trap(c, 1, (double)(uint64_t)k17, (double)(10));
      int64_t k18 = aug_i64(b4[(0) + k17]);
      W += 5;
      for (int64_t i1 = k15; i1 < k18; i1++) {
        double t19 = (double)i0;
        if (!(t19 >= 0.0)) aug_trap(c, 0, t19, 0.0);
        int64_t k20 = aug_idx(t19);
        if (!((uint64_t)(k20 + 1) < (uint64_t)11)) aug_trap(c, 5, (double)(uint64_t)k20, 0.0);
        double t21 = (double)i0;
        if (!(t21 >= 0.0)) aug_trap(c, 6, t21, 0.0);
        int64_t k22 = aug_idx(t21);
        if (!((uint64_t)(k22 + 1) < (uint64_t)11)) aug_trap(c, 5, (double)(uint64_t)k22, 0.0);
        double t23 = (double)i1;
        if (!(t23 >= 0.0)) aug_trap(c, 6, t23, 0.0);
        int64_t k24 = aug_idx(t23);
        if (!((uint64_t)k24 < (uint64_t)((off8[k22 + 1] - off8[k22])))) aug_trap(c, 7, (double)(uint64_t)k24, (double)((off8[k22 + 1] - off8[k22])));
        augv a25[2];
        a25[0] = av_slice(6, off6[k20], (off6[k20 + 1] - off6[k20]));
        a25[1] = av_num(0.0);
        W += 6;
        vt->sample(c, 2, 1, a25, 8, 1, ((off8[k22]) + k24), 0);
      }
    }
    vt->par_exit(c);
  }
  c->W += W;
  (void)B; (void)vt;
}

/* proc 4: model_ll */
static void aug_p4(augctx* c) {
  double** B = c->B;
  const augvt* vt = c->vt;
  uint64_t W = 0;
  double* restrict b0 = B[0];
  double* restrict b1 = B[1];
  double* b2 = B[2];
  double* b3 = B[3];
  double* restrict b4 = B[4];
  double* restrict b5 = B[5];
  double* b6 = B[6];
  double* b7 = B[7];
  double* restrict b8 = B[8];
  double* restrict b12 = B[12];
  double* restrict lt6 = c->S + 0;
  aug_log_table(lt6, b6, 30);
  double* restrict lt7 = c->S + 30;
  aug_log_table(lt7, b7, 180);
  double t0 = 0e0;
  b12[0] = t0;
  W += 2;
  int64_t k1 = aug_i64(0e0);
  int64_t k2 = aug_i64(b1[0]);
  W += 2;
  for (int64_t i0 = k1; i0 < k2; i0++) {
    double t3 = (double)i0;
    if (!(t3 >= 0.0)) aug_trap(c, 0, t3, 0.0);
    int64_t k4 = aug_idx(t3);
    if (!((uint64_t)(k4 + 1) < (uint64_t)11)) aug_trap(c, 5, (double)(uint64_t)k4, 0.0);
    augv a5[2];
    a5[0] = av_slice(2, 0, 3);
    a5[1] = av_num(0.0);
    double t6 = vt->dist_ll(c, 3, 1, a5, av_slice(6, off6[k4], (off6[k4 + 1] - off6[k4])));
    double t7 = t6;
    b12[0] += t7;
    W += 7;
  }
  int64_t k8 = aug_i64(0e0);
  int64_t k9 = aug_i64(b0[0]);
  W += 2;
  for (int64_t i0 = k8; i0 < k9; i0++) {
    double t10 = (double)i0;
    if (!(t10 >= 0.0)) aug_trap(c, 0, t10, 0.0);
    int64_t k11 = aug_idx(t10);
    if (!((uint64_t)(k11 + 1) < (uint64_t)4)) aug_trap(c, 5, (double)(uint64_t)k11, 0.0);
    augv a12[2];
    a12[0] = av_slice(3, 0, 60);
    a12[1] = av_num(0.0);
    double t13 = vt->dist_ll(c, 3, 1, a12, av_slice(7, off7[k11], (off7[k11 + 1] - off7[k11])));
    double t14 = t13;
    b12[0] += t14;
    W += 7;
  }
  int64_t k15 = aug_i64(0e0);
  int64_t k16 = aug_i64(b1[0]);
  W += 2;
  for (int64_t i0 = k15; i0 < k16; i0++) {
    int64_t k17 = aug_i64(0e0);
    double t18 = (double)i0;
    if (!(t18 >= 0.0)) aug_trap(c, 0, t18, 0.0);
    int64_t k19 = aug_idx(t18);
    if (!((uint64_t)k19 < (uint64_t)(10))) aug_trap(c, 1, (double)(uint64_t)k19, (double)(10));
    int64_t k20 = aug_i64(b4[(0) + k19]);
    W += 5;
    for (int64_t i1 = k17; i1 < k20; i1++) {
      double t21 = (double)i0;
      if (!(t21 >= 0.0)) aug_trap(c, 0, t21, 0.0);
      int64_t k22 = aug_idx(t21);
      if (!((uint64_t)(k22 + 1) < (uint64_t)11)) aug_trap(c, 5, (double)(uint64_t)k22, 0.0);
      double t23 = (double)i1;
      if (!(t23 >= 0.0)) aug_trap(c, 0, t23, 0.0);
      int64_t k24 = aug_idx(t23);
      double t25 = (double)i0;
      if (!(t25 >= 0.0)) aug_trap(c, 0, t25, 0.0);
      int64_t k26 = aug_idx(t25);
      if (!((uint64_t)(k26 + 1) < (uint64_t)11)) aug_trap(c, 5, (double)(uint64_t)k26, 0.0);
      if (!((uint64_t)k24 < (uint64_t)((off8[k26 + 1] - off8[k26])))) aug_trap(c, 1, (double)(uint64_t)k24, (double)((off8[k26 + 1] - off8[k26])));
      double t27 = aug_cat_ll_tab(aug_cat_k(b8[(off8[k26]) + k24]), (lt6 + (off6[k22])), (off6[k22 + 1] - off6[k22]));
      double t28 = t27;
      b12[0] += t28;
      W += 17;
    }
  }
  int64_t k29 = aug_i64(0e0);
  int64_t k30 = aug_i64(b1[0]);
  W += 2;
  for (int64_t i0 = k29; i0 < k30; i0++) {
    int64_t k31 = aug_i64(0e0);
    double t32 = (double)i0;
    if (!(t32 >= 0.0)) aug_trap(c, 0, t32, 0.0);
    int64_t k33 = aug_idx(t32);
    if (!((uint64_t)k33 < (uint64_t)(10))) aug_trap(c, 1, (double)(uint64_t)k33, (double)(10));
    int64_t k34 = aug_i64(b4[(0) + k33]);
    W += 5;
    for (int64_t i1 = k31; i1 < k34; i1++) {
      double t35 = (double)i1;
      if (!(t35 >= 0.0)) aug_trap(c, 0, t35, 0.0);
      int64_t k36 = aug_idx(t35);
      double t37 = (double)i0;
      if (!(t37 >= 0.0)) aug_trap(c, 0, t37, 0.0);
      int64_t k38 = aug_idx(t37);
      if (!((uint64_t)(k38 + 1) < (uint64_t)11)) aug_trap(c, 5, (double)(uint64_t)k38, 0.0);
      if (!((uint64_t)k36 < (uint64_t)((off8[k38 + 1] - off8[k38])))) aug_trap(c, 1, (double)(uint64_t)k36, (double)((off8[k38 + 1] - off8[k38])));
      double t39 = b8[(off8[k38]) + k36];
      if (!(t39 >= 0.0)) aug_trap(c, 0, t39, 0.0);
      int64_t k40 = aug_idx(t39);
      if (!((uint64_t)(k40 + 1) < (uint64_t)4)) aug_trap(c, 5, (double)(uint64_t)k40, 0.0);
      double t41 = (double)i1;
      if (!(t41 >= 0.0)) aug_trap(c, 0, t41, 0.0);
      int64_t k42 = aug_idx(t41);
      double t43 = (double)i0;
      if (!(t43 >= 0.0)) aug_trap(c, 0, t43, 0.0);
      int64_t k44 = aug_idx(t43);
      if (!((uint64_t)(k44 + 1) < (uint64_t)11)) aug_trap(c, 5, (double)(uint64_t)k44, 0.0);
      if (!((uint64_t)k42 < (uint64_t)((off5[k44 + 1] - off5[k44])))) aug_trap(c, 1, (double)(uint64_t)k42, (double)((off5[k44 + 1] - off5[k44])));
      double t45 = aug_cat_ll_tab(aug_cat_k(b5[(off5[k44]) + k42]), (lt7 + (off7[k40])), (off7[k40 + 1] - off7[k40]));
      double t46 = t45;
      b12[0] += t46;
      W += 23;
    }
  }
  c->W += W;
  (void)B; (void)vt;
}

typedef void (*augproc)(augctx*);
augproc aug_procs[5] = {
  aug_p0, /* u0_gibbs */
  aug_p1, /* u1_gibbs */
  aug_p2, /* u2_gibbs */
  aug_p3, /* init_params */
  aug_p4, /* model_ll */
};
const uint32_t aug_abi_version = 3;
