//! The native C emitter: one translation unit per specialized plan.
//!
//! Each covered procedure of the [`ProcTable`](crate::compile::ProcTable)
//! is compiled from its slot-resolved CPU tree (`RProc`) into a C
//! function that replicates the tree-walker of [`crate::eval`] *exactly*:
//! the same arithmetic in the same order, the same bounds checks (as
//! traps back into Rust panics carrying the same messages), and the same
//! abstract-work accounting — `+1` per expression node, `+1` per
//! `index_view`, and the distribution/vector-op costs of
//! [`dist_op_cost`](crate::eval::dist_op_cost). Scalar arithmetic,
//! indexing, loops, `dot`, and the hot scalar distribution primitives
//! (Normal, Bernoulli[Logit], Categorical, Exponential) are inlined in C
//! with formulas copied operation-for-operation from `augur-dist`
//! (bit-identical on hosts where Rust's `ln`/`exp`/`log1p` lower to the
//! same libm, which the differential suite verifies); everything else —
//! sampling, vector/matrix primitives, the remaining densities — calls
//! back into the engine through the extern-C vtable, where the Rust code
//! *is* the reference implementation.
//!
//! Shape specialization makes the emitted code static: buffer ids,
//! vector lengths, matrix dimensions and ragged-row offset tables are
//! baked in as constants, which is what lets the C compiler vectorize
//! the flat loop bodies the interpreters dispatch one node at a time.
//!
//! Two rewrites keep the C compiler's job easy without changing a bit of
//! output:
//!
//! * **Log tables.** A procedure writes only the buffers named as the
//!   destination of its `Assign`, `Sample` and `SampleLogits`
//!   statements (callbacks write nothing else). An inlined Categorical
//!   density inside a loop whose weights are a static slice of a buffer
//!   the procedure never writes reads `log(w)` from a table filled once
//!   at procedure entry (`aug_log_table`) instead of calling `log` per
//!   trip. The table holds exactly the values `aug_cat_ll` would compute
//!   (`log(w)` for `w > 0`, else `-INFINITY`), the index checks are
//!   kept, and the work charge is the same static `+4`; filling the
//!   table charges nothing. Tables live in engine-owned scratch passed
//!   as `augctx::S`; [`EmittedModule::table_cells`] sizes it.
//! * **Cold traps.** Every bounds or length check calls one
//!   `noreturn, cold, noinline` wrapper, `aug_trap`, so the check is a
//!   never-taken branch the compiler can hoist and merge across loop
//!   bodies.
//!
//! Finite-sum Gibbs lowers each discrete update to a candidate loop that
//! fills a weight vector, followed by a `SampleLogits` over it. Four
//! more rewrites target that shape (a *hot loop*: a `Loop` directly
//! followed by `SampleLogits` in a `Seq`; the last one serves every
//! `SampleLogits`), again without changing a draw, a trap or a work
//! charge:
//!
//! * **Loop versioning.** Every check in a hot loop's body is recorded
//!   symbolically as it is emitted (`Fact`). When each one is either
//!   loop-invariant or an index bounded by the loop range against a
//!   loop-invariant length, one guard before the loop decides whether
//!   any trip could trap. If none can, an unchecked copy runs;
//!   otherwise the checked loop, emitted exactly as before, runs and
//!   raises the same first trap. Both copies charge the same static
//!   `W +=` per trip. A loop with a check the guard cannot decide (a
//!   data-dependent index, a nested loop) keeps only the checked copy.
//! * **Register accumulation.** In the unchecked copy, a trip that sets
//!   a weight cell and then only increments it (`w[k] = 0; w[k] += a;
//!   w[k] += b`) accumulates in a local and stores once: `(0 + a) + b`,
//!   the same operations in the same order. A cell that a later
//!   statement of the trip reads keeps its stores.
//! * **Column-major log tables.** A read-only `Rows` buffer with equal
//!   row lengths, whose rows a hot loop reads by the loop variable at a
//!   loop-invariant point (LDA's `phi[k]` at word `w`), is tabulated
//!   transposed (`aug_log_table_t`), so the loop reads one contiguous
//!   column instead of striding a row apart per trip. There is one table
//!   per buffer, in the layout its hot loops read; an access that is not
//!   a whole row reads the live buffer. (Every Categorical lookup now
//!   takes the selected cell as an integer, `aug_cat_k(x)`, so a
//!   loop-counter point skips the round trip through `double`.)
//! * **`SampleLogits` in C.** `aug_cat_logits` is a copy of
//!   `Prng::categorical_log` (an `fmax` fold, one `exp` per weight kept
//!   on the stack up to 64 weights where Rust exponentiates each weight
//!   twice — `exp` is deterministic, so the values agree — a
//!   sequential sum, one `uniform` drawn through the `uniform` callback,
//!   then the scan), and its two assertions trap with the Rust panic
//!   messages. As in the interpreters, the draw happens before the
//!   destination is resolved.
//!
//! A procedure using a construct the emitter does not cover (or whose
//! exact semantics cannot be decided statically, e.g. destination
//! indexing through a degenerate single-row ragged buffer) is skipped
//! with a recorded reason; the engine runs it on the tape, which is
//! bit-identical anyway.

use std::collections::{BTreeMap, BTreeSet};

use augur_dist::{DistKind, SimpleTy, ALL_KINDS};
use augur_lang::ast::{BinOp, Builtin};
use augur_low::il::{AssignOp, LoopKind, OpN};

use crate::compile::{
    visit_expr, visit_stmt_exprs, written_bufs, ProcTable, RExpr, RLValue, RProc, RRef, RStmt,
};
use crate::state::{BufId, RowElem, Shape, State};

/// Bumped whenever the emitted C or the extern-C ABI changes shape;
/// part of the on-disk artifact cache key so stale `.so`s never load.
pub const CODEGEN_VERSION: u32 = 3;

/// Trap codes understood by the runtime's `trap` callback. Each maps to
/// the panic message of the corresponding interpreter assertion.
pub(crate) mod trap {
    pub const NEG_INDEX: i32 = 0;
    pub const OOB_SLICE: i32 = 1;
    pub const OOB_MAT_ROW: i32 = 2;
    pub const OOB_OWN: i32 = 3;
    pub const OOB_OWN_ROW: i32 = 4;
    pub const ROW_RANGE: i32 = 5;
    pub const NEG_STORE: i32 = 6;
    pub const STORE_OOB: i32 = 7;
    pub const DOT_LEN: i32 = 8;
    pub const STORE_LEN: i32 = 9;
    pub const CAT_ZERO: i32 = 10;
    pub const CAT_SUM: i32 = 11;
}

/// Stable ABI code of a distribution: its index in
/// [`augur_dist::ALL_KINDS`].
pub(crate) fn dist_code(d: DistKind) -> i32 {
    ALL_KINDS
        .iter()
        .position(|k| *k == d)
        .expect("every DistKind appears in ALL_KINDS") as i32
}

/// Stable ABI code of a vector/matrix primitive.
pub(crate) fn op_code(op: OpN) -> i32 {
    match op {
        OpN::VecAdd => 0,
        OpN::VecSub => 1,
        OpN::VecScale => 2,
        OpN::MatAdd => 3,
        OpN::MatScale => 4,
        OpN::MatInv => 5,
        OpN::MatVec => 6,
        OpN::OuterSub => 7,
    }
}

/// Inverse of [`op_code`], used by the runtime side of the ABI.
pub(crate) fn op_from_code(code: i32) -> OpN {
    match code {
        0 => OpN::VecAdd,
        1 => OpN::VecSub,
        2 => OpN::VecScale,
        3 => OpN::MatAdd,
        4 => OpN::MatScale,
        5 => OpN::MatInv,
        6 => OpN::MatVec,
        7 => OpN::OuterSub,
        other => panic!("unknown native op code {other}"),
    }
}

/// The result of emitting a plan's translation unit.
#[derive(Debug, Clone)]
pub struct EmittedModule {
    /// The complete C source.
    pub source: String,
    /// Per-procedure entry in the exported `aug_procs` table: `Some`
    /// when covered (value is a comment-friendly symbol name), `None`
    /// when the procedure falls back to the tape.
    pub symbols: Vec<Option<String>>,
    /// `(proc name, reason)` for every uncovered procedure.
    pub skipped: Vec<(String, String)>,
    /// Per-procedure count of `f64` log-table cells the procedure
    /// expects at `augctx::S` (0 for uncovered procedures).
    pub table_cells: Vec<usize>,
}

impl EmittedModule {
    /// Number of procedures the native module covers.
    pub fn covered(&self) -> usize {
        self.symbols.iter().filter(|s| s.is_some()).count()
    }
}

/// Formats an `f64` so that C's `strtod` round-trips it bit-exactly
/// (Rust's `{:e}` prints shortest-round-trip digits; correctly-rounded
/// parsing recovers the same bits).
fn fmt_f64(v: f64) -> String {
    if v.is_nan() {
        "NAN".into()
    } else if v == f64::INFINITY {
        "INFINITY".into()
    } else if v == f64::NEG_INFINITY {
        "(-INFINITY)".into()
    } else {
        format!("{v:e}")
    }
}

/// Emits the whole translation unit for a proc table.
pub(crate) fn emit_module(table: &ProcTable, state: &State) -> EmittedModule {
    let mut symbols = Vec::new();
    let mut skipped = Vec::new();
    let mut table_cells = Vec::new();
    let mut used_offs: BTreeSet<BufId> = BTreeSet::new();
    let mut fns = String::new();
    for (idx, p) in table.procs.iter().enumerate() {
        let em = ProcEmitter::new(state, &mut used_offs);
        match em.proc(p, idx) {
            Ok((text, cells)) => {
                fns.push_str(&text);
                fns.push('\n');
                symbols.push(Some(format!("aug_p{idx}")));
                table_cells.push(cells);
            }
            Err(reason) => {
                skipped.push((p.name.clone(), reason));
                symbols.push(None);
                table_cells.push(0);
            }
        }
    }
    let mut src = String::new();
    src.push_str(&preamble());
    for &buf in &used_offs {
        let Shape::Rows { offsets, .. } = state.shape(buf) else {
            unreachable!("offset table requested for non-Rows buffer");
        };
        let vals: Vec<String> = offsets.iter().map(|o| o.to_string()).collect();
        src.push_str(&format!(
            "static const int64_t off{buf}[{}] = {{{}}};\n",
            offsets.len(),
            vals.join(", ")
        ));
    }
    src.push('\n');
    src.push_str(&fns);
    // The exported entry table: one slot per procedure, 0 when the
    // procedure is not covered.
    src.push_str("typedef void (*augproc)(augctx*);\n");
    src.push_str(&format!("augproc aug_procs[{}] = {{\n", symbols.len()));
    for (idx, sym) in symbols.iter().enumerate() {
        match sym {
            Some(s) => src.push_str(&format!("  {s}, /* {} */\n", table.procs[idx].name)),
            None => src.push_str(&format!("  0, /* {} (tape fallback) */\n", table.procs[idx].name)),
        }
    }
    src.push_str("};\n");
    src.push_str(&format!("const uint32_t aug_abi_version = {CODEGEN_VERSION};\n"));
    EmittedModule { source: src, symbols, skipped, table_cells }
}

fn preamble() -> String {
    format!(
        r#"/* Generated by augur-backend native codegen v{CODEGEN_VERSION}. Do not edit. */
#include <stdint.h>
#include <stddef.h>
#include <math.h>

typedef struct {{ int32_t tag; int32_t buf; int64_t a; int64_t b; double x; }} augv;
typedef struct augctx augctx;
typedef struct {{
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
}} augvt;
struct augctx {{ double** B; const augvt* vt; void* eng; uint64_t W; double* S; }};

/* Every bounds/length check fails through here: the runtime's trap
   unwinds back into Rust and never returns. */
__attribute__((noreturn, cold, noinline))
static void aug_trap(augctx* c, int32_t code, double a, double b) {{
  c->vt->trap(c, code, a, b);
  __builtin_unreachable();
}}

static inline augv av_num(double x) {{ augv v = {{0, 0, 0, 0, x}}; return v; }}
static inline augv av_slice(int32_t b, int64_t s, int64_t l) {{ augv v = {{1, b, s, l, 0.0}}; return v; }}
static inline augv av_mat(int32_t b, int64_t s, int64_t d) {{ augv v = {{2, b, s, d, 0.0}}; return v; }}
static inline augv av_rows(int32_t b) {{ augv v = {{3, b, 0, 0, 0.0}}; return v; }}

/* Rust `f64 as i64` / `as u64`: truncating, saturating, NaN -> 0. */
static inline int64_t aug_i64(double x) {{
  if (x != x) return 0;
  if (x <= -9223372036854775808.0) return INT64_MIN;
  if (x >= 9223372036854775807.0) return INT64_MAX;
  return (int64_t)x;
}}
static inline int64_t aug_idx(double x) {{ /* `f64 as usize`, stored as int64 (saturated -> -1 compares OOB as uint64) */
  if (!(x >= 1.0)) return 0;
  if (x >= 18446744073709551615.0) return (int64_t)UINT64_MAX;
  return (int64_t)(uint64_t)x;
}}
static inline double aug_u8(double x) {{ /* Rust `f64 as u8` then back to f64 */
  if (!(x >= 0.0)) return 0.0;
  if (x > 255.0) return 255.0;
  return (double)(uint64_t)x;
}}

/* augur_math::special — exact formula copies. */
static inline double aug_sigmoid(double x) {{
  if (x >= 0.0) {{ double e = exp(-x); return 1.0 / (1.0 + e); }}
  else {{ double e = exp(x); return e / (1.0 + e); }}
}}
static inline double aug_log1p_exp(double x) {{
  return x > 0.0 ? x + log1p(exp(-x)) : log1p(exp(x));
}}

/* augur_dist::scalar / kind.rs wrappers — exact formula copies. */
static inline double aug_normal_ll(double x, double mu, double var) {{
  if (var <= 0.0) return -INFINITY;
  double d = x - mu;
  return -0.5 * (1.8378770664093456 + log(var)) - 0.5 * d * d / var;
}}
static inline double aug_bern_ll(double x, double p) {{
  if (!(x == 0.0 || x == 1.0)) return -INFINITY;
  if (!(p >= 0.0 && p <= 1.0)) return -INFINITY;
  return x == 1.0 ? log(p) : log1p(-p);
}}
static inline double aug_bernlogit_ll(double x, double eta) {{
  if (!(x == 0.0 || x == 1.0)) return -INFINITY;
  return x == 1.0 ? -aug_log1p_exp(-eta) : -aug_log1p_exp(eta);
}}
static inline double aug_exp_ll(double x, double rate) {{
  if (x < 0.0 || rate <= 0.0) return -INFINITY;
  return log(rate) - rate * x;
}}
/* The cell a Categorical point `k` selects: `k as usize` for k >= 0,
   else UINT64_MAX, which is past every length. A loop counter i selects
   (uint64_t)i, the same cell. */
static inline uint64_t aug_cat_k(double k) {{
  return k < 0.0 ? UINT64_MAX : (uint64_t)aug_idx(k);
}}
static inline double aug_cat_ll(uint64_t k, const double* p, int64_t len) {{
  if (k < (uint64_t)len && p[k] > 0.0) return log(p[k]);
  return -INFINITY;
}}
/* aug_cat_ll over a log table: lt[i] is aug_cat_ll(i, p, len). */
static inline double aug_cat_ll_tab(uint64_t k, const double* lt, int64_t len) {{
  return k < (uint64_t)len ? lt[k] : -INFINITY;
}}
static void aug_log_table(double* restrict lt, const double* restrict p, int64_t n) {{
  for (int64_t i = 0; i < n; i++) lt[i] = p[i] > 0.0 ? log(p[i]) : -INFINITY;
}}
/* The same table for `rows` equal rows of `cols` cells, stored column by
   column: lt[j * rows + r] is aug_cat_ll(j, p + r * cols, cols). */
static void aug_log_table_t(double* restrict lt, const double* restrict p, int64_t rows, int64_t cols) {{
  for (int64_t r = 0; r < rows; r++)
    for (int64_t j = 0; j < cols; j++)
      lt[j * rows + r] = p[r * cols + j] > 0.0 ? log(p[r * cols + j]) : -INFINITY;
}}
static inline double aug_cat_ll_tabc(uint64_t k, const double* lt, int64_t cols, int64_t r, int64_t rows) {{
  return k < (uint64_t)cols ? lt[(int64_t)k * rows + r] : -INFINITY;
}}

/* fmax(a, b) without the libm call: NaN-ignoring, like fmax and Rust's
   f64::max. Between -0.0 and 0.0 either may win, as with those; the
   maximum below only enters as `l - m` under `exp`, where it makes no
   difference. */
static inline double aug_fmax(double a, double b) {{
  return (b > a || a != a) ? b : a;
}}

/* augur_math::Prng::categorical_log — operation-for-operation. */
static int64_t aug_cat_logits(augctx* c, const double* l, int64_t n) {{
  double m = -INFINITY;
  for (int64_t i = 0; i < n; i++) m = aug_fmax(m, l[i]);
  if (!(m > -INFINITY)) aug_trap(c, {cat_zero}, 0.0, 0.0);
  if (n <= 64) {{
    double e[64];
    for (int64_t i = 0; i < n; i++) e[i] = exp(l[i] - m);
    double total = 0.0;
    for (int64_t i = 0; i < n; i++) total += e[i];
    if (!(total > 0.0 && isfinite(total))) aug_trap(c, {cat_sum}, 0.0, 0.0);
    double t = c->vt->uniform(c) * total;
    for (int64_t i = 0; i < n; i++) {{
      t -= e[i];
      if (t < 0.0) return i;
    }}
    return n - 1;
  }}
  double total = 0.0;
  for (int64_t i = 0; i < n; i++) total += exp(l[i] - m);
  if (!(total > 0.0 && isfinite(total))) aug_trap(c, {cat_sum}, 0.0, 0.0);
  double t = c->vt->uniform(c) * total;
  for (int64_t i = 0; i < n; i++) {{
    t -= exp(l[i] - m);
    if (t < 0.0) return i;
  }}
  return n - 1;
}}

"#,
        cat_zero = trap::CAT_ZERO,
        cat_sum = trap::CAT_SUM,
    )
}

/// A statically-typed compiled value: the emitter's analogue of
/// [`View`](crate::eval::View), with buffer coordinates as C expressions.
#[derive(Debug, Clone)]
enum CV {
    /// A C `double` expression.
    Num(String),
    /// A vector region of a buffer (start/len are C `int64_t` exprs,
    /// `n` the length as a [`Sym`]); `row` is the C row index when the
    /// region is a whole row of a `Rows` buffer.
    Vec { buf: BufId, start: String, len: String, n: Sym, row: Option<String> },
    /// A matrix region of a buffer.
    Mat { buf: BufId, start: String, dim: usize },
    /// A whole `Rows` buffer.
    RowsV { buf: BufId },
    /// An owned vector held engine-side; the string names a C `augv`
    /// temporary carrying the handle.
    Own(String),
    /// An owned matrix held engine-side (`augv` temporary, `b` = dim).
    OwnMat(String),
}

/// A statically-resolved store destination.
#[derive(Debug, Clone)]
enum CDest {
    Cell { buf: BufId, idx: String },
    Range { buf: BufId, start: String, len: String, n: Sym },
}

/// What the emitter knows, before a loop runs, about an index or a
/// length its body computes.
#[derive(Debug, Clone, PartialEq)]
enum Sym {
    /// A constant.
    Int(u64),
    /// The counter `i{d}` of the loop at depth `d`.
    Var(usize),
    /// The length of one row of a `Rows` buffer.
    RowLen(BufId, Box<Sym>),
    /// Data-dependent, or produced by a callback.
    Dyn,
}

impl Sym {
    /// The index an index expression yields, as far as it is static: a
    /// loop counter or a non-negative constant (cast like `f64 as
    /// usize`).
    fn of_index(e: &RExpr) -> Sym {
        match e {
            RExpr::Const(v) if *v >= 0.0 => Sym::Int(*v as u64),
            RExpr::Ref(RRef::Loop(d)) => Sym::Var(*d),
            _ => Sym::Dyn,
        }
    }
}

/// The condition of one emitted check, in [`Sym`] terms: the facts of a
/// hot loop's body are what its version guard must establish.
#[derive(Debug)]
enum Fact {
    /// `x >= 0.0`, where the index `x` is cast from has this [`Sym`].
    NonNeg(Sym),
    /// `(uint64_t)index < (uint64_t)len`.
    Below(Sym, Sym),
    /// Two lengths are equal.
    Eq(Sym, Sym),
}

struct ProcEmitter<'a> {
    state: &'a State,
    used_offs: &'a mut BTreeSet<BufId>,
    body: String,
    indent: usize,
    tmp: usize,
    depth: usize,
    in_par: bool,
    used_bufs: BTreeSet<BufId>,
    /// Buffers whose contents may be touched by a runtime callback in
    /// this procedure; these must not be `restrict`-qualified.
    escaped: BTreeSet<BufId>,
    /// Buffers the procedure writes (see [`written_bufs`]).
    written: BTreeSet<BufId>,
    /// Read-only buffers with a log table: buffer → offset of its table
    /// in the procedure's scratch.
    tables: BTreeMap<BufId, usize>,
    /// Scratch cells the tables take so far.
    table_cells: usize,
    /// Read-only `Rows` buffers whose table is stored column-major (see
    /// [`ProcEmitter::column_tables`]).
    colmajor: BTreeSet<BufId>,
    /// The checks emitted so far in the body of the hot loop being
    /// versioned, if any.
    facts: Option<Vec<Fact>>,
    /// Set while emitting the unchecked copy of a hot loop, whose guard
    /// has established that no check can fail.
    unchecked: bool,
}

/// Whether `e` mentions `r` (reads a buffer, or uses a loop counter).
fn mentions(e: &RExpr, r: RRef) -> bool {
    let mut hit = false;
    visit_expr(e, &mut |x| hit |= *x == RExpr::Ref(r));
    hit
}

/// Whether any expression of `s` mentions `r`.
fn stmt_mentions(s: &RStmt, r: RRef) -> bool {
    let mut hit = false;
    visit_stmt_exprs(s, &mut |x| hit |= *x == RExpr::Ref(r));
    hit
}

/// The buffers `b` that the body of the loop at depth `d` reads as
/// `Categorical(b[i{d}]).ll(x)` with a point `x` that is the same on every
/// trip: it neither mentions `i{d}` nor reads a buffer the body writes.
fn column_reads(body: &RStmt, d: usize) -> Vec<BufId> {
    let mut looped = BTreeSet::new();
    written_bufs(body, &mut looped);
    let mut found = Vec::new();
    visit_stmt_exprs(body, &mut |e| {
        let RExpr::DistLl { dist: DistKind::Categorical, args, point } = e else { return };
        let RExpr::Index(base, ix) = &args[0] else { return };
        let (RExpr::Ref(RRef::Buf(b)), RExpr::Ref(RRef::Loop(row))) = (&**base, &**ix) else {
            return;
        };
        let invariant = !mentions(point, RRef::Loop(d))
            && !looped.iter().any(|w| mentions(point, RRef::Buf(*w)));
        if *row == d && invariant {
            found.push(*b);
        }
    });
    found
}

/// Whether `s` contains a loop.
fn has_loop(s: &RStmt) -> bool {
    match s {
        RStmt::Loop { .. } => true,
        RStmt::Seq(stmts) => stmts.iter().any(has_loop),
        RStmt::IfEq { then, els, .. } => has_loop(then) || els.as_deref().is_some_and(has_loop),
        _ => false,
    }
}

/// Where register accumulation applies in one trip: the index of an
/// `Assign` that sets a cell of a vector buffer, followed by one or more
/// increments of the same cell and nothing else, where no statement from
/// the set on reads the buffer. (The set's destination itself is no
/// read: its indices are checked not to touch the buffer.)
fn accumulation(stmts: &[RStmt], state: &State) -> Option<usize> {
    let start = stmts.iter().rposition(|s| matches!(s, RStmt::Assign { op: AssignOp::Set, .. }))?;
    let RStmt::Assign { lhs, .. } = &stmts[start] else { unreachable!() };
    let incs = &stmts[start + 1..];
    let vector_cell = matches!(state.shape(lhs.buf), Shape::Vector(_)) && lhs.indices.len() == 1;
    let same_cell =
        |s: &RStmt| matches!(s, RStmt::Assign { lhs: l, op: AssignOp::Inc, .. } if l == lhs);
    (vector_cell
        && !incs.is_empty()
        && incs.iter().all(same_cell)
        && !stmts[start..].iter().any(|s| stmt_mentions(s, RRef::Buf(lhs.buf))))
    .then_some(start)
}

impl<'a> ProcEmitter<'a> {
    fn new(state: &'a State, used_offs: &'a mut BTreeSet<BufId>) -> ProcEmitter<'a> {
        ProcEmitter {
            state,
            used_offs,
            body: String::new(),
            indent: 1,
            tmp: 0,
            depth: 0,
            in_par: false,
            used_bufs: BTreeSet::new(),
            escaped: BTreeSet::new(),
            written: BTreeSet::new(),
            tables: BTreeMap::new(),
            table_cells: 0,
            colmajor: BTreeSet::new(),
            facts: None,
            unchecked: false,
        }
    }

    fn line(&mut self, s: &str) {
        for _ in 0..self.indent {
            self.body.push_str("  ");
        }
        self.body.push_str(s);
        self.body.push('\n');
    }

    fn tmp_name(&mut self, prefix: &str) -> String {
        let n = format!("{prefix}{}", self.tmp);
        self.tmp += 1;
        n
    }

    fn tmp_d(&mut self, expr: &str) -> String {
        let n = self.tmp_name("t");
        self.line(&format!("double {n} = {expr};"));
        n
    }

    fn tmp_i(&mut self, expr: &str) -> String {
        let n = self.tmp_name("k");
        self.line(&format!("int64_t {n} = {expr};"));
        n
    }

    fn tmp_v(&mut self, expr: &str) -> String {
        let n = self.tmp_name("v");
        self.line(&format!("augv {n} = {expr};"));
        n
    }

    fn flush(&mut self, w: &mut u64) {
        if *w > 0 {
            self.line(&format!("W += {w};"));
            *w = 0;
        }
    }

    fn buf_ref(&mut self, id: BufId) -> String {
        self.used_bufs.insert(id);
        format!("b{id}")
    }

    /// Builds a C `augv` expression for a value crossing the callback
    /// boundary; buffer-backed views escape (no `restrict`).
    fn augv_of(&mut self, cv: &CV) -> String {
        match cv {
            CV::Num(x) => format!("av_num({x})"),
            CV::Vec { buf, start, len, .. } => {
                self.escaped.insert(*buf);
                self.used_bufs.insert(*buf);
                format!("av_slice({buf}, {start}, {len})")
            }
            CV::Mat { buf, start, dim } => {
                self.escaped.insert(*buf);
                self.used_bufs.insert(*buf);
                format!("av_mat({buf}, {start}, {dim})")
            }
            CV::RowsV { buf } => {
                self.escaped.insert(*buf);
                self.used_bufs.insert(*buf);
                format!("av_rows({buf})")
            }
            CV::Own(v) | CV::OwnMat(v) => v.clone(),
        }
    }

    /// `view_len` of a compiled value, as a C `int64_t` expression.
    fn len_expr(&self, cv: &CV) -> String {
        match cv {
            CV::Num(_) => "0".into(),
            CV::Vec { len, .. } => len.clone(),
            CV::Mat { dim, .. } => (dim * dim).to_string(),
            CV::RowsV { buf } => self.state.shape(*buf).num_cells().to_string(),
            CV::Own(v) => format!("{v}.b"),
            CV::OwnMat(v) => format!("({v}.b * {v}.b)"),
        }
    }

    /// `(buffer, start, len)` of a static view, the coordinates
    /// `slice_of` resolves at runtime.
    fn region(&self, cv: &CV) -> Option<(BufId, String, String)> {
        match cv {
            CV::Vec { buf, start, len, .. } => Some((*buf, start.clone(), len.clone())),
            CV::Mat { buf, start, dim } => Some((*buf, start.clone(), (dim * dim).to_string())),
            CV::RowsV { buf } => {
                Some((*buf, "0".into(), self.state.shape(*buf).num_cells().to_string()))
            }
            _ => None,
        }
    }

    /// `(pointer, len)` C expressions for `slice_of` on a static view.
    fn slice_exprs(&mut self, cv: &CV) -> Option<(String, String)> {
        let (buf, start, len) = self.region(cv)?;
        let b = self.buf_ref(buf);
        Some((format!("({b} + ({start}))"), len))
    }

    /// The `len` of a compiled value as a [`Sym`] (see [`Self::len_expr`]).
    fn len_sym(&self, cv: &CV) -> Sym {
        match cv {
            CV::Num(_) => Sym::Int(0),
            CV::Vec { n, .. } => n.clone(),
            CV::Mat { dim, .. } => Sym::Int((dim * dim) as u64),
            CV::RowsV { buf } => Sym::Int(self.state.shape(*buf).num_cells() as u64),
            CV::Own(_) | CV::OwnMat(_) => Sym::Dyn,
        }
    }

    /// The inlined Categorical log-density of point `x` (compiled from
    /// `point`) under static weights `cv`. A loop-counter point selects
    /// its cell without the round trip through `double`. Inside a loop,
    /// weights in a buffer the procedure never writes are read from its
    /// log table, which is filled once and read on many trips; a
    /// column-major table serves whole rows only, so any other slice of
    /// its buffer reads the live buffer.
    fn cat_ll(&mut self, x: &str, point: &RExpr, cv: &CV) -> Option<String> {
        let (buf, start, len) = self.region(cv)?;
        let x = match point {
            RExpr::Ref(RRef::Loop(d)) => format!("(uint64_t)i{d}"),
            _ => format!("aug_cat_k({x})"),
        };
        let tabled = self.depth > 0 && !self.written.contains(&buf);
        if tabled && !self.colmajor.contains(&buf) {
            self.table(buf);
            return Some(format!("aug_cat_ll_tab({x}, (lt{buf} + ({start})), {len})"));
        }
        if let (true, CV::Vec { row: Some(r), .. }) = (tabled, cv) {
            let Shape::Rows { offsets, .. } = self.state.shape(buf) else {
                unreachable!("column-major tables are over Rows buffers");
            };
            let (rows, cols) = (offsets.len() - 1, offsets[1]);
            self.table(buf);
            return Some(format!("aug_cat_ll_tabc({x}, lt{buf}, {cols}, {r}, {rows})"));
        }
        let b = self.buf_ref(buf);
        Some(format!("aug_cat_ll({x}, ({b} + ({start})), {len})"))
    }

    /// Reserves `buf`'s log table in the procedure's scratch.
    fn table(&mut self, buf: BufId) {
        if !self.tables.contains_key(&buf) {
            self.tables.insert(buf, self.table_cells);
            self.table_cells += self.state.shape(buf).num_cells();
            self.used_bufs.insert(buf);
        }
    }

    fn num(&self, cv: CV, what: &str) -> Result<String, String> {
        match cv {
            CV::Num(x) => Ok(x),
            other => Err(format!("{what} is not scalar (kind {other:?})")),
        }
    }

    /// Emits a non-negative runtime index from a scalar expression,
    /// replicating `eval`'s negative-index assertion and Rust's
    /// saturating `f64 as usize` cast. `sym` is what the index
    /// expression is statically ([`Sym::of_index`]); the result is the C
    /// index and its [`Sym`].
    fn index_from(&mut self, num: &str, sym: Sym, trap_code: i32) -> (String, Sym) {
        if let (true, Sym::Var(d)) = (self.unchecked, &sym) {
            // The guard established `i{d} >= 0`, and the cast of a
            // non-negative loop counter is the counter itself.
            return (self.tmp_i(&format!("i{d}")), sym);
        }
        let t = self.tmp_d(num);
        self.check(Fact::NonNeg(sym.clone()), &format!("{t} >= 0.0"), trap_code, &t, "0.0");
        (self.tmp_i(&format!("aug_idx({t})")), sym)
    }

    /// Emits `if (!(ok)) aug_trap(c, code, a, b);` — the cold path of
    /// every interpreter assertion — and records `fact` for the version
    /// guard of the hot loop being emitted. The unchecked copy of a hot
    /// loop emits nothing: its guard already holds.
    fn check(&mut self, fact: Fact, ok: &str, code: i32, a: &str, b: &str) {
        if self.unchecked {
            return;
        }
        if let Some(facts) = &mut self.facts {
            facts.push(fact);
        }
        self.line(&format!("if (!({ok})) aug_trap(c, {code}, {a}, {b});"));
    }

    fn bounds_check(&mut self, k: &(String, Sym), len: &str, n: Sym, code: i32) {
        let fact = Fact::Below(k.1.clone(), n);
        let k = &k.0;
        self.check(
            fact,
            &format!("(uint64_t){k} < (uint64_t)({len})"),
            code,
            &format!("(double)(uint64_t){k}"),
            &format!("(double)({len})"),
        );
    }

    /// `row_range`'s `assert!(i + 1 < offsets.len())`.
    fn row_range_check(&mut self, k: &(String, Sym), noff: usize) {
        let fact = Fact::Below(k.1.clone(), Sym::Int(noff as u64 - 1));
        let k = &k.0;
        self.check(
            fact,
            &format!("(uint64_t)({k} + 1) < (uint64_t){noff}"),
            trap::ROW_RANGE,
            &format!("(double)(uint64_t){k}"),
            "0.0",
        );
    }

    /// A length-equality check (`dot`, vector stores).
    fn len_check(&mut self, a: (&str, Sym), b: (&str, Sym), code: i32) {
        self.check(
            Fact::Eq(a.1, b.1),
            &format!("{} == {}", a.0, b.0),
            code,
            &format!("(double){}", a.0),
            &format!("(double){}", b.0),
        );
    }

    /// Compiles an expression; static node charges accumulate into `w`,
    /// dynamic charges are emitted inline as `W +=` statements.
    fn expr(&mut self, e: &RExpr, w: &mut u64) -> Result<CV, String> {
        *w += 1; // eval() charges one unit per node entry
        match e {
            RExpr::Const(v) => Ok(CV::Num(fmt_f64(*v))),
            RExpr::Ref(RRef::Loop(d)) => {
                if *d >= self.depth {
                    return Err(format!("loop variable depth {d} out of scope"));
                }
                Ok(CV::Num(format!("(double)i{d}")))
            }
            RExpr::Ref(RRef::Buf(id)) => Ok(match self.state.shape(*id) {
                Shape::Num => {
                    let b = self.buf_ref(*id);
                    CV::Num(format!("{b}[0]"))
                }
                Shape::Vector(n) => CV::Vec {
                    buf: *id,
                    start: "0".into(),
                    len: n.to_string(),
                    n: Sym::Int(*n as u64),
                    row: None,
                },
                Shape::Matrix(d) => CV::Mat { buf: *id, start: "0".into(), dim: *d },
                Shape::Rows { .. } => CV::RowsV { buf: *id },
            }),
            RExpr::Index(base, idx) => {
                // eval order: index expression first (negative check),
                // then the base, then index_view's bound check.
                let iv = self.expr(idx, w)?;
                let ix = self.num(iv, "index expression")?;
                let ks = self.index_from(&ix, Sym::of_index(idx), trap::NEG_INDEX);
                let k = ks.0.clone();
                let bv = self.expr(base, w)?;
                *w += 1; // index_view charges one unit
                match bv {
                    CV::Vec { buf, start, len, n, .. } => {
                        self.bounds_check(&ks, &len, n, trap::OOB_SLICE);
                        let b = self.buf_ref(buf);
                        Ok(CV::Num(format!("{b}[({start}) + {k}]")))
                    }
                    CV::Mat { buf, start, dim } => {
                        let n = Sym::Int(dim as u64);
                        self.bounds_check(&ks, &dim.to_string(), n, trap::OOB_MAT_ROW);
                        Ok(CV::Vec {
                            buf,
                            start: format!("(({start}) + {k} * {dim})"),
                            len: dim.to_string(),
                            n: Sym::Int(dim as u64),
                            row: None,
                        })
                    }
                    CV::RowsV { buf } => {
                        let Shape::Rows { offsets, elem } = self.state.shape(buf) else {
                            unreachable!("Rows view over non-Rows shape");
                        };
                        let noff = offsets.len();
                        let elem = *elem;
                        self.used_offs.insert(buf);
                        self.used_bufs.insert(buf);
                        self.row_range_check(&ks, noff);
                        match elem {
                            RowElem::Vec => Ok(CV::Vec {
                                buf,
                                start: format!("off{buf}[{k}]"),
                                len: format!("(off{buf}[{k} + 1] - off{buf}[{k}])"),
                                n: Sym::RowLen(buf, Box::new(ks.1)),
                                row: Some(k),
                            }),
                            RowElem::Mat(d) => {
                                Ok(CV::Mat { buf, start: format!("off{buf}[{k}]"), dim: d })
                            }
                        }
                    }
                    CV::Own(v) => {
                        self.bounds_check(&ks, &format!("{v}.b"), Sym::Dyn, trap::OOB_OWN);
                        let t = self.tmp_d(&format!("vt->own_get(c, {v}, {k})"));
                        Ok(CV::Num(t))
                    }
                    CV::OwnMat(v) => {
                        self.bounds_check(&ks, &format!("{v}.b"), Sym::Dyn, trap::OOB_OWN_ROW);
                        let t = self.tmp_v(&format!("vt->own_row(c, {v}, {k})"));
                        Ok(CV::Own(t))
                    }
                    CV::Num(_) => Err("indexing into a scalar".into()),
                }
            }
            RExpr::Binop(op, a, b) => {
                let av = self.expr(a, w)?;
                let ax = self.num(av, "left operand")?;
                let ta = self.tmp_d(&ax);
                let bv = self.expr(b, w)?;
                let bx = self.num(bv, "right operand")?;
                let tb = self.tmp_d(&bx);
                let sym = match op {
                    BinOp::Add => "+",
                    BinOp::Sub => "-",
                    BinOp::Mul => "*",
                    BinOp::Div => "/",
                };
                Ok(CV::Num(format!("({ta} {sym} {tb})")))
            }
            RExpr::Neg(a) => {
                let av = self.expr(a, w)?;
                let ax = self.num(av, "negation operand")?;
                Ok(CV::Num(format!("(-{ax})")))
            }
            RExpr::Call(f, args) => self.call(*f, args, w),
            RExpr::DistLl { dist, args, point } => self.dist_ll(*dist, args, point, w),
            RExpr::DistGradParam { dist, i, args, point } => {
                self.dist_grad(*dist, Some(*i), args, point, w)
            }
            RExpr::DistGradPoint { dist, args, point } => {
                self.dist_grad(*dist, None, args, point, w)
            }
            RExpr::Op(op, args) => {
                let a = self.expr(&args[0], w)?;
                let b = if args.len() > 1 {
                    self.expr(&args[1], w)?
                } else {
                    CV::Num("0.0".into())
                };
                let (aa, ab) = (self.augv_of(&a), self.augv_of(&b));
                let t = self.tmp_v(&format!(
                    "vt->op(c, {}, {}, {aa}, {ab})",
                    op_code(*op),
                    args.len()
                ));
                Ok(match op {
                    OpN::VecAdd | OpN::VecSub | OpN::VecScale | OpN::MatVec => CV::Own(t),
                    OpN::MatAdd | OpN::MatScale | OpN::MatInv | OpN::OuterSub => CV::OwnMat(t),
                })
            }
            RExpr::Len(a) => {
                let av = self.expr(a, w)?;
                let l = self.len_expr(&av);
                Ok(CV::Num(format!("(double)({l})")))
            }
        }
    }

    fn call(&mut self, f: Builtin, args: &[RExpr], w: &mut u64) -> Result<CV, String> {
        match f {
            Builtin::Sigmoid | Builtin::Exp | Builtin::Log | Builtin::Sqrt => {
                let av = self.expr(&args[0], w)?;
                let x = self.num(av, "builtin argument")?;
                let fname = match f {
                    Builtin::Sigmoid => "aug_sigmoid",
                    Builtin::Exp => "exp",
                    Builtin::Log => "log",
                    Builtin::Sqrt => "sqrt",
                    Builtin::Dot => unreachable!(),
                };
                Ok(CV::Num(format!("{fname}({x})")))
            }
            Builtin::Dot => {
                let a = self.expr(&args[0], w)?;
                let b = self.expr(&args[1], w)?;
                if let (Some((pa, la)), Some((pb, lb))) =
                    (self.slice_exprs(&a), self.slice_exprs(&b))
                {
                    let ta = self.tmp_i(&la);
                    let tb = self.tmp_i(&lb);
                    let (na, nb) = (self.len_sym(&a), self.len_sym(&b));
                    self.len_check((&ta, na), (&tb, nb), trap::DOT_LEN);
                    self.line(&format!("W += (uint64_t){ta};"));
                    let acc = self.tmp_d("0.0");
                    let q = self.tmp_name("q");
                    self.line(&format!(
                        "for (int64_t {q} = 0; {q} < {ta}; {q}++) {acc} += {pa}[{q}] * {pb}[{q}];"
                    ));
                    Ok(CV::Num(acc))
                } else {
                    let (aa, ab) = (self.augv_of(&a), self.augv_of(&b));
                    let t = self.tmp_d(&format!("vt->dot(c, {aa}, {ab})"));
                    Ok(CV::Num(t))
                }
            }
        }
    }

    fn dist_ll(
        &mut self,
        dist: DistKind,
        args: &[RExpr],
        point: &RExpr,
        w: &mut u64,
    ) -> Result<CV, String> {
        let mut avs = Vec::new();
        for a in args {
            let v = self.expr(a, w)?;
            avs.push(v);
        }
        let pv = self.expr(point, w)?;
        // Inline fast paths: scalar-point primitives whose formulas are
        // replicated in the preamble. dist_op_cost(scalar point) == 4.
        let inline = match (dist, &pv) {
            (DistKind::Normal, CV::Num(x)) => {
                if let (CV::Num(mu), CV::Num(var)) = (&avs[0], &avs[1]) {
                    Some(format!("aug_normal_ll({x}, {mu}, {var})"))
                } else {
                    None
                }
            }
            (DistKind::Bernoulli, CV::Num(x)) => match &avs[0] {
                CV::Num(p) => Some(format!("aug_bern_ll({x}, {p})")),
                _ => None,
            },
            (DistKind::BernoulliLogit, CV::Num(x)) => match &avs[0] {
                CV::Num(eta) => Some(format!("aug_bernlogit_ll({x}, {eta})")),
                _ => None,
            },
            (DistKind::Exponential, CV::Num(x)) => match &avs[0] {
                CV::Num(rate) => Some(format!("aug_exp_ll({x}, {rate})")),
                _ => None,
            },
            (DistKind::Categorical, CV::Num(x)) => {
                let weights = avs[0].clone();
                self.cat_ll(x, point, &weights)
            }
            _ => None,
        };
        if let Some(expr) = inline {
            *w += 4;
            let t = self.tmp_d(&expr);
            return Ok(CV::Num(t));
        }
        let arr = self.augv_array(&avs);
        let pa = self.augv_of(&pv);
        let t = self.tmp_d(&format!(
            "vt->dist_ll(c, {}, {}, {arr}, {pa})",
            dist_code(dist),
            args.len()
        ));
        Ok(CV::Num(t))
    }

    fn dist_grad(
        &mut self,
        dist: DistKind,
        i: Option<usize>,
        args: &[RExpr],
        point: &RExpr,
        w: &mut u64,
    ) -> Result<CV, String> {
        let mut avs = Vec::new();
        for a in args {
            let v = self.expr(a, w)?;
            avs.push(v);
        }
        let pv = self.expr(point, w)?;
        // Inline fast paths (all scalar in, scalar out; cost 4, no
        // out-length charge). Gradients accumulate into a fresh 0.0, so
        // the value is the formula itself.
        let scalar =
            |cv: &CV| -> Option<String> { if let CV::Num(x) = cv { Some(x.clone()) } else { None } };
        let inline = match (dist, i) {
            (DistKind::Normal, Some(0)) => {
                match (scalar(&pv), scalar(&avs[0]), scalar(&avs[1])) {
                    (Some(x), Some(mu), Some(var)) => Some(format!("(({x} - {mu}) / {var})")),
                    _ => None,
                }
            }
            (DistKind::Normal, Some(1)) => {
                match (scalar(&pv), scalar(&avs[0]), scalar(&avs[1])) {
                    (Some(x), Some(mu), Some(var)) => {
                        let d = self.tmp_d(&format!("({x} - {mu})"));
                        Some(format!("(-0.5 / {var} + 0.5 * {d} * {d} / ({var} * {var}))"))
                    }
                    _ => None,
                }
            }
            (DistKind::Normal, None) => match (scalar(&pv), scalar(&avs[0]), scalar(&avs[1])) {
                (Some(x), Some(mu), Some(var)) => Some(format!("(-({x} - {mu}) / {var})")),
                _ => None,
            },
            (DistKind::BernoulliLogit, Some(0)) => match (scalar(&pv), scalar(&avs[0])) {
                (Some(x), Some(eta)) => Some(format!("(aug_u8({x}) - aug_sigmoid({eta}))")),
                _ => None,
            },
            (DistKind::Bernoulli, Some(0)) => match (scalar(&pv), scalar(&avs[0])) {
                (Some(y), Some(p)) => {
                    Some(format!("({y} == 1.0 ? 1.0 / {p} : -1.0 / (1.0 - {p}))"))
                }
                _ => None,
            },
            (DistKind::Exponential, Some(0)) => match (scalar(&pv), scalar(&avs[0])) {
                (Some(x), Some(rate)) => Some(format!("(1.0 / {rate} - {x})")),
                _ => None,
            },
            (DistKind::Exponential, None) => {
                scalar(&avs[0]).map(|rate| format!("(-{rate})"))
            }
            (DistKind::Poisson, Some(0)) => match (scalar(&pv), scalar(&avs[0])) {
                (Some(x), Some(lam)) => Some(format!("({x} / {lam} - 1.0)")),
                _ => None,
            },
            _ => None,
        };
        if let Some(expr) = inline {
            *w += 4;
            let t = self.tmp_d(&expr);
            return Ok(CV::Num(t));
        }
        // Output slot type from the differentiated argument — static,
        // matching eval::dist_grad's runtime classification.
        let vec_out = match i {
            Some(pos) => dist.param_tys()[pos] == SimpleTy::Vec,
            None => dist.point_ty() == SimpleTy::Vec,
        };
        let arr = self.augv_array(&avs);
        let pa = self.augv_of(&pv);
        let which = i.map(|p| p as i64).unwrap_or(-1);
        let t = self.tmp_v(&format!(
            "vt->dist_grad(c, {}, {which}, {}, {arr}, {pa})",
            dist_code(dist),
            args.len()
        ));
        Ok(if vec_out { CV::Own(t) } else { CV::Num(format!("{t}.x")) })
    }

    /// Materializes an `augv[2]` argument spine (unused slots zeroed).
    fn augv_array(&mut self, avs: &[CV]) -> String {
        let exprs: Vec<String> = avs.iter().map(|v| self.augv_of(v)).collect();
        let n = self.tmp_name("a");
        self.line(&format!("augv {n}[2];"));
        for (j, e) in exprs.iter().enumerate() {
            self.line(&format!("{n}[{j}] = {e};"));
        }
        for j in exprs.len()..2 {
            self.line(&format!("{n}[{j}] = av_num(0.0);"));
        }
        n
    }

    /// Statically resolves a store destination, emitting the index
    /// evaluation and the interpreter's destination assertions.
    fn dest(&mut self, l: &RLValue, w: &mut u64) -> Result<CDest, String> {
        let shape = self.state.shape(l.buf).clone();
        let total = self.state.flat(l.buf).len();
        let whole = |n: usize| CDest::Range {
            buf: l.buf,
            start: "0".into(),
            len: n.to_string(),
            n: Sym::Int(n as u64),
        };
        let mut d = match &shape {
            Shape::Num => CDest::Cell { buf: l.buf, idx: "0".into() },
            Shape::Vector(n) => whole(*n),
            Shape::Matrix(dd) => whole(dd * dd),
            Shape::Rows { .. } => whole(total),
        };
        for (pos, idx) in l.indices.iter().enumerate() {
            let iv = self.expr(idx, w)?;
            let ix = self.num(iv, "store index")?;
            let ks = self.index_from(&ix, Sym::of_index(idx), trap::NEG_STORE);
            let k = ks.0.clone();
            d = match d {
                CDest::Range { buf, start, len, n } => {
                    let full_rows = matches!(self.state.shape(buf), Shape::Rows { .. })
                        && pos == 0
                        && start == "0";
                    if full_rows {
                        // dest_index routes a full Rows range through
                        // row_range. A later index would re-trigger that
                        // routing only if some row spans the whole buffer
                        // — statically detectable; such degenerate shapes
                        // are left to the tape.
                        let Shape::Rows { offsets, .. } = self.state.shape(buf) else {
                            unreachable!()
                        };
                        if l.indices.len() > pos + 1
                            && offsets.windows(2).any(|p| p[0] == 0 && p[1] == total)
                        {
                            return Err(
                                "degenerate single-row destination indexing is tape-only".into()
                            );
                        }
                        let noff = offsets.len();
                        self.used_offs.insert(buf);
                        self.used_bufs.insert(buf);
                        self.row_range_check(&ks, noff);
                        CDest::Range {
                            buf,
                            start: format!("off{buf}[{k}]"),
                            len: format!("(off{buf}[{k} + 1] - off{buf}[{k}])"),
                            n: Sym::RowLen(buf, Box::new(ks.1)),
                        }
                    } else {
                        self.bounds_check(&ks, &len, n, trap::STORE_OOB);
                        CDest::Cell { buf, idx: format!("(({start}) + {k})") }
                    }
                }
                CDest::Cell { .. } => {
                    return Err("indexing into a scalar destination is tape-only".into())
                }
            };
        }
        Ok(d)
    }

    fn stmt(&mut self, s: &RStmt) -> Result<(), String> {
        let mut w = 0u64;
        match s {
            RStmt::Seq(stmts) => {
                for (i, t) in stmts.iter().enumerate() {
                    match (t, stmts.get(i + 1)) {
                        (RStmt::Loop { kind, lo, hi, body }, Some(RStmt::SampleLogits { .. })) => {
                            self.loop_stmt(*kind, lo, hi, body, true)?
                        }
                        _ => self.stmt(t)?,
                    }
                }
            }
            RStmt::Assign { lhs, op, rhs } => {
                let v = self.expr(rhs, &mut w)?;
                let d = self.dest(lhs, &mut w)?;
                match (&d, &v) {
                    (CDest::Cell { buf, idx }, CV::Num(x)) => {
                        w += 1;
                        let t = self.tmp_d(x);
                        let b = self.buf_ref(*buf);
                        let sym = if *op == AssignOp::Set { "=" } else { "+=" };
                        self.line(&format!("{b}[{idx}] {sym} {t};"));
                    }
                    (CDest::Range { buf, start, len, .. }, CV::Num(x)) => {
                        if *op != AssignOp::Set {
                            return Err("broadcast increment is tape-only".into());
                        }
                        let t = self.tmp_d(x);
                        let b = self.buf_ref(*buf);
                        self.line(&format!("W += (uint64_t)({len});"));
                        let q = self.tmp_name("q");
                        self.line(&format!(
                            "for (int64_t {q} = 0; {q} < ({len}); {q}++) {b}[({start}) + {q}] = {t};"
                        ));
                    }
                    (CDest::Range { buf, start, len, n }, CV::Vec { .. })
                    | (CDest::Range { buf, start, len, n }, CV::Mat { .. })
                    | (CDest::Range { buf, start, len, n }, CV::RowsV { .. }) => {
                        let src_buf = match &v {
                            CV::Vec { buf, .. } | CV::Mat { buf, .. } | CV::RowsV { buf } => *buf,
                            _ => unreachable!(),
                        };
                        if src_buf == *buf {
                            // Same-buffer copies go through the engine,
                            // which materializes the source first (exact
                            // overlap semantics).
                            let (buf, start, len) = (*buf, start.clone(), len.clone());
                            let a = self.augv_of(&v);
                            self.escaped.insert(buf);
                            self.flush(&mut w);
                            self.line(&format!(
                                "vt->write(c, {buf}, {start}, {len}, {}, {a});",
                                if *op == AssignOp::Set { 0 } else { 1 }
                            ));
                        } else {
                            let (ps, ls) =
                                self.slice_exprs(&v).expect("static views are sliceable");
                            let ts = self.tmp_i(&ls);
                            let td = self.tmp_i(len);
                            let ns = self.len_sym(&v);
                            self.len_check((&ts, ns), (&td, n.clone()), trap::STORE_LEN);
                            self.line(&format!("W += (uint64_t){td};"));
                            let b = self.buf_ref(*buf);
                            let sym = if *op == AssignOp::Set { "=" } else { "+=" };
                            let q = self.tmp_name("q");
                            self.line(&format!(
                                "for (int64_t {q} = 0; {q} < {td}; {q}++) {b}[({start}) + {q}] {sym} {ps}[{q}];"
                            ));
                        }
                    }
                    (CDest::Range { buf, start, len, .. }, CV::Own(_) | CV::OwnMat(_)) => {
                        let (buf, start, len) = (*buf, start.clone(), len.clone());
                        let a = self.augv_of(&v);
                        self.escaped.insert(buf);
                        self.used_bufs.insert(buf);
                        self.flush(&mut w);
                        self.line(&format!(
                            "vt->write(c, {buf}, {start}, {len}, {}, {a});",
                            if *op == AssignOp::Set { 0 } else { 1 }
                        ));
                    }
                    (CDest::Cell { .. }, _) => {
                        return Err("vector store into a scalar cell is tape-only".into())
                    }
                }
                self.flush(&mut w);
            }
            RStmt::IfEq { a, b, then, els } => {
                let av = self.expr(a, &mut w)?;
                let ax = self.num(av, "IfEq left")?;
                let ta = self.tmp_d(&ax);
                let bv = self.expr(b, &mut w)?;
                let bx = self.num(bv, "IfEq right")?;
                let tb = self.tmp_d(&bx);
                self.flush(&mut w);
                self.line(&format!("if ({ta} == {tb}) {{"));
                self.indent += 1;
                self.stmt(then)?;
                self.indent -= 1;
                if let Some(e) = els {
                    self.line("} else {");
                    self.indent += 1;
                    self.stmt(e)?;
                    self.indent -= 1;
                }
                self.line("}");
            }
            RStmt::Loop { kind, lo, hi, body } => self.loop_stmt(*kind, lo, hi, body, false)?,
            RStmt::Sample { lhs, dist, args } => {
                if args.len() > 2 {
                    return Err("distribution arity exceeds 2".into());
                }
                let mut avs = Vec::new();
                for a in args {
                    let v = self.expr(a, &mut w)?;
                    avs.push(v);
                }
                let d = self.dest(lhs, &mut w)?;
                let arr = self.augv_array(&avs);
                self.escaped.insert(lhs.buf);
                self.used_bufs.insert(lhs.buf);
                self.flush(&mut w);
                match d {
                    CDest::Cell { buf, idx } => self.line(&format!(
                        "vt->sample(c, {}, {}, {arr}, {buf}, 1, {idx}, 0);",
                        dist_code(*dist),
                        args.len()
                    )),
                    CDest::Range { buf, start, len, .. } => self.line(&format!(
                        "vt->sample(c, {}, {}, {arr}, {buf}, 0, {start}, {len});",
                        dist_code(*dist),
                        args.len()
                    )),
                }
            }
            RStmt::SampleLogits { lhs, weights } => {
                // The interpreters draw before resolving the destination,
                // so the draw (and its traps) comes first here too.
                w += 4;
                let wv = self.expr(weights, &mut w)?;
                let Some((p, len)) = self.slice_exprs(&wv) else {
                    return Err("SampleLogits over engine-owned weights is tape-only".into());
                };
                let n = self.tmp_i(&len);
                self.line(&format!("W += (uint64_t){n};"));
                let draw = self.tmp_i(&format!("aug_cat_logits(c, {p}, {n})"));
                let CDest::Cell { buf, idx } = self.dest(lhs, &mut w)? else {
                    // The interpreter panics on a range destination; the
                    // tape replicates that, so leave it there.
                    return Err("SampleLogits into a range destination is tape-only".into());
                };
                self.flush(&mut w);
                let b = self.buf_ref(buf);
                self.line(&format!("{b}[{idx}] = (double){draw};"));
            }
        }
        Ok(())
    }


    /// Emits a loop. A `hot` loop (the weight loop of a `SampleLogits`)
    /// without nested loops is versioned; see [`Self::versioned_loop`].
    fn loop_stmt(
        &mut self,
        kind: LoopKind,
        lo: &RExpr,
        hi: &RExpr,
        body: &RStmt,
        hot: bool,
    ) -> Result<(), String> {
        let mut w = 0u64;
        let lv = self.expr(lo, &mut w)?;
        let lx = self.num(lv, "loop lower bound")?;
        let tl = self.tmp_i(&format!("aug_i64({lx})"));
        let hv = self.expr(hi, &mut w)?;
        let hx = self.num(hv, "loop upper bound")?;
        let th = self.tmp_i(&format!("aug_i64({hx})"));
        self.flush(&mut w);
        let var = format!("i{}", self.depth);
        if kind == LoopKind::Par && !self.in_par {
            let launch = self.tmp_name("L");
            self.line("{");
            self.indent += 1;
            self.line(&format!("uint64_t {launch} = vt->par_enter(c);"));
            self.line(&format!("for (int64_t {var} = {tl}; {var} < {th}; {var}++) {{"));
            self.indent += 1;
            self.line(&format!("vt->par_iter(c, {launch}, {var});"));
            self.depth += 1;
            self.in_par = true;
            self.stmt(body)?;
            self.in_par = false;
            self.depth -= 1;
            self.indent -= 1;
            self.line("}");
            self.line("vt->par_exit(c);");
            self.indent -= 1;
            self.line("}");
            Ok(())
        } else if hot && !has_loop(body) {
            self.versioned_loop(&var, &tl, &th, body)
        } else {
            self.seq_loop(&var, &tl, &th, body, false)
        }
    }

    /// `for (var = tl; var < th; var++) { body }`; `fast` emits each trip
    /// with [`Self::fast_trip`].
    fn seq_loop(
        &mut self,
        var: &str,
        tl: &str,
        th: &str,
        body: &RStmt,
        fast: bool,
    ) -> Result<(), String> {
        self.line(&format!("for (int64_t {var} = {tl}; {var} < {th}; {var}++) {{"));
        self.indent += 1;
        self.depth += 1;
        let was_par = self.in_par;
        if fast {
            self.fast_trip(body)?;
        } else {
            self.stmt(body)?;
        }
        self.in_par = was_par;
        self.depth -= 1;
        self.indent -= 1;
        self.line("}");
        Ok(())
    }

    /// Emits a hot loop in two versions behind one guard:
    ///
    /// ```c
    /// if (<no check can fail>) { <unchecked copy> } else { <checked loop> }
    /// ```
    ///
    /// The checked loop is emitted first, exactly as an ordinary loop,
    /// recording each check's [`Fact`]. If some fact cannot be decided
    /// before the loop, only the checked loop is kept; if every fact
    /// holds statically, only the unchecked copy.
    fn versioned_loop(
        &mut self,
        var: &str,
        tl: &str,
        th: &str,
        body: &RStmt,
    ) -> Result<(), String> {
        let outer = std::mem::take(&mut self.body);
        self.indent += 1;
        self.facts = Some(Vec::new());
        let emitted = self.seq_loop(var, tl, th, body, false);
        let facts = self.facts.take().unwrap_or_default();
        emitted?;
        let checked = std::mem::replace(&mut self.body, outer);
        self.indent -= 1;
        let Some(guard) = self.guard(&facts, tl, th) else {
            for l in checked.lines() {
                self.body.push_str(l.strip_prefix("  ").unwrap_or(l));
                self.body.push('\n');
            }
            return Ok(());
        };
        if !guard.is_empty() {
            self.line(&format!("if ({}) {{", guard.join(" && ")));
            self.indent += 1;
        }
        self.unchecked = true;
        let emitted = self.seq_loop(var, tl, th, body, true);
        self.unchecked = false;
        emitted?;
        if !guard.is_empty() {
            self.indent -= 1;
            self.line("} else {");
            self.body.push_str(&checked);
            self.line("}");
        }
        Ok(())
    }

    /// The conjuncts, in body order, of a guard under which none of
    /// `facts` can fail on any trip of the loop `for (i{d} = tl; i{d} <
    /// th; ...)` at depth `d = self.depth`; `None` when some fact cannot
    /// be decided before the loop. Each conjunct only reads offset-table
    /// entries that an earlier conjunct (or a check already passed
    /// before the loop) proved in range.
    fn guard(&self, facts: &[Fact], tl: &str, th: &str) -> Option<Vec<String>> {
        let d = self.depth;
        let mut out: Vec<String> = Vec::new();
        let mut push = |c: String| {
            if !out.contains(&c) {
                out.push(c);
            }
        };
        for f in facts {
            match f {
                Fact::NonNeg(Sym::Int(_)) => {}
                Fact::NonNeg(Sym::Var(e)) if *e == d => push(format!("{tl} >= 0")),
                Fact::NonNeg(Sym::Var(e)) => push(format!("i{e} >= 0")),
                Fact::NonNeg(_) => return None,
                Fact::Below(Sym::Var(e), n) if *e == d => {
                    let n = self.render(n)?;
                    push(format!("{tl} >= 0"));
                    push(format!("{th} <= {n}"));
                }
                Fact::Below(Sym::Int(a), Sym::Int(b)) => {
                    if a >= b {
                        return None;
                    }
                }
                Fact::Below(k @ (Sym::Int(_) | Sym::Var(_)), n) => {
                    push(format!("(uint64_t){} < (uint64_t){}", self.render(k)?, self.render(n)?))
                }
                Fact::Below(..) => return None,
                Fact::Eq(Sym::Int(a), Sym::Int(b)) => {
                    if a != b {
                        return None;
                    }
                }
                Fact::Eq(a, b) => push(format!("{} == {}", self.render(a)?, self.render(b)?)),
            }
        }
        Some(out)
    }

    /// `sym` as a C `int64_t` expression that is valid before the loop at
    /// depth `self.depth` and the same on every trip of it; `None` when
    /// there is none.
    fn render(&self, sym: &Sym) -> Option<String> {
        match sym {
            Sym::Int(c) => Some(c.to_string()),
            Sym::Var(e) if *e < self.depth => Some(format!("i{e}")),
            Sym::RowLen(buf, row) => {
                let r = self.render(row)?;
                Some(format!("(off{buf}[{r} + 1] - off{buf}[{r}])"))
            }
            Sym::Var(_) | Sym::Dyn => None,
        }
    }

    /// One trip of a hot loop's unchecked copy: its statements in order,
    /// except that a trailing set-then-increments of one weight cell (see
    /// [`accumulation`]) adds up in a local `r` and stores once. Every
    /// value, index and work charge is emitted as in the checked loop.
    fn fast_trip(&mut self, body: &RStmt) -> Result<(), String> {
        let stmts = match body {
            RStmt::Seq(stmts) => stmts.as_slice(),
            other => std::slice::from_ref(other),
        };
        let Some(start) = accumulation(stmts, self.state) else {
            return self.stmt(body);
        };
        for s in &stmts[..start] {
            self.stmt(s)?;
        }
        let mut acc: Option<String> = None;
        let mut cell = String::new();
        for s in &stmts[start..] {
            let RStmt::Assign { lhs, rhs, .. } = s else {
                unreachable!("accumulation runs hold assignments only")
            };
            let mut w = 0u64;
            let v = self.expr(rhs, &mut w)?;
            let x = self.num(v, "accumulated value")?;
            let CDest::Cell { buf, idx } = self.dest(lhs, &mut w)? else {
                unreachable!("one index into a vector is a cell")
            };
            w += 1;
            let t = self.tmp_d(&x);
            match &acc {
                None => {
                    let r = self.tmp_name("r");
                    self.line(&format!("double {r} = {t};"));
                    acc = Some(r);
                }
                Some(r) => self.line(&format!("{r} += {t};")),
            }
            self.flush(&mut w);
            cell = format!("{}[{idx}]", self.buf_ref(buf));
        }
        let r = acc.expect("an accumulation run is not empty");
        self.line(&format!("{cell} = {r};"));
        Ok(())
    }

    /// Collects into `self.colmajor` the buffers whose log table is
    /// better stored column-major: read-only `Rows` buffers of equal,
    /// non-empty vector rows that a hot loop in `s` (at depth `depth` or
    /// below) reads down a column ([`column_reads`]).
    fn column_tables(&mut self, s: &RStmt, depth: usize) {
        match s {
            RStmt::Seq(stmts) => {
                for (i, t) in stmts.iter().enumerate() {
                    if let (RStmt::Loop { body, .. }, Some(RStmt::SampleLogits { .. })) =
                        (t, stmts.get(i + 1))
                    {
                        for b in column_reads(body, depth) {
                            let uniform = matches!(self.state.shape(b),
                                Shape::Rows { offsets, elem: RowElem::Vec }
                                    if offsets.len() > 1
                                        && offsets[1] > 0
                                        && offsets.windows(2).all(|p| p[1] - p[0] == offsets[1]));
                            if uniform && !self.written.contains(&b) {
                                self.colmajor.insert(b);
                            }
                        }
                    }
                    self.column_tables(t, depth);
                }
            }
            RStmt::IfEq { then, els, .. } => {
                self.column_tables(then, depth);
                if let Some(e) = els {
                    self.column_tables(e, depth);
                }
            }
            RStmt::Loop { body, .. } => self.column_tables(body, depth + 1),
            _ => {}
        }
    }

    /// Emits the full C function for one procedure, with the number of
    /// log-table scratch cells it reads from `augctx::S`.
    fn proc(mut self, p: &RProc, idx: usize) -> Result<(String, usize), String> {
        written_bufs(&p.body, &mut self.written);
        self.column_tables(&p.body, 0);
        self.stmt(&p.body)?;
        let body = std::mem::take(&mut self.body);
        let mut f = String::new();
        f.push_str(&format!("/* proc {idx}: {} */\n", p.name));
        f.push_str(&format!("static void aug_p{idx}(augctx* c) {{\n"));
        f.push_str("  double** B = c->B;\n");
        f.push_str("  const augvt* vt = c->vt;\n");
        f.push_str("  uint64_t W = 0;\n");
        for &b in &self.used_bufs {
            if self.escaped.contains(&b) {
                f.push_str(&format!("  double* b{b} = B[{b}];\n"));
            } else {
                f.push_str(&format!("  double* restrict b{b} = B[{b}];\n"));
            }
        }
        for (&b, &off) in &self.tables {
            f.push_str(&format!("  double* restrict lt{b} = c->S + {off};\n"));
            match self.state.shape(b) {
                Shape::Rows { offsets, .. } if self.colmajor.contains(&b) => f.push_str(&format!(
                    "  aug_log_table_t(lt{b}, b{b}, {}, {});\n",
                    offsets.len() - 1,
                    offsets[1]
                )),
                shape => {
                    f.push_str(&format!("  aug_log_table(lt{b}, b{b}, {});\n", shape.num_cells()))
                }
            }
        }
        f.push_str(&body);
        f.push_str("  c->W += W;\n");
        f.push_str("  (void)B; (void)vt;\n");
        f.push_str("}\n");
        Ok((f, self.table_cells))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A state with Categorical weights `p`, a Dirichlet concentration
    /// `alpha`, observations `y`, a scalar accumulator `acc`, a weight
    /// vector `wt` with a draw destination `z`, and `q`, three rows of
    /// two Categorical weights.
    struct Fixture {
        state: State,
        p: BufId,
        alpha: BufId,
        y: BufId,
        acc: BufId,
        wt: BufId,
        z: BufId,
        q: BufId,
    }

    fn fixture() -> Fixture {
        let mut state = State::new();
        let p = state.insert("p", Shape::Vector(3));
        let alpha = state.insert("alpha", Shape::Vector(3));
        let y = state.insert("y", Shape::Vector(4));
        let acc = state.insert("acc", Shape::Num);
        let wt = state.insert("wt", Shape::Vector(3));
        let z = state.insert("z", Shape::Vector(1));
        let q = state.insert("q", Shape::Rows { offsets: vec![0, 2, 4, 6], elem: RowElem::Vec });
        Fixture { state, p, alpha, y, acc, wt, z, q }
    }

    fn buf(id: BufId) -> RExpr {
        RExpr::Ref(RRef::Buf(id))
    }

    fn var(d: usize) -> RExpr {
        RExpr::Ref(RRef::Loop(d))
    }

    fn index(base: RExpr, i: RExpr) -> RExpr {
        RExpr::Index(Box::new(base), Box::new(i))
    }

    fn cat_ll(weights: RExpr, point: RExpr) -> RExpr {
        RExpr::DistLl { dist: DistKind::Categorical, args: vec![weights], point: Box::new(point) }
    }

    /// `wt[i{d}] op rhs`.
    fn to_wt(f: &Fixture, d: usize, op: AssignOp, rhs: RExpr) -> RStmt {
        RStmt::Assign { lhs: RLValue { buf: f.wt, indices: vec![var(d)] }, op, rhs }
    }

    /// `for i{d} in 0..3 { trip }` followed by a draw from `wt` into
    /// `z[0]`: the hot-loop shape finite-sum Gibbs lowers to.
    fn hot(f: &Fixture, trip: Vec<RStmt>) -> RStmt {
        RStmt::Seq(vec![
            RStmt::Loop {
                kind: LoopKind::Seq,
                lo: RExpr::Const(0.0),
                hi: RExpr::Const(3.0),
                body: Box::new(RStmt::Seq(trip)),
            },
            RStmt::SampleLogits {
                lhs: RLValue { buf: f.z, indices: vec![RExpr::Const(0.0)] },
                weights: buf(f.wt),
            },
        ])
    }

    /// `acc += Categorical(p).ll(y[i0])`.
    fn add_cat_ll(f: &Fixture) -> RStmt {
        let point = RExpr::Ref(RRef::Loop(0));
        RStmt::Assign {
            lhs: RLValue { buf: f.acc, indices: vec![] },
            op: AssignOp::Inc,
            rhs: RExpr::DistLl {
                dist: DistKind::Categorical,
                args: vec![buf(f.p)],
                point: Box::new(RExpr::Index(Box::new(buf(f.y)), Box::new(point))),
            },
        }
    }

    /// `for i0 in 0..4 { body }`.
    fn over_y(body: RStmt) -> RStmt {
        RStmt::Loop {
            kind: LoopKind::Seq,
            lo: RExpr::Const(0.0),
            hi: RExpr::Const(4.0),
            body: Box::new(body),
        }
    }

    fn emit(f: &Fixture, body: RStmt) -> (String, usize) {
        let mut used_offs = BTreeSet::new();
        let p = RProc { name: "probe".into(), body, ret: None };
        ProcEmitter::new(&f.state, &mut used_offs).proc(&p, 0).expect("covered")
    }

    /// The write guard: the same in-loop density gets a table over
    /// read-only weights, and keeps `aug_cat_ll` on the live buffer once
    /// the procedure stores or samples into the weights — even after the
    /// density, since a later trip reads the write.
    #[test]
    fn written_weights_keep_the_live_buffer() {
        let f = fixture();
        let density = || add_cat_ll(&f);
        let (c, cells) = emit(&f, over_y(density()));
        let p = f.p;
        assert_eq!(cells, 3, "one table over p's three cells:\n{c}");
        assert!(c.contains(&format!("aug_log_table(lt{p}, b{p}, 3);")), "{c}");
        assert!(c.contains("aug_cat_ll_tab(") && !c.contains("aug_cat_ll("), "{c}");

        let store = RStmt::Assign {
            lhs: RLValue { buf: f.p, indices: vec![RExpr::Const(0.0)] },
            op: AssignOp::Set,
            rhs: RExpr::Const(0.5),
        };
        let sample = RStmt::Sample {
            lhs: RLValue { buf: f.p, indices: vec![] },
            dist: DistKind::Dirichlet,
            args: vec![buf(f.alpha)],
        };
        for write in [store, sample] {
            let (c, cells) = emit(&f, over_y(RStmt::Seq(vec![density(), write.clone()])));
            assert_eq!(cells, 0, "{write:?} writes the weights:\n{c}");
            assert!(c.contains("aug_cat_ll("), "{c}");
            assert!(!c.contains("aug_log_table(") && !c.contains("aug_cat_ll_tab("), "{c}");
        }
    }

    /// Loop versioning keeps only the checked loop when a check depends
    /// on data no fact before the loop covers (an index read from `y`),
    /// and adds the guarded unchecked copy when every check is bounded
    /// by the loop range.
    #[test]
    fn data_dependent_checks_keep_only_the_checked_loop() {
        let f = fixture();
        let zero = || to_wt(&f, 0, AssignOp::Set, RExpr::Const(0.0));
        let from_loop = index(buf(f.p), var(0));
        let (c, _) = emit(&f, hot(&f, vec![zero(), to_wt(&f, 0, AssignOp::Inc, from_loop)]));
        assert_eq!(c.matches("for (int64_t i0").count(), 2, "two versions:\n{c}");
        assert!(c.contains("if (k0 >= 0 && k1 <= 3) {") && c.contains("} else {"), "{c}");
        assert!(c.contains("aug_cat_logits(c, "), "{c}");

        let from_data = index(buf(f.p), index(buf(f.y), var(0)));
        let (c, _) = emit(&f, hot(&f, vec![zero(), to_wt(&f, 0, AssignOp::Inc, from_data)]));
        assert_eq!(c.matches("for (int64_t i0").count(), 1, "checked loop only:\n{c}");
        assert!(!c.contains("} else {") && !c.contains("double r"), "{c}");
        assert!(c.contains("aug_trap(c, 1,"), "the data-dependent check stays:\n{c}");
    }

    /// Register accumulation applies to a trip that only sets and then
    /// increments its weight cell; a cell that a later statement of the
    /// same trip reads — the next increment, or another store — keeps
    /// its per-statement stores.
    #[test]
    fn read_accumulator_cells_keep_their_stores() {
        let f = fixture();
        let zero = || to_wt(&f, 0, AssignOp::Set, RExpr::Const(0.0));
        let inc = |rhs| to_wt(&f, 0, AssignOp::Inc, rhs);
        let term = || index(buf(f.p), var(0));
        let (c, _) = emit(&f, hot(&f, vec![zero(), inc(term()), inc(term())]));
        let wt = f.wt;
        assert!(c.contains("double r") && c.contains(&format!("b{wt}[((0) + k")), "{c}");

        let read_by_inc = vec![zero(), inc(term()), inc(index(buf(f.wt), var(0)))];
        let to_acc = RStmt::Assign {
            lhs: RLValue { buf: f.acc, indices: vec![] },
            op: AssignOp::Inc,
            rhs: index(buf(f.wt), var(0)),
        };
        let read_after = vec![zero(), inc(term()), to_acc];
        for trip in [read_by_inc, read_after] {
            let (c, _) = emit(&f, hot(&f, trip));
            assert!(c.contains("} else {"), "still versioned:\n{c}");
            assert!(!c.contains("double r"), "{c}");
        }
    }

    /// A table whose hot loop walks one row (row = an outer counter,
    /// column = the hot counter) stays row-major; one whose hot loop
    /// walks a column (row = the hot counter, point invariant) is built
    /// column-major.
    #[test]
    fn row_major_reads_keep_a_row_major_table() {
        let f = fixture();
        let outer = |point_of: fn() -> (RExpr, RExpr)| {
            let (row, point) = point_of();
            RStmt::Loop {
                kind: LoopKind::Seq,
                lo: RExpr::Const(0.0),
                hi: RExpr::Const(3.0),
                body: Box::new(hot(
                    &f,
                    vec![
                        to_wt(&f, 1, AssignOp::Set, RExpr::Const(0.0)),
                        to_wt(&f, 1, AssignOp::Inc, cat_ll(index(buf(f.q), row), point)),
                    ],
                )),
            }
        };
        let q = f.q;
        let (c, cells) = emit(&f, outer(|| (var(0), var(1))));
        assert_eq!(cells, 6, "{c}");
        assert!(c.contains(&format!("aug_log_table(lt{q}, b{q}, 6);")), "{c}");
        assert!(c.contains("aug_cat_ll_tab((uint64_t)i1, "), "{c}");
        assert!(!c.contains("aug_cat_ll_tabc("), "{c}");

        let (c, cells) = emit(&f, outer(|| (var(1), RExpr::Const(1.0))));
        assert_eq!(cells, 6, "one table either way:\n{c}");
        assert!(c.contains(&format!("aug_log_table_t(lt{q}, b{q}, 3, 2);")), "{c}");
        assert!(c.contains(&format!("aug_cat_ll_tabc(aug_cat_k(1e0), lt{q}, 2, ")), "{c}");
        assert!(!c.contains("aug_cat_ll_tab("), "{c}");
    }

    /// `SampleLogits` over engine-owned weights (a vector op's result)
    /// has no slice for `aug_cat_logits` to read: the module reports the
    /// procedure as skipped, and it runs on the tape.
    #[test]
    fn owned_logits_leave_the_procedure_to_the_tape() {
        let f = fixture();
        let body = RStmt::SampleLogits {
            lhs: RLValue { buf: f.z, indices: vec![RExpr::Const(0.0)] },
            weights: RExpr::Op(OpN::VecScale, vec![RExpr::Const(2.0), buf(f.wt)]),
        };
        let mut table = ProcTable::default();
        table.procs.push(RProc { name: "owned".into(), body, ret: None });
        let m = emit_module(&table, &f.state);
        assert_eq!(m.covered(), 0, "{}", m.source);
        assert_eq!(
            m.skipped,
            [("owned".to_string(), "SampleLogits over engine-owned weights is tape-only".to_string())]
        );
        assert!(m.source.contains("  0, /* owned (tape fallback) */"), "{}", m.source);
    }
}
