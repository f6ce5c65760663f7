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
//! A procedure using a construct the emitter does not cover (or whose
//! exact semantics cannot be decided statically, e.g. destination
//! indexing through a degenerate single-row ragged buffer) is skipped
//! with a recorded reason; the engine runs it on the tape, which is
//! bit-identical anyway.

use std::collections::{BTreeMap, BTreeSet};

use augur_dist::{DistKind, SimpleTy, ALL_KINDS};
use augur_lang::ast::{BinOp, Builtin};
use augur_low::il::{AssignOp, LoopKind, OpN};

use crate::compile::{ProcTable, RExpr, RLValue, RProc, RRef, RStmt};
use crate::state::{BufId, RowElem, Shape, State};

/// Bumped whenever the emitted C or the extern-C ABI changes shape;
/// part of the on-disk artifact cache key so stale `.so`s never load.
pub const CODEGEN_VERSION: u32 = 2;

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
  void     (*sample_logits)(augctx*, augv, int32_t, int64_t);
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
static inline double aug_cat_ll(double k, const double* p, int64_t len) {{
  if (k < 0.0) return -INFINITY;
  uint64_t ku = (uint64_t)aug_idx(k);
  if (ku < (uint64_t)len && p[ku] > 0.0) return log(p[ku]);
  return -INFINITY;
}}
/* aug_cat_ll over a log table: lt[i] is aug_cat_ll(i, p, len). */
static inline double aug_cat_ll_tab(double k, const double* lt, int64_t len) {{
  if (k < 0.0) return -INFINITY;
  uint64_t ku = (uint64_t)aug_idx(k);
  if (ku < (uint64_t)len) return lt[ku];
  return -INFINITY;
}}
static void aug_log_table(double* restrict lt, const double* restrict p, int64_t n) {{
  for (int64_t i = 0; i < n; i++) lt[i] = p[i] > 0.0 ? log(p[i]) : -INFINITY;
}}

"#
    )
}

/// A statically-typed compiled value: the emitter's analogue of
/// [`View`](crate::eval::View), with buffer coordinates as C expressions.
#[derive(Debug, Clone)]
enum CV {
    /// A C `double` expression.
    Num(String),
    /// A vector region of a buffer (start/len are C `int64_t` exprs).
    Vec { buf: BufId, start: String, len: String },
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
    Range { buf: BufId, start: String, len: String },
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
}

/// Collects the buffers a statement writes: the destination of every
/// `Assign`, `Sample` and `SampleLogits`. Runtime callbacks write only
/// those destinations, so every other buffer is read-only for the whole
/// procedure.
fn written_bufs(s: &RStmt, out: &mut BTreeSet<BufId>) {
    match s {
        RStmt::Seq(stmts) => stmts.iter().for_each(|t| written_bufs(t, out)),
        RStmt::Assign { lhs, .. } | RStmt::Sample { lhs, .. } | RStmt::SampleLogits { lhs, .. } => {
            out.insert(lhs.buf);
        }
        RStmt::IfEq { then, els, .. } => {
            written_bufs(then, out);
            if let Some(e) = els {
                written_bufs(e, out);
            }
        }
        RStmt::Loop { body, .. } => written_bufs(body, out),
    }
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
            CV::Vec { buf, start, len } => {
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
            CV::Vec { buf, start, len } => Some((*buf, start.clone(), len.clone())),
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

    /// `(pointer, len)` into the log table of a static view's buffer,
    /// when a table may stand in for it: the buffer is read-only in this
    /// procedure and the lookup sits inside a loop, so the table is
    /// filled once and read on many trips.
    fn log_table_exprs(&mut self, cv: &CV) -> Option<(String, String)> {
        let (buf, start, len) = self.region(cv)?;
        if self.depth == 0 || self.written.contains(&buf) {
            return None;
        }
        if !self.tables.contains_key(&buf) {
            self.tables.insert(buf, self.table_cells);
            self.table_cells += self.state.shape(buf).num_cells();
            self.used_bufs.insert(buf);
        }
        Some((format!("(lt{buf} + ({start}))"), len))
    }

    fn num(&self, cv: CV, what: &str) -> Result<String, String> {
        match cv {
            CV::Num(x) => Ok(x),
            other => Err(format!("{what} is not scalar (kind {other:?})")),
        }
    }

    /// Emits a non-negative runtime index from a scalar expression,
    /// replicating `eval`'s negative-index assertion and Rust's
    /// saturating `f64 as usize` cast.
    fn index_from(&mut self, num: &str, trap_code: i32) -> String {
        let t = self.tmp_d(num);
        self.check(&format!("{t} >= 0.0"), trap_code, &t, "0.0");
        self.tmp_i(&format!("aug_idx({t})"))
    }

    /// Emits `if (!(ok)) aug_trap(c, code, a, b);` — the cold path of
    /// every interpreter assertion.
    fn check(&mut self, ok: &str, code: i32, a: &str, b: &str) {
        self.line(&format!("if (!({ok})) aug_trap(c, {code}, {a}, {b});"));
    }

    fn bounds_check(&mut self, k: &str, len: &str, code: i32) {
        self.check(
            &format!("(uint64_t){k} < (uint64_t)({len})"),
            code,
            &format!("(double)(uint64_t){k}"),
            &format!("(double)({len})"),
        );
    }

    /// `row_range`'s `assert!(i + 1 < offsets.len())`.
    fn row_range_check(&mut self, k: &str, noff: usize) {
        self.check(
            &format!("(uint64_t)({k} + 1) < (uint64_t){noff}"),
            trap::ROW_RANGE,
            &format!("(double)(uint64_t){k}"),
            "0.0",
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
                Shape::Vector(n) => CV::Vec { buf: *id, start: "0".into(), len: n.to_string() },
                Shape::Matrix(d) => CV::Mat { buf: *id, start: "0".into(), dim: *d },
                Shape::Rows { .. } => CV::RowsV { buf: *id },
            }),
            RExpr::Index(base, idx) => {
                // eval order: index expression first (negative check),
                // then the base, then index_view's bound check.
                let iv = self.expr(idx, w)?;
                let ix = self.num(iv, "index expression")?;
                let k = self.index_from(&ix, trap::NEG_INDEX);
                let bv = self.expr(base, w)?;
                *w += 1; // index_view charges one unit
                match bv {
                    CV::Vec { buf, start, len } => {
                        self.bounds_check(&k, &len, trap::OOB_SLICE);
                        let b = self.buf_ref(buf);
                        Ok(CV::Num(format!("{b}[({start}) + {k}]")))
                    }
                    CV::Mat { buf, start, dim } => {
                        self.bounds_check(&k, &dim.to_string(), trap::OOB_MAT_ROW);
                        Ok(CV::Vec {
                            buf,
                            start: format!("(({start}) + {k} * {dim})"),
                            len: dim.to_string(),
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
                        self.row_range_check(&k, noff);
                        match elem {
                            RowElem::Vec => Ok(CV::Vec {
                                buf,
                                start: format!("off{buf}[{k}]"),
                                len: format!("(off{buf}[{k} + 1] - off{buf}[{k}])"),
                            }),
                            RowElem::Mat(d) => {
                                Ok(CV::Mat { buf, start: format!("off{buf}[{k}]"), dim: d })
                            }
                        }
                    }
                    CV::Own(v) => {
                        self.bounds_check(&k, &format!("{v}.b"), trap::OOB_OWN);
                        let t = self.tmp_d(&format!("vt->own_get(c, {v}, {k})"));
                        Ok(CV::Num(t))
                    }
                    CV::OwnMat(v) => {
                        self.bounds_check(&k, &format!("{v}.b"), trap::OOB_OWN_ROW);
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
                    self.check(
                        &format!("{ta} == {tb}"),
                        trap::DOT_LEN,
                        &format!("(double){ta}"),
                        &format!("(double){tb}"),
                    );
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
                if let Some((lt, l)) = self.log_table_exprs(&weights) {
                    Some(format!("aug_cat_ll_tab({x}, {lt}, {l})"))
                } else {
                    self.slice_exprs(&weights).map(|(p, l)| format!("aug_cat_ll({x}, {p}, {l})"))
                }
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
        let mut d = match &shape {
            Shape::Num => CDest::Cell { buf: l.buf, idx: "0".into() },
            Shape::Vector(n) => CDest::Range { buf: l.buf, start: "0".into(), len: n.to_string() },
            Shape::Matrix(dd) => {
                CDest::Range { buf: l.buf, start: "0".into(), len: (dd * dd).to_string() }
            }
            Shape::Rows { .. } => {
                CDest::Range { buf: l.buf, start: "0".into(), len: total.to_string() }
            }
        };
        for (pos, idx) in l.indices.iter().enumerate() {
            let iv = self.expr(idx, w)?;
            let ix = self.num(iv, "store index")?;
            let k = self.index_from(&ix, trap::NEG_STORE);
            d = match d {
                CDest::Range { buf, start, len } => {
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
                        self.row_range_check(&k, noff);
                        CDest::Range {
                            buf,
                            start: format!("off{buf}[{k}]"),
                            len: format!("(off{buf}[{k} + 1] - off{buf}[{k}])"),
                        }
                    } else {
                        self.bounds_check(&k, &len, trap::STORE_OOB);
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
                for t in stmts {
                    self.stmt(t)?;
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
                    (CDest::Range { buf, start, len }, CV::Num(x)) => {
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
                    (CDest::Range { buf, start, len }, CV::Vec { .. })
                    | (CDest::Range { buf, start, len }, CV::Mat { .. })
                    | (CDest::Range { buf, start, len }, CV::RowsV { .. }) => {
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
                            self.check(
                                &format!("{ts} == {td}"),
                                trap::STORE_LEN,
                                &format!("(double){ts}"),
                                &format!("(double){td}"),
                            );
                            self.line(&format!("W += (uint64_t){td};"));
                            let b = self.buf_ref(*buf);
                            let sym = if *op == AssignOp::Set { "=" } else { "+=" };
                            let q = self.tmp_name("q");
                            self.line(&format!(
                                "for (int64_t {q} = 0; {q} < {td}; {q}++) {b}[({start}) + {q}] {sym} {ps}[{q}];"
                            ));
                        }
                    }
                    (CDest::Range { buf, start, len }, CV::Own(_) | CV::OwnMat(_)) => {
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
            RStmt::Loop { kind, lo, hi, body } => {
                let lv = self.expr(lo, &mut w)?;
                let lx = self.num(lv, "loop lower bound")?;
                let tl = self.tmp_i(&format!("aug_i64({lx})"));
                let hv = self.expr(hi, &mut w)?;
                let hx = self.num(hv, "loop upper bound")?;
                let th = self.tmp_i(&format!("aug_i64({hx})"));
                self.flush(&mut w);
                let fresh = *kind == LoopKind::Par && !self.in_par;
                let var = format!("i{}", self.depth);
                if fresh {
                    let launch = self.tmp_name("L");
                    self.line("{");
                    self.indent += 1;
                    self.line(&format!("uint64_t {launch} = vt->par_enter(c);"));
                    self.line(&format!(
                        "for (int64_t {var} = {tl}; {var} < {th}; {var}++) {{"
                    ));
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
                } else {
                    self.line(&format!(
                        "for (int64_t {var} = {tl}; {var} < {th}; {var}++) {{"
                    ));
                    self.indent += 1;
                    self.depth += 1;
                    let was_par = self.in_par;
                    self.stmt(body)?;
                    self.in_par = was_par;
                    self.depth -= 1;
                    self.indent -= 1;
                    self.line("}");
                }
            }
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
                    CDest::Range { buf, start, len } => self.line(&format!(
                        "vt->sample(c, {}, {}, {arr}, {buf}, 0, {start}, {len});",
                        dist_code(*dist),
                        args.len()
                    )),
                }
            }
            RStmt::SampleLogits { lhs, weights } => {
                w += 4;
                let wv = self.expr(weights, &mut w)?;
                let d = self.dest(lhs, &mut w)?;
                let CDest::Cell { buf, idx } = d else {
                    // The interpreter panics on a range destination; the
                    // tape replicates that, so leave it there.
                    return Err("SampleLogits into a range destination is tape-only".into());
                };
                let a = self.augv_of(&wv);
                self.escaped.insert(buf);
                self.used_bufs.insert(buf);
                self.flush(&mut w);
                self.line(&format!("vt->sample_logits(c, {a}, {buf}, {idx});"));
            }
        }
        Ok(())
    }

    /// Emits the full C function for one procedure, with the number of
    /// log-table scratch cells it reads from `augctx::S`.
    fn proc(mut self, p: &RProc, idx: usize) -> Result<(String, usize), String> {
        written_bufs(&p.body, &mut self.written);
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
            let n = self.state.shape(b).num_cells();
            f.push_str(&format!("  double* restrict lt{b} = c->S + {off};\n"));
            f.push_str(&format!("  aug_log_table(lt{b}, b{b}, {n});\n"));
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
    /// `alpha`, observations `y`, and a scalar accumulator `acc`.
    struct Fixture {
        state: State,
        p: BufId,
        alpha: BufId,
        y: BufId,
        acc: BufId,
    }

    fn fixture() -> Fixture {
        let mut state = State::new();
        let p = state.insert("p", Shape::Vector(3));
        let alpha = state.insert("alpha", Shape::Vector(3));
        let y = state.insert("y", Shape::Vector(4));
        let acc = state.insert("acc", Shape::Num);
        Fixture { state, p, alpha, y, acc }
    }

    fn buf(id: BufId) -> RExpr {
        RExpr::Ref(RRef::Buf(id))
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
}
