//! Compilation of Low--/Blk IL into slot-resolved executable form.
//!
//! This step plays the role of the paper's Cuda/C emission + `nvcc`/`clang`
//! compile: names become buffer ids, loop variables become environment
//! slots, and the result is a compact tree the engine executes without any
//! name lookups. Blk-IL procedures (GPU target) go one step further: each
//! resolved block body is taped immediately, so the blk tapes are their
//! only executable form. A C-like rendering of the same program is
//! available from `augur_low::il::pretty_proc` for inspection.

use std::collections::{BTreeSet, HashMap};

use augur_blk::{Blk, BlkProc};
use augur_dist::DistKind;
use augur_lang::ast::{BinOp, Builtin};
use augur_low::il::{AssignOp, Cond, Expr, LValue, LoopKind, ProcDecl, Stmt};

use crate::state::{BufId, State};
use crate::tape::{TBlk, TBlkProc, Tape, TapeProc};

/// A resolved reference: a state buffer or an enclosing loop variable
/// (indexed by nesting depth from the outside).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RRef {
    /// A named buffer.
    Buf(BufId),
    /// A loop variable at the given depth.
    Loop(usize),
}

/// A slot-resolved expression.
#[derive(Debug, Clone, PartialEq)]
pub enum RExpr {
    /// A constant.
    Const(f64),
    /// A buffer or loop variable.
    Ref(RRef),
    /// Indexing.
    Index(Box<RExpr>, Box<RExpr>),
    /// Binary arithmetic.
    Binop(BinOp, Box<RExpr>, Box<RExpr>),
    /// Negation.
    Neg(Box<RExpr>),
    /// Builtin function.
    Call(Builtin, Vec<RExpr>),
    /// Log-density evaluation.
    DistLl {
        /// The distribution.
        dist: DistKind,
        /// Parameters.
        args: Vec<RExpr>,
        /// Point.
        point: Box<RExpr>,
    },
    /// Gradient with respect to parameter `i`.
    DistGradParam {
        /// The distribution.
        dist: DistKind,
        /// Parameter position.
        i: usize,
        /// Parameters.
        args: Vec<RExpr>,
        /// Point.
        point: Box<RExpr>,
    },
    /// Gradient with respect to the point.
    DistGradPoint {
        /// The distribution.
        dist: DistKind,
        /// Parameters.
        args: Vec<RExpr>,
        /// Point.
        point: Box<RExpr>,
    },
    /// Functional vector/matrix primitive.
    Op(augur_low::il::OpN, Vec<RExpr>),
    /// Vector length.
    Len(Box<RExpr>),
}

/// A resolved store destination.
#[derive(Debug, Clone, PartialEq)]
pub struct RLValue {
    /// Target buffer.
    pub buf: BufId,
    /// Index expressions.
    pub indices: Vec<RExpr>,
}

/// A resolved statement.
#[derive(Debug, Clone, PartialEq)]
pub enum RStmt {
    /// Sequence.
    Seq(Vec<RStmt>),
    /// Assignment / increment.
    Assign {
        /// Destination.
        lhs: RLValue,
        /// Set or increment.
        op: AssignOp,
        /// Value.
        rhs: RExpr,
    },
    /// Equality-guarded statement.
    IfEq {
        /// Left side.
        a: RExpr,
        /// Right side.
        b: RExpr,
        /// Then branch.
        then: Box<RStmt>,
        /// Else branch.
        els: Option<Box<RStmt>>,
    },
    /// Loop; the variable lives at the next environment depth.
    Loop {
        /// Annotation (kept for the cost model).
        kind: LoopKind,
        /// Lower bound.
        lo: RExpr,
        /// Upper bound.
        hi: RExpr,
        /// Body.
        body: Box<RStmt>,
    },
    /// Draw from a distribution into a destination.
    Sample {
        /// Destination.
        lhs: RLValue,
        /// Distribution.
        dist: DistKind,
        /// Parameters.
        args: Vec<RExpr>,
    },
    /// Draw a categorical index from log weights.
    SampleLogits {
        /// Destination.
        lhs: RLValue,
        /// Log-weight vector.
        weights: RExpr,
    },
}

/// A resolved procedure.
#[derive(Debug, Clone, PartialEq)]
pub struct RProc {
    /// Name (for logs).
    pub name: String,
    /// Body.
    pub body: RStmt,
    /// Optional scalar result.
    pub ret: Option<RExpr>,
}

/// Compilation context: the lexical stack of loop variables.
#[derive(Debug)]
pub struct Compiler<'a> {
    state: &'a State,
    loops: Vec<String>,
}

impl<'a> Compiler<'a> {
    /// Creates a compiler resolving against `state` (all buffers must be
    /// allocated already).
    pub fn new(state: &'a State) -> Self {
        Compiler { state, loops: Vec::new() }
    }

    /// Compiles a procedure.
    ///
    /// # Panics
    ///
    /// Panics on references to unallocated buffers — a compiler bug, since
    /// size inference plans every buffer up front.
    pub fn proc(&mut self, p: &ProcDecl) -> RProc {
        RProc {
            name: p.name.clone(),
            body: self.stmt(&p.body),
            ret: p.ret.as_ref().map(|e| self.expr(e)),
        }
    }

    /// Compiles a Blk-IL procedure (GPU target): every block body is
    /// slot-resolved and handed straight to the tape emitter, while
    /// host-side control (bounds, widths, the result) stays resolved
    /// expressions.
    pub fn blk_proc(&mut self, p: &BlkProc) -> TBlkProc {
        TBlkProc {
            name: p.name.clone(),
            blocks: p.blocks.iter().map(|b| self.blk(b)).collect(),
            ret: p.ret.as_ref().map(|e| self.expr(e)),
        }
    }

    fn blk(&mut self, b: &Blk) -> TBlk {
        match b {
            Blk::SeqBlk(s) => TBlk::Seq(Tape::of_stmt(&self.stmt(s), self.state)),
            Blk::ParBlk { kind, var, lo, hi, body, inner_par } => {
                let lo = self.expr(lo);
                let hi = self.expr(hi);
                let inner_par = inner_par.as_ref().map(|e| self.expr(e));
                self.loops.push(var.clone());
                let body = Tape::of_stmt(&self.stmt(body), self.state);
                self.loops.pop();
                TBlk::Par { kind: *kind, lo, hi, body, inner_par }
            }
            Blk::LoopBlk { var, lo, hi, body } => {
                let lo = self.expr(lo);
                let hi = self.expr(hi);
                self.loops.push(var.clone());
                let body = body.iter().map(|b| self.blk(b)).collect();
                self.loops.pop();
                TBlk::Loop { lo, hi, body }
            }
            Blk::SumBlk { acc, var, lo, hi, rhs } => {
                let acc = self.lvalue(acc);
                let lo = self.expr(lo);
                let hi = self.expr(hi);
                self.loops.push(var.clone());
                let rhs = Tape::of_expr(&self.expr(rhs), self.state);
                self.loops.pop();
                TBlk::Sum { acc, lo, hi, rhs }
            }
        }
    }

    fn stmt(&mut self, s: &Stmt) -> RStmt {
        match s {
            Stmt::Seq(stmts) => RStmt::Seq(stmts.iter().map(|t| self.stmt(t)).collect()),
            Stmt::Assign { lhs, op, rhs } => RStmt::Assign {
                lhs: self.lvalue(lhs),
                op: *op,
                rhs: self.expr(rhs),
            },
            Stmt::If { cond: Cond::Eq(a, b), then, els } => RStmt::IfEq {
                a: self.expr(a),
                b: self.expr(b),
                then: Box::new(self.stmt(then)),
                els: els.as_ref().map(|e| Box::new(self.stmt(e))),
            },
            Stmt::Loop { kind, var, lo, hi, body } => {
                let lo = self.expr(lo);
                let hi = self.expr(hi);
                self.loops.push(var.clone());
                let body = Box::new(self.stmt(body));
                self.loops.pop();
                RStmt::Loop { kind: *kind, lo, hi, body }
            }
            Stmt::Sample { lhs, dist, args } => RStmt::Sample {
                lhs: self.lvalue(lhs),
                dist: *dist,
                args: args.iter().map(|a| self.expr(a)).collect(),
            },
            Stmt::SampleLogits { lhs, weights } => RStmt::SampleLogits {
                lhs: self.lvalue(lhs),
                weights: self.expr(weights),
            },
        }
    }

    fn lvalue(&mut self, l: &LValue) -> RLValue {
        RLValue {
            buf: self.state.expect_id(&l.var),
            indices: l.indices.iter().map(|e| self.expr(e)).collect(),
        }
    }

    fn expr(&mut self, e: &Expr) -> RExpr {
        match e {
            Expr::Var(name) => {
                // Innermost loop shadowing: search from the top.
                if let Some(pos) = self.loops.iter().rposition(|v| v == name) {
                    RExpr::Ref(RRef::Loop(pos))
                } else {
                    RExpr::Ref(RRef::Buf(self.state.expect_id(name)))
                }
            }
            Expr::Int(v) => RExpr::Const(*v as f64),
            Expr::Real(v) => RExpr::Const(*v),
            Expr::Index(a, b) => {
                RExpr::Index(Box::new(self.expr(a)), Box::new(self.expr(b)))
            }
            Expr::Binop(op, a, b) => {
                RExpr::Binop(*op, Box::new(self.expr(a)), Box::new(self.expr(b)))
            }
            Expr::Neg(a) => RExpr::Neg(Box::new(self.expr(a))),
            Expr::Call(f, args) => {
                RExpr::Call(*f, args.iter().map(|a| self.expr(a)).collect())
            }
            Expr::DistLl { dist, args, point } => RExpr::DistLl {
                dist: *dist,
                args: args.iter().map(|a| self.expr(a)).collect(),
                point: Box::new(self.expr(point)),
            },
            Expr::DistGradParam { dist, i, args, point } => RExpr::DistGradParam {
                dist: *dist,
                i: *i,
                args: args.iter().map(|a| self.expr(a)).collect(),
                point: Box::new(self.expr(point)),
            },
            Expr::DistGradPoint { dist, args, point } => RExpr::DistGradPoint {
                dist: *dist,
                args: args.iter().map(|a| self.expr(a)).collect(),
                point: Box::new(self.expr(point)),
            },
            Expr::Op(op, args) => {
                RExpr::Op(*op, args.iter().map(|a| self.expr(a)).collect())
            }
            Expr::Len(a) => RExpr::Len(Box::new(self.expr(a))),
        }
    }
}

/// Named procedure registry built once per compiled model. Each
/// procedure is stored in resolved (tree) and tape-compiled form for
/// the CPU target, and as blk tapes for the GPU target; the engine picks
/// a representation from its target and
/// [`ExecBackend`](crate::tape::ExecBackend).
#[derive(Debug, Default)]
pub struct ProcTable {
    names: HashMap<String, usize>,
    /// CPU form of each procedure.
    pub procs: Vec<RProc>,
    /// Tape-compiled CPU form, same indices.
    pub tapes: Vec<TapeProc>,
    /// Tape-compiled GPU (Blk) form, same indices.
    pub blk_tapes: Vec<TBlkProc>,
    /// Buffers statically referenced by each procedure (sorted,
    /// deduplicated), same indices — the reachable-memory side of the
    /// profiler's watermark.
    pub buf_refs: Vec<Vec<BufId>>,
}

impl ProcTable {
    /// Registers a compiled procedure: its resolved CPU form (taped
    /// here) and its blk tapes from [`Compiler::blk_proc`]. The state
    /// supplies buffer shapes so the tape compiler can bank registers and
    /// fuse loads statically.
    pub fn insert(&mut self, cpu: RProc, gpu: TBlkProc, state: &State) {
        let idx = self.procs.len();
        self.names.insert(cpu.name.clone(), idx);
        self.tapes.push(TapeProc::compile(&cpu, state));
        self.blk_tapes.push(gpu);
        self.buf_refs.push(proc_buf_refs(&cpu));
        self.procs.push(cpu);
    }

    /// Index of a procedure by name.
    ///
    /// # Panics
    ///
    /// Panics if the procedure does not exist.
    pub fn index(&self, name: &str) -> usize {
        *self
            .names
            .get(name)
            .unwrap_or_else(|| panic!("no procedure named `{name}`"))
    }

    /// All registered procedure names, in insertion order.
    pub fn proc_names(&self) -> Vec<&str> {
        self.procs.iter().map(|p| p.name.as_str()).collect()
    }

    /// The name of the procedure at table index `idx` (fault-plan
    /// matching and diagnostics).
    pub fn proc_name(&self, idx: usize) -> &str {
        &self.procs[idx].name
    }
}

/// Every buffer a compiled procedure statically references (reads or
/// writes), sorted and deduplicated. Purely syntactic — a superset of
/// what any one run touches, and identical across strategies and thread
/// counts.
pub fn proc_buf_refs(p: &RProc) -> Vec<BufId> {
    let mut refs = BTreeSet::new();
    written_bufs(&p.body, &mut refs);
    let mut read = |e: &RExpr| {
        if let RExpr::Ref(RRef::Buf(id)) = e {
            refs.insert(*id);
        }
    };
    visit_stmt_exprs(&p.body, &mut read);
    if let Some(ret) = &p.ret {
        visit_expr(ret, &mut read);
    }
    refs.into_iter().collect()
}

/// Collects the buffers a statement writes: the destination of every
/// `Assign`, `Sample` and `SampleLogits`. Nothing else writes a buffer
/// (runtime callbacks included), so every other buffer is read-only for
/// the whole statement.
pub(crate) fn written_bufs(s: &RStmt, out: &mut BTreeSet<BufId>) {
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

/// Calls `f` on `e` and every subexpression of it.
pub(crate) fn visit_expr(e: &RExpr, f: &mut dyn FnMut(&RExpr)) {
    f(e);
    match e {
        RExpr::Const(_) | RExpr::Ref(_) => {}
        RExpr::Index(a, b) | RExpr::Binop(_, a, b) => {
            visit_expr(a, f);
            visit_expr(b, f);
        }
        RExpr::Neg(a) | RExpr::Len(a) => visit_expr(a, f),
        RExpr::Call(_, args) | RExpr::Op(_, args) => args.iter().for_each(|a| visit_expr(a, f)),
        RExpr::DistLl { args, point, .. }
        | RExpr::DistGradParam { args, point, .. }
        | RExpr::DistGradPoint { args, point, .. } => {
            args.iter().for_each(|a| visit_expr(a, f));
            visit_expr(point, f);
        }
    }
}

/// Calls `f` on every expression of `s` and of its nested statements
/// (subexpressions included).
pub(crate) fn visit_stmt_exprs(s: &RStmt, f: &mut dyn FnMut(&RExpr)) {
    let lv = |l: &RLValue, f: &mut dyn FnMut(&RExpr)| {
        l.indices.iter().for_each(|i| visit_expr(i, f))
    };
    match s {
        RStmt::Seq(stmts) => stmts.iter().for_each(|t| visit_stmt_exprs(t, f)),
        RStmt::Assign { lhs, rhs, .. } => {
            visit_expr(rhs, f);
            lv(lhs, f);
        }
        RStmt::IfEq { a, b, then, els } => {
            visit_expr(a, f);
            visit_expr(b, f);
            visit_stmt_exprs(then, f);
            if let Some(e) = els {
                visit_stmt_exprs(e, f);
            }
        }
        RStmt::Loop { lo, hi, body, .. } => {
            visit_expr(lo, f);
            visit_expr(hi, f);
            visit_stmt_exprs(body, f);
        }
        RStmt::Sample { lhs, args, .. } => {
            args.iter().for_each(|a| visit_expr(a, f));
            lv(lhs, f);
        }
        RStmt::SampleLogits { lhs, weights } => {
            visit_expr(weights, f);
            lv(lhs, f);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::Shape;

    #[test]
    fn resolves_buffers_and_loop_vars() {
        let mut st = State::new();
        let n = st.insert("N", Shape::Num);
        let acc = st.insert("acc", Shape::Num);
        let p = ProcDecl {
            name: "p".into(),
            body: Stmt::Loop {
                kind: LoopKind::Par,
                var: "i".into(),
                lo: Expr::Int(0),
                hi: Expr::var("N"),
                body: Box::new(Stmt::Assign {
                    lhs: LValue::name("acc"),
                    op: AssignOp::Inc,
                    rhs: Expr::var("i"),
                }),
            },
            ret: Some(Expr::var("acc")),
        };
        let r = Compiler::new(&st).proc(&p);
        match &r.body {
            RStmt::Loop { hi, body, .. } => {
                assert_eq!(*hi, RExpr::Ref(RRef::Buf(n)));
                match &**body {
                    RStmt::Assign { lhs, rhs, .. } => {
                        assert_eq!(lhs.buf, acc);
                        assert_eq!(*rhs, RExpr::Ref(RRef::Loop(0)));
                    }
                    other => panic!("unexpected {other:?}"),
                }
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn inner_loop_shadows_outer() {
        let mut st = State::new();
        st.insert("out", Shape::Vector(4));
        let p = ProcDecl {
            name: "p".into(),
            body: Stmt::Loop {
                kind: LoopKind::Seq,
                var: "i".into(),
                lo: Expr::Int(0),
                hi: Expr::Int(2),
                body: Box::new(Stmt::Loop {
                    kind: LoopKind::Seq,
                    var: "i".into(), // shadowing
                    lo: Expr::Int(0),
                    hi: Expr::Int(2),
                    body: Box::new(Stmt::Assign {
                        lhs: LValue { var: "out".into(), indices: vec![Expr::var("i")] },
                        op: AssignOp::Set,
                        rhs: Expr::Real(1.0),
                    }),
                }),
            },
            ret: None,
        };
        let r = Compiler::new(&st).proc(&p);
        // the innermost i resolves to depth 1
        let RStmt::Loop { body, .. } = &r.body else { panic!() };
        let RStmt::Loop { body, .. } = &**body else { panic!() };
        let RStmt::Assign { lhs, .. } = &**body else { panic!() };
        assert_eq!(lhs.indices[0], RExpr::Ref(RRef::Loop(1)));
    }

    #[test]
    #[should_panic(expected = "no buffer named")]
    fn unknown_buffer_panics() {
        let st = State::new();
        let p = ProcDecl {
            name: "p".into(),
            body: Stmt::Assign {
                lhs: LValue::name("ghost"),
                op: AssignOp::Set,
                rhs: Expr::Real(0.0),
            },
            ret: None,
        };
        Compiler::new(&st).proc(&p);
    }
}
