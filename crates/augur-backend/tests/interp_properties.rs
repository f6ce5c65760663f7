//! Property tests for the slot-resolving compiler and its executors:
//! randomly generated arithmetic over buffers, run in a `Par` loop, must
//! evaluate to the same values as a direct reference evaluator on every
//! lane — the CPU tree-walker, the CPU tape and the GPU blk tapes — and
//! the lanes must agree bit for bit.
//!
//! Cases come from the in-tree [`Prng`] with a fixed seed, so every run
//! checks the same few hundred programs.

use augur_backend::compile::{Compiler, ProcTable};
use augur_backend::eval::{Engine, ExecMode};
use augur_backend::state::{Shape, State};
use augur_backend::ExecBackend;
use augur_dist::Prng;
use augur_lang::ast::BinOp;
use augur_low::il::{AssignOp, Expr, LValue, LoopKind, ProcDecl, Stmt};
use gpu_sim::{Device, DeviceConfig};

const CASES: usize = 300;

/// A tiny expression AST the generator controls, interpretable directly.
#[derive(Debug, Clone)]
enum RefExpr {
    Const(f64),
    /// `input[i]`.
    Cell(usize),
    /// The enclosing loop's index.
    LoopVar,
    Bin(BinOp, Box<RefExpr>, Box<RefExpr>),
    Neg(Box<RefExpr>),
}

impl RefExpr {
    /// A random expression of nesting depth at most `depth` over an
    /// input vector of `input_len` cells. Division is left out so the
    /// reference tolerance is not dominated by near-zero denominators.
    fn arbitrary(rng: &mut Prng, depth: usize, input_len: usize) -> RefExpr {
        if depth == 0 || rng.uniform() < 0.3 {
            return match rng.below(3) {
                0 => RefExpr::Const(rng.uniform_range(-4.0, 4.0)),
                1 => RefExpr::Cell(rng.below(input_len)),
                _ => RefExpr::LoopVar,
            };
        }
        if rng.uniform() < 0.2 {
            return RefExpr::Neg(Box::new(RefExpr::arbitrary(rng, depth - 1, input_len)));
        }
        let op = [BinOp::Add, BinOp::Sub, BinOp::Mul][rng.below(3)];
        let a = RefExpr::arbitrary(rng, depth - 1, input_len);
        let b = RefExpr::arbitrary(rng, depth - 1, input_len);
        RefExpr::Bin(op, Box::new(a), Box::new(b))
    }

    fn to_il(&self) -> Expr {
        match self {
            RefExpr::Const(c) => Expr::Real(*c),
            RefExpr::Cell(i) => Expr::index(Expr::var("input"), Expr::Int(*i as i64)),
            RefExpr::LoopVar => Expr::var("i"),
            RefExpr::Bin(op, a, b) => {
                Expr::Binop(*op, Box::new(a.to_il()), Box::new(b.to_il()))
            }
            RefExpr::Neg(a) => Expr::Neg(Box::new(a.to_il())),
        }
    }

    fn eval(&self, input: &[f64], loop_var: f64) -> f64 {
        match self {
            RefExpr::Const(c) => *c,
            RefExpr::Cell(i) => input[*i],
            RefExpr::LoopVar => loop_var,
            RefExpr::Bin(op, a, b) => {
                let (x, y) = (a.eval(input, loop_var), b.eval(input, loop_var));
                match op {
                    BinOp::Add => x + y,
                    BinOp::Sub => x - y,
                    BinOp::Mul => x * y,
                    BinOp::Div => x / y,
                }
            }
            RefExpr::Neg(a) => -a.eval(input, loop_var),
        }
    }
}

/// The three execution lanes of a compiled procedure.
const LANES: [(&str, ExecMode, ExecBackend); 3] = [
    ("cpu/tree", ExecMode::Cpu, ExecBackend::Tree),
    ("cpu/tape", ExecMode::Cpu, ExecBackend::Tape),
    ("gpu", ExecMode::Gpu, ExecBackend::Tape),
];

/// Compiles `p` against `st` and runs it once on one lane, returning the
/// engine (for its state) and the procedure's result.
fn run_on(st: &State, p: &ProcDecl, mode: ExecMode, backend: ExecBackend) -> (Engine, Option<f64>) {
    let mut table = ProcTable::default();
    let blk = augur_blk::to_blocks(p);
    table.insert(Compiler::new(st).proc(p), Compiler::new(st).blk_proc(&blk), st);
    let device = match mode {
        ExecMode::Cpu => Device::new(DeviceConfig::host_cpu_like()),
        ExecMode::Gpu => Device::new(DeviceConfig::titan_black_like()),
    };
    let mut eng = Engine::new(st.clone(), Prng::seed_from_u64(0), device, mode);
    eng.backend = backend;
    let ret = eng.run_proc(&table, 0);
    (eng, ret)
}

#[test]
fn compiled_eval_matches_reference_on_every_lane() {
    let mut rng = Prng::seed_from_u64(0x1e7e);
    for case in 0..CASES {
        let input: Vec<f64> =
            (0..4 + rng.below(4)).map(|_| rng.uniform_range(-3.0, 3.0)).collect();
        let e = RefExpr::arbitrary(&mut rng, 3, 4);
        let n = 1 + rng.below(5);

        let mut st = State::new();
        let iid = st.insert("input", Shape::Vector(input.len()));
        st.flat_mut(iid).copy_from_slice(&input);
        st.insert("out", Shape::Vector(n));
        let p = ProcDecl {
            name: "p".into(),
            body: Stmt::Loop {
                kind: LoopKind::Par,
                var: "i".into(),
                lo: Expr::Int(0),
                hi: Expr::Int(n as i64),
                body: Box::new(Stmt::Assign {
                    lhs: LValue { var: "out".into(), indices: vec![Expr::var("i")] },
                    op: AssignOp::Set,
                    rhs: e.to_il(),
                }),
            },
            ret: None,
        };

        let expected: Vec<f64> = (0..n).map(|i| e.eval(&input, i as f64)).collect();
        let outs: Vec<Vec<f64>> = LANES
            .iter()
            .map(|&(_, mode, backend)| run_on(&st, &p, mode, backend).0.flat_of("out").to_vec())
            .collect();
        for (&(lane, ..), out) in LANES.iter().zip(&outs) {
            for i in 0..n {
                assert!(
                    (out[i] - expected[i]).abs() < 1e-12,
                    "case {case} ({e:?}): {lane}[{i}] = {} vs reference {}",
                    out[i],
                    expected[i]
                );
                assert_eq!(
                    out[i].to_bits(),
                    outs[0][i].to_bits(),
                    "case {case} ({e:?}): {lane} diverges from cpu/tree at {i}"
                );
            }
        }
    }
}

/// Atomic accumulation order: summing via `AtmPar` must equal the
/// sequential sum exactly for integer-valued work (no rounding play),
/// on every lane.
#[test]
fn atomic_accumulation_is_exact_for_integers() {
    let mut rng = Prng::seed_from_u64(0xa7a7);
    for case in 0..CASES {
        let values: Vec<i64> = (0..1 + rng.below(39)).map(|_| rng.below(200) as i64 - 100).collect();
        let mut st = State::new();
        let vid = st.insert("vals", Shape::Vector(values.len()));
        let as_f: Vec<f64> = values.iter().map(|&v| v as f64).collect();
        st.flat_mut(vid).copy_from_slice(&as_f);
        st.insert("acc", Shape::Num);
        let p = ProcDecl {
            name: "sum".into(),
            body: Stmt::Seq(vec![
                Stmt::Assign { lhs: LValue::name("acc"), op: AssignOp::Set, rhs: Expr::Real(0.0) },
                Stmt::Loop {
                    kind: LoopKind::AtmPar,
                    var: "i".into(),
                    lo: Expr::Int(0),
                    hi: Expr::Int(values.len() as i64),
                    body: Box::new(Stmt::Assign {
                        lhs: LValue::name("acc"),
                        op: AssignOp::Inc,
                        rhs: Expr::index(Expr::var("vals"), Expr::var("i")),
                    }),
                },
            ]),
            ret: Some(Expr::var("acc")),
        };
        let expect: i64 = values.iter().sum();
        for (lane, mode, backend) in LANES {
            let total = run_on(&st, &p, mode, backend).1.expect("sum returns acc");
            assert_eq!(total as i64, expect, "case {case}: {lane} sum of {values:?}");
        }
    }
}
