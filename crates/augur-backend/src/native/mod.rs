//! The native execution backend: emitted C, compiled with the host
//! toolchain and `dlopen`ed, dispatching sweeps through a stable
//! extern-C ABI.
//!
//! Layout:
//!
//! * [`emit`] — compiles each procedure's slot-resolved tree into a C
//!   function (inlined arithmetic, loops, indexing and hot scalar
//!   densities; callbacks into Rust for everything stochastic or
//!   matrix-shaped);
//! * [`jit`] — toolchain discovery, compilation, the fingerprint-keyed
//!   on-disk artifact cache, and `dlopen`;
//! * this module — the ABI types ([`AugV`], `AugCtx`, the callback
//!   vtable), the runtime callbacks (each a thin wrapper over the same
//!   engine method the tree-walker uses, so semantics and work
//!   accounting agree by construction), [`NativeModule`], and the
//!   engine-owned [`Scratch`].
//!
//! ABI (version [`CODEGEN_VERSION`]): a procedure receives an `augctx`
//! holding the buffer pointer table `B`, the callback vtable, the engine,
//! the work counter `W`, and `S`, the log-table scratch its read-only
//! Categorical weights are tabulated into (see [`emit`]). Both `B` and
//! `S` live in the engine's [`Scratch`], sized once when the session
//! binds the module, so a native call allocates nothing.
//!
//! Native procedures run on the calling thread, like every other lane.
//! `Par` loops rotate the per-iteration RNG streams via the
//! `par_enter`/`par_iter`/`par_exit` callbacks, thin wrappers over the
//! engine methods of the same names that every interpreter calls, so
//! native draws match the tape's exactly. `SampleLogits` draws in C
//! (`aug_cat_logits`, a copy of `Prng::categorical_log`) and takes its
//! one uniform variate from the `uniform` callback, which reads the
//! engine's current stream just as the interpreters' draw does. It
//! needs its weights as a slice of a buffer: a `SampleLogits` over
//! engine-owned weights (a vector op's result) is tape-only, and the
//! emitter leaves its whole procedure to the tape. Finite-sum Gibbs
//! always draws from a weight buffer, so no lowered model has this shape.
//!
//! Panic behavior: bounds violations call the C-side `aug_trap`, a
//! `noreturn`, cold wrapper over the `trap` callback, which raises the
//! interpreter's exact panic message and never returns. Trap codes 0–9
//! are the interpreters' index and length assertions; codes 10 and 11
//! (`CAT_ZERO`, `CAT_SUM`) are `categorical_log`'s "all weights are
//! zero" and "positive finite sum" assertions, raised by
//! `aug_cat_logits` with the same messages; the artifact is
//! compiled with `-fexceptions` so the unwind crosses the C frames back
//! to the driver's `catch_unwind`. Work units accumulated C-side in the
//! aborted procedure are lost, and RNG draws that the interpreter would
//! have made before a store-bounds panic may not have happened — both
//! only observable on sweeps that are already being poisoned.

pub(crate) mod emit;
pub(crate) mod jit;

use std::ffi::c_void;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use augur_dist::{SimpleTy, ValueMut, ALL_KINDS};
use augur_low::il::{AssignOp, LoopKind};
use augur_math::PoolVec;

use crate::compile::ProcTable;
use crate::eval::{dist_op_cost, sample_cost, slice_of, value_ref_of, Dest, Engine, View};
use crate::state::State;

pub use emit::CODEGEN_VERSION;

/// The ABI value type: a tagged view. Mirrors the C `augv` typedef.
///
/// Tags: 0 scalar (`x`), 1 buffer slice (`buf`, `a`=start, `b`=len),
/// 2 buffer matrix (`a`=start, `b`=dim), 3 whole `Rows` buffer,
/// 4 owned vector (`a`=handle into the engine's slot stack, `b`=len),
/// 5 owned matrix (`a`=handle, `b`=dim).
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub struct AugV {
    tag: i32,
    buf: i32,
    a: i64,
    b: i64,
    x: f64,
}

impl AugV {
    fn num(x: f64) -> AugV {
        AugV { tag: 0, buf: 0, a: 0, b: 0, x }
    }
}

/// The per-call context handed to a native procedure. Mirrors the C
/// `augctx` struct.
#[repr(C)]
pub struct AugCtx {
    bufs: *mut *mut f64,
    vt: *const VTable,
    eng: *mut c_void,
    w: u64,
    scratch: *mut f64,
}

/// A native procedure entry point.
type ProcFn = unsafe extern "C-unwind" fn(*mut AugCtx);

/// The callback vtable; field order is the ABI and must match the C
/// `augvt` typedef in the emitted preamble exactly.
#[repr(C)]
struct VTable {
    dist_ll: unsafe extern "C-unwind" fn(*mut AugCtx, i32, i32, *const AugV, AugV) -> f64,
    dist_grad: unsafe extern "C-unwind" fn(*mut AugCtx, i32, i32, i32, *const AugV, AugV) -> AugV,
    op: unsafe extern "C-unwind" fn(*mut AugCtx, i32, i32, AugV, AugV) -> AugV,
    dot: unsafe extern "C-unwind" fn(*mut AugCtx, AugV, AugV) -> f64,
    own_get: unsafe extern "C-unwind" fn(*mut AugCtx, AugV, i64) -> f64,
    own_row: unsafe extern "C-unwind" fn(*mut AugCtx, AugV, i64) -> AugV,
    write: unsafe extern "C-unwind" fn(*mut AugCtx, i32, i64, i64, i32, AugV),
    sample: unsafe extern "C-unwind" fn(*mut AugCtx, i32, i32, *const AugV, i32, i32, i64, i64),
    uniform: unsafe extern "C-unwind" fn(*mut AugCtx) -> f64,
    par_enter: unsafe extern "C-unwind" fn(*mut AugCtx) -> u64,
    par_iter: unsafe extern "C-unwind" fn(*mut AugCtx, u64, i64),
    par_exit: unsafe extern "C-unwind" fn(*mut AugCtx),
    trap: unsafe extern "C-unwind" fn(*mut AugCtx, i32, f64, f64) -> !,
}

static VTABLE: VTable = VTable {
    dist_ll: rt_dist_ll,
    dist_grad: rt_dist_grad,
    op: rt_op,
    dot: rt_dot,
    own_get: rt_own_get,
    own_row: rt_own_row,
    write: rt_write,
    sample: rt_sample,
    uniform: rt_uniform,
    par_enter: rt_par_enter,
    par_iter: rt_par_iter,
    par_exit: rt_par_exit,
    trap: rt_trap,
};

/// A compiled-and-loaded native artifact for one plan.
pub struct NativeModule {
    // Field order matters: `procs` holds pointers into the library's
    // mapping, so the library must drop last (fields drop in declaration
    // order — keep `_lib` below `procs`).
    procs: Vec<Option<ProcFn>>,
    _lib: jit::Library,
    source: String,
    skipped: Vec<(String, String)>,
    compile_secs: f64,
    artifact_path: PathBuf,
    disk_hit: bool,
    /// Log-table cells the hungriest procedure needs (procedures run one
    /// at a time, so they share one scratch).
    scratch_cells: usize,
}

impl std::fmt::Debug for NativeModule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NativeModule")
            .field("covered", &self.procs.iter().filter(|p| p.is_some()).count())
            .field("procs", &self.procs.len())
            .field("artifact_path", &self.artifact_path)
            .field("disk_hit", &self.disk_hit)
            .finish_non_exhaustive()
    }
}

impl NativeModule {
    /// Whether the module has a native entry point for procedure `idx`.
    pub fn covers(&self, idx: usize) -> bool {
        self.procs.get(idx).map(|p| p.is_some()).unwrap_or(false)
    }

    /// Number of procedures with native entry points.
    pub fn covered(&self) -> usize {
        self.procs.iter().filter(|p| p.is_some()).count()
    }

    /// The emitted C source of the module.
    pub fn source(&self) -> &str {
        &self.source
    }

    /// `(procedure name, reason)` for each procedure left on the tape.
    pub fn skipped(&self) -> &[(String, String)] {
        &self.skipped
    }

    /// Wall-clock seconds spent in the C compiler (0 on a disk cache hit).
    pub fn compile_secs(&self) -> f64 {
        self.compile_secs
    }

    /// Path of the cached shared object.
    pub fn artifact_path(&self) -> &Path {
        &self.artifact_path
    }

    /// Whether the shared object was reused from the on-disk cache.
    pub fn disk_hit(&self) -> bool {
        self.disk_hit
    }

    /// Number of `f64` log-table cells a [`Scratch`] must hold to run
    /// any procedure of this module.
    pub fn scratch_cells(&self) -> usize {
        self.scratch_cells
    }
}

/// Engine-owned memory a native call hands to C: the buffer pointer
/// table (`augctx::B`) and the log-table scratch (`augctx::S`). Sized
/// once per session, so steady-state native calls allocate nothing.
#[derive(Debug, Default)]
pub(crate) struct Scratch {
    bufs: Vec<*mut f64>,
    tables: Vec<f64>,
}

// The pointers are rewritten from the engine's own state at the start of
// every native call and never dereferenced outside it, so moving the
// engine (and this scratch) to another thread between calls is sound.
unsafe impl Send for Scratch {}

impl Scratch {
    /// Scratch for running `module` over a state of `num_buffers`
    /// buffers.
    pub(crate) fn new(num_buffers: usize, module: &NativeModule) -> Scratch {
        Scratch {
            bufs: Vec::with_capacity(num_buffers),
            tables: vec![0.0; module.scratch_cells()],
        }
    }
}

/// Emits, compiles, and loads the native module for a specialized plan.
///
/// Fails (with a human-readable reason recorded by the session as its
/// fallback cause) when the crate was built without the `native`
/// feature, no C toolchain is available, compilation fails, or the
/// emitter covers no procedure of the table.
pub(crate) fn build_native(
    table: &ProcTable,
    state: &State,
    fingerprint: u64,
) -> Result<NativeModule, String> {
    if !cfg!(feature = "native") {
        return Err("built without the `native` feature".into());
    }
    let emitted = emit::emit_module(table, state);
    if emitted.covered() == 0 {
        return Err("no procedures supported by the native emitter".into());
    }
    let artifact = jit::compile(fingerprint, &emitted.source)?;
    let lib = jit::Library::open(&artifact.path)?;
    let sym = lib.symbol("aug_procs")?;
    let n = table.procs.len();
    // Safety: the emitter exports `aug_procs` as an array of `n`
    // function pointers (0 for uncovered slots); `Option<ProcFn>` is
    // null-pointer-optimized, so the reinterpretation is exact.
    let procs: Vec<Option<ProcFn>> =
        unsafe { std::slice::from_raw_parts(sym as *const Option<ProcFn>, n) }.to_vec();
    let scratch_cells = emitted.table_cells.iter().copied().max().unwrap_or(0);
    Ok(NativeModule {
        procs,
        _lib: lib,
        source: emitted.source,
        skipped: emitted.skipped,
        compile_secs: artifact.compile_secs,
        artifact_path: artifact.path,
        disk_hit: artifact.disk_hit,
        scratch_cells,
    })
}

/// Runs one covered procedure through its native entry point.
///
/// The caller has verified `module.covers(idx)` and sized
/// `eng.native_scratch` for `module` with [`Scratch::new`].
pub(crate) fn run_native_proc(eng: &mut Engine, module: &Arc<NativeModule>, idx: usize) {
    let f = module.procs[idx].expect("caller checked covers()");
    let (bufs, tables) = {
        let Engine { state, native_scratch: scratch, .. } = &mut *eng;
        assert!(scratch.tables.len() >= module.scratch_cells, "native scratch not sized for module");
        // Unshare every buffer up front: after this, callback `flat_mut`
        // calls find uniquely-owned storage and never reallocate, so the
        // pointer table stays valid for the whole call. The table keeps
        // its capacity across calls, so refilling it does not allocate.
        scratch.bufs.clear();
        scratch.bufs.extend((0..state.num_buffers()).map(|id| state.flat_mut(id).as_mut_ptr()));
        (scratch.bufs.as_mut_ptr(), scratch.tables.as_mut_ptr())
    };
    eng.native_own.clear();
    let mut ctx = AugCtx {
        bufs,
        vt: &VTABLE,
        eng: eng as *mut Engine as *mut c_void,
        w: 0,
        scratch: tables,
    };
    // Safety: the context outlives the call; the engine pointer is valid
    // for its duration and only dereferenced from callbacks on this
    // thread. A panic raised in a callback unwinds through the
    // `-fexceptions` C frames ("C-unwind" on both sides).
    unsafe { f(&mut ctx) };
    eng.work += ctx.w;
    eng.native_own.clear();
}

// ---------------------------------------------------------------------
// Runtime callbacks. Each reconstructs engine-level values from ABI
// views and then runs the *same* code path as the tree-walker.
// ---------------------------------------------------------------------

/// Reborrows the engine from a context pointer.
///
/// # Safety
/// Only called from callbacks invoked by `run_native_proc`, which holds
/// the unique `&mut Engine` for the duration of the call and never
/// touches it concurrently.
unsafe fn eng_of<'a>(c: *mut AugCtx) -> &'a mut Engine {
    &mut *((*c).eng as *mut Engine)
}

fn view_of(eng: &Engine, v: AugV) -> View {
    match v.tag {
        0 => View::Num(v.x),
        1 => View::Slice { buf: v.buf as usize, start: v.a as usize, len: v.b as usize },
        2 => View::MatV { buf: v.buf as usize, start: v.a as usize, dim: v.b as usize },
        3 => View::Rows { buf: v.buf as usize },
        4 | 5 => eng.native_own[v.a as usize].clone(),
        other => panic!("invalid native view tag {other}"),
    }
}

fn push_own(eng: &mut Engine, view: View) -> AugV {
    let (tag, b) = match &view {
        View::Num(x) => return AugV::num(*x),
        View::Own(o) => (4, o.len() as i64),
        View::OwnMat(_, d) => (5, *d as i64),
        other => unreachable!("callbacks only produce owned views, got {other:?}"),
    };
    let handle = eng.native_own.len() as i64;
    eng.native_own.push(view);
    AugV { tag, buf: 0, a: handle, b, x: 0.0 }
}

unsafe extern "C-unwind" fn rt_dist_ll(
    c: *mut AugCtx,
    dist: i32,
    argc: i32,
    args: *const AugV,
    point: AugV,
) -> f64 {
    let eng = eng_of(c);
    let dist = ALL_KINDS[dist as usize];
    let n = argc as usize;
    let raw = std::slice::from_raw_parts(args, 2);
    let avs = [view_of(eng, raw[0]), view_of(eng, raw[1])];
    let pv = view_of(eng, point);
    eng.work += dist_op_cost(dist, eng.view_len(&pv));
    let refs = [value_ref_of(&eng.state, &avs[0]), value_ref_of(&eng.state, &avs[1])];
    let pref = value_ref_of(&eng.state, &pv);
    dist.log_pdf(&refs[..n], pref).expect("ll evaluation failed")
}

unsafe extern "C-unwind" fn rt_dist_grad(
    c: *mut AugCtx,
    dist: i32,
    which: i32,
    argc: i32,
    args: *const AugV,
    point: AugV,
) -> AugV {
    let eng = eng_of(c);
    let dist = ALL_KINDS[dist as usize];
    let n = argc as usize;
    let raw = std::slice::from_raw_parts(args, 2);
    let avs = [view_of(eng, raw[0]), view_of(eng, raw[1])];
    let pv = view_of(eng, point);
    eng.work += dist_op_cost(dist, eng.view_len(&pv));
    let i = if which < 0 { None } else { Some(which as usize) };
    let out_len = match i {
        Some(pos) => match dist.param_tys()[pos] {
            SimpleTy::Vec => eng.view_len(&avs[pos]),
            _ => 0,
        },
        None => match dist.point_ty() {
            SimpleTy::Vec => eng.view_len(&pv),
            _ => 0,
        },
    };
    let out_view = {
        let refs_buf = [value_ref_of(&eng.state, &avs[0]), value_ref_of(&eng.state, &avs[1])];
        let refs = &refs_buf[..n];
        let pref = value_ref_of(&eng.state, &pv);
        if out_len == 0 {
            let mut out = 0.0;
            match i {
                Some(pos) => dist
                    .grad_param(pos, refs, pref, ValueMut::Scalar(&mut out))
                    .expect("grad_param failed"),
                None => dist
                    .grad_point(refs, pref, ValueMut::Scalar(&mut out))
                    .expect("grad_point failed"),
            }
            View::Num(out)
        } else {
            eng.work += out_len as u64;
            let mut out = PoolVec::zeroed(out_len);
            match i {
                Some(pos) => dist
                    .grad_param(pos, refs, pref, ValueMut::Vector(&mut out))
                    .expect("grad_param failed"),
                None => dist
                    .grad_point(refs, pref, ValueMut::Vector(&mut out))
                    .expect("grad_point failed"),
            }
            View::Own(out)
        }
    };
    push_own(eng, out_view)
}

unsafe extern "C-unwind" fn rt_op(c: *mut AugCtx, op: i32, argc: i32, a: AugV, b: AugV) -> AugV {
    let eng = eng_of(c);
    let av = view_of(eng, a);
    let bv = if argc > 1 { view_of(eng, b) } else { View::Num(0.0) };
    let out = eng.op_views(emit::op_from_code(op), av, bv);
    push_own(eng, out)
}

unsafe extern "C-unwind" fn rt_dot(c: *mut AugCtx, a: AugV, b: AugV) -> f64 {
    let eng = eng_of(c);
    let av = view_of(eng, a);
    let bv = view_of(eng, b);
    let sa = slice_of(&eng.state, &av);
    let sb = slice_of(&eng.state, &bv);
    eng.work += sa.len() as u64;
    augur_math::vecops::dot(sa, sb)
}

unsafe extern "C-unwind" fn rt_own_get(c: *mut AugCtx, v: AugV, i: i64) -> f64 {
    let eng = eng_of(c);
    match &eng.native_own[v.a as usize] {
        View::Own(o) => o[i as usize],
        other => panic!("own_get on non-vector view {other:?}"),
    }
}

unsafe extern "C-unwind" fn rt_own_row(c: *mut AugCtx, v: AugV, i: i64) -> AugV {
    let eng = eng_of(c);
    let row = match &eng.native_own[v.a as usize] {
        View::OwnMat(m, dim) => {
            let i = i as usize;
            PoolVec::from_slice(&m[i * dim..(i + 1) * dim])
        }
        other => panic!("own_row on non-matrix view {other:?}"),
    };
    push_own(eng, View::Own(row))
}

unsafe extern "C-unwind" fn rt_write(
    c: *mut AugCtx,
    buf: i32,
    start: i64,
    len: i64,
    op: i32,
    val: AugV,
) {
    let eng = eng_of(c);
    let v = view_of(eng, val);
    let owned = eng.own_val(v);
    let op = if op == 0 { AssignOp::Set } else { AssignOp::Inc };
    let dest = Dest::Range { buf: buf as usize, start: start as usize, len: len as usize };
    eng.write_dest(dest, op, owned, false);
}

#[allow(clippy::too_many_arguments)]
unsafe extern "C-unwind" fn rt_sample(
    c: *mut AugCtx,
    dist: i32,
    argc: i32,
    args: *const AugV,
    buf: i32,
    is_cell: i32,
    a: i64,
    b: i64,
) {
    let eng = eng_of(c);
    let dist = ALL_KINDS[dist as usize];
    let n = argc as usize;
    let raw = std::slice::from_raw_parts(args, 2);
    let owned = [
        eng.own_arg(view_of(eng, raw[0])),
        eng.own_arg(view_of(eng, raw[1])),
    ];
    eng.work += sample_cost(dist, &owned[..n]);
    let refs_buf = [owned[0].as_ref(), owned[1].as_ref()];
    let refs = &refs_buf[..n];
    let buf = buf as usize;
    if is_cell == 1 {
        let mut out = 0.0;
        dist.sample(refs, &mut eng.rng, ValueMut::Scalar(&mut out)).expect("sampling failed");
        eng.state.flat_mut(buf)[a as usize] = out;
    } else {
        let (start, len) = (a as usize, b as usize);
        let Engine { state, rng, .. } = eng;
        let slice = &mut state.flat_mut(buf)[start..start + len];
        let out = match dist.point_ty() {
            SimpleTy::Mat => {
                let dim = (len as f64).sqrt() as usize;
                ValueMut::Matrix { data: slice, dim }
            }
            _ => ValueMut::Vector(slice),
        };
        dist.sample(refs, rng, out).expect("sampling failed");
    }
}

unsafe extern "C-unwind" fn rt_uniform(c: *mut AugCtx) -> f64 {
    eng_of(c).rng.uniform()
}

unsafe extern "C-unwind" fn rt_par_enter(c: *mut AugCtx) -> u64 {
    eng_of(c)
        .par_enter(LoopKind::Par)
        .expect("emitted C opens parallel regions only outside one")
}

unsafe extern "C-unwind" fn rt_par_iter(c: *mut AugCtx, launch: u64, t: i64) {
    eng_of(c).par_iter(Some(launch), t);
}

unsafe extern "C-unwind" fn rt_par_exit(c: *mut AugCtx) {
    eng_of(c).par_exit(true);
}

unsafe extern "C-unwind" fn rt_trap(c: *mut AugCtx, code: i32, a: f64, b: f64) -> ! {
    let _ = c;
    match code {
        emit::trap::NEG_INDEX => panic!("negative index {a}"),
        emit::trap::OOB_SLICE => {
            panic!("index {} out of bounds for slice of {}", a as u64, b as u64)
        }
        emit::trap::OOB_MAT_ROW => {
            panic!("row {} out of bounds for {}x{} matrix", a as u64, b as u64, b as u64)
        }
        emit::trap::OOB_OWN => panic!("index {} out of bounds", a as u64),
        emit::trap::OOB_OWN_ROW => panic!("row {} out of bounds", a as u64),
        emit::trap::ROW_RANGE => panic!("row {} out of range", a as u64),
        emit::trap::NEG_STORE => panic!("negative store index"),
        emit::trap::STORE_OOB => {
            panic!("store index {} out of bounds for {}", a as u64, b as u64)
        }
        emit::trap::DOT_LEN => {
            assert_eq!(a as u64, b as u64, "dot length mismatch");
            unreachable!("trap raised without a length mismatch")
        }
        emit::trap::STORE_LEN => {
            assert_eq!(a as u64, b as u64, "store length mismatch");
            unreachable!("trap raised without a length mismatch")
        }
        // `Prng::categorical_log`'s two assertions, raised by the
        // emitted `aug_cat_logits`.
        emit::trap::CAT_ZERO => panic!("categorical_log: all weights are zero"),
        emit::trap::CAT_SUM => {
            panic!("categorical weights must be non-empty with positive finite sum")
        }
        other => panic!("native trap with unknown code {other}"),
    }
}
