//! Thread-local buffer pool backing allocation-free steady-state sweeps.
//!
//! The runtime's hot loops (tape interpretation, Gibbs conditionals,
//! gradient walks) need short-lived `f64` scratch buffers whose sizes are
//! fixed after the first sweep — exactly the situation the paper's §5.2
//! "allocate everything before the first sweep" discipline targets. A
//! [`PoolVec`] is a `Vec<f64>` that, on drop, parks its storage in a
//! thread-local free list keyed by capacity; the next request for the
//! same capacity reuses it. After a warmup sweep has populated the free
//! lists, steady-state sweeps perform zero heap allocation (verified by
//! the counting-allocator test in `tests/alloc_free.rs`).
//!
//! Design notes:
//! * Pools are **thread-local** — no locks, and worker threads that
//!   persist across sweeps (the serving layer's shards) warm up
//!   independently.
//! * Buffers are keyed by **capacity**, so a request only hits the heap
//!   when a capacity is seen for the first time on a thread.
//! * [`PoolVec`] derefs to `Vec<f64>`, so it drops into existing code
//!   that expects `&[f64]` / `&mut Vec<f64>` without churn; `into_vec`
//!   is the escape hatch when a real `Vec` must leave the pool.

use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::ops::{Deref, DerefMut};

thread_local! {
    static POOL: RefCell<HashMap<usize, Vec<Vec<f64>>>> = RefCell::new(HashMap::new());
}

/// Max buffers retained per capacity class (bounds worst-case retention).
const MAX_PER_CLASS: usize = 64;

fn take(cap: usize) -> Vec<f64> {
    POOL.try_with(|p| p.borrow_mut().get_mut(&cap).and_then(Vec::pop))
        .ok()
        .flatten()
        .unwrap_or_else(|| Vec::with_capacity(cap))
}

fn give(buf: Vec<f64>) {
    if buf.capacity() == 0 {
        return;
    }
    let _ = POOL.try_with(|p| {
        let mut p = p.borrow_mut();
        let class = p.entry(buf.capacity()).or_default();
        if class.len() < MAX_PER_CLASS {
            class.push(buf);
        }
    });
}

/// A pooled `f64` buffer: behaves like a `Vec<f64>`, but returns its
/// storage to a thread-local free list on drop instead of freeing it.
#[derive(Default)]
pub struct PoolVec {
    buf: Vec<f64>,
}

impl PoolVec {
    /// An empty pooled buffer with at least `cap` capacity.
    pub fn with_capacity(cap: usize) -> Self {
        let mut buf = take(cap);
        buf.clear();
        PoolVec { buf }
    }

    /// A pooled buffer of `n` zeros.
    pub fn zeroed(n: usize) -> Self {
        let mut v = Self::with_capacity(n);
        v.buf.resize(n, 0.0);
        v
    }

    /// A pooled copy of `s`.
    pub fn from_slice(s: &[f64]) -> Self {
        let mut v = Self::with_capacity(s.len());
        v.buf.extend_from_slice(s);
        v
    }

    /// A pooled buffer where element `i` is `f(i)`.
    pub fn from_fn(n: usize, mut f: impl FnMut(usize) -> f64) -> Self {
        let mut v = Self::with_capacity(n);
        for i in 0..n {
            v.buf.push(f(i));
        }
        v
    }

    /// Adopts an existing `Vec`; its storage joins the pool when dropped.
    pub fn from_vec(buf: Vec<f64>) -> Self {
        PoolVec { buf }
    }

    /// Extracts the inner `Vec`, removing its storage from the pool.
    pub fn into_vec(mut self) -> Vec<f64> {
        std::mem::take(&mut self.buf)
    }
}

impl Drop for PoolVec {
    fn drop(&mut self) {
        give(std::mem::take(&mut self.buf));
    }
}

impl Clone for PoolVec {
    fn clone(&self) -> Self {
        Self::from_slice(&self.buf)
    }
}

impl Deref for PoolVec {
    type Target = Vec<f64>;
    fn deref(&self) -> &Vec<f64> {
        &self.buf
    }
}

impl DerefMut for PoolVec {
    fn deref_mut(&mut self) -> &mut Vec<f64> {
        &mut self.buf
    }
}

impl fmt::Debug for PoolVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.buf.fmt(f)
    }
}

impl PartialEq for PoolVec {
    fn eq(&self, other: &Self) -> bool {
        self.buf == other.buf
    }
}

impl PartialEq<Vec<f64>> for PoolVec {
    fn eq(&self, other: &Vec<f64>) -> bool {
        &self.buf == other
    }
}

impl PartialEq<PoolVec> for Vec<f64> {
    fn eq(&self, other: &PoolVec) -> bool {
        self == &other.buf
    }
}

impl PartialEq<&[f64]> for PoolVec {
    fn eq(&self, other: &&[f64]) -> bool {
        self.buf.as_slice() == *other
    }
}

impl<const N: usize> PartialEq<[f64; N]> for PoolVec {
    fn eq(&self, other: &[f64; N]) -> bool {
        self.buf.as_slice() == other.as_slice()
    }
}

impl From<Vec<f64>> for PoolVec {
    fn from(v: Vec<f64>) -> Self {
        Self::from_vec(v)
    }
}

impl FromIterator<f64> for PoolVec {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let iter = iter.into_iter();
        let mut v = Self::with_capacity(iter.size_hint().0);
        for x in iter {
            v.buf.push(x);
        }
        v
    }
}

impl<'a> IntoIterator for &'a PoolVec {
    type Item = &'a f64;
    type IntoIter = std::slice::Iter<'a, f64>;
    fn into_iter(self) -> Self::IntoIter {
        self.buf.iter()
    }
}

/// Current number of parked buffers on this thread (diagnostics only).
pub fn pooled_buffers() -> usize {
    POOL.try_with(|p| p.borrow().values().map(Vec::len).sum()).unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_reuses_storage() {
        let v = PoolVec::zeroed(128);
        let ptr = v.as_ptr();
        drop(v);
        let w = PoolVec::with_capacity(128);
        assert_eq!(w.as_ptr(), ptr, "second request must reuse storage");
    }

    #[test]
    fn zeroed_is_clean_after_reuse() {
        let mut v = PoolVec::zeroed(8);
        v.iter_mut().for_each(|x| *x = 7.0);
        drop(v);
        let w = PoolVec::zeroed(8);
        assert!(w.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn compares_with_plain_vectors() {
        let v = PoolVec::from_slice(&[1.0, 2.0]);
        assert_eq!(v, vec![1.0, 2.0]);
        assert_eq!(vec![1.0, 2.0], v);
        assert_eq!(v, [1.0, 2.0]);
    }

    #[test]
    fn from_fn_and_collect() {
        let v = PoolVec::from_fn(3, |i| i as f64);
        assert_eq!(v, vec![0.0, 1.0, 2.0]);
        let w: PoolVec = (0..3).map(|i| i as f64 * 2.0).collect();
        assert_eq!(w, vec![0.0, 2.0, 4.0]);
    }

    #[test]
    fn into_vec_escapes_pool() {
        let v = PoolVec::from_slice(&[5.0]);
        let raw = v.into_vec();
        assert_eq!(raw, vec![5.0]);
    }
}
