//! Per-dimension values held inline.
//!
//! Offsets, loop-body access offsets, PE coordinates, owned and extent
//! boxes, transfer regions and strided-box dimensions all carry one value
//! per array dimension. Fortran 90 allows at most [`MAX_RANK`] dimensions
//! (the frontend refuses more), so [`Dims`] keeps them in a fixed array
//! beside a length: it is `Copy`, and building, cloning or comparing one
//! never touches the heap.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Deref, DerefMut};

/// The largest array rank: Fortran 90's limit, and [`Dims`]'s capacity.
pub const MAX_RANK: usize = 7;

/// Up to [`MAX_RANK`] per-dimension values, inline. Reads and writes go
/// through the slice of the first `len()` values (`Deref<Target = [T]>`);
/// equality and hashing see only that slice.
#[derive(Clone, Copy)]
pub struct Dims<T: Copy + Default = i64> {
    len: u8,
    v: [T; MAX_RANK],
}

impl<T: Copy + Default> Dims<T> {
    /// No dimensions.
    pub fn new() -> Self {
        Dims { len: 0, v: [T::default(); MAX_RANK] }
    }

    /// `rank` copies of `value`.
    pub fn filled(rank: usize, value: T) -> Self {
        Self::from_fn(rank, |_| value)
    }

    /// `f(d)` for each dimension `d` of `rank`.
    pub fn from_fn(rank: usize, mut f: impl FnMut(usize) -> T) -> Self {
        assert!(rank <= MAX_RANK, "rank {rank} exceeds the maximum of {MAX_RANK}");
        let mut out = Self::new();
        for d in 0..rank {
            out.v[d] = f(d);
        }
        out.len = rank as u8;
        out
    }

    /// Append one dimension's value.
    pub fn push(&mut self, value: T) {
        let n = self.len as usize;
        assert!(n < MAX_RANK, "rank exceeds the maximum of {MAX_RANK}");
        self.v[n] = value;
        self.len += 1;
    }

    /// `f` applied to every value.
    pub fn map<U: Copy + Default>(&self, mut f: impl FnMut(T) -> U) -> Dims<U> {
        Dims::from_fn(self.len(), |d| f(self.v[d]))
    }
}

impl<T: Copy + Default> Default for Dims<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Copy + Default> Deref for Dims<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        &self.v[..self.len as usize]
    }
}

impl<T: Copy + Default> DerefMut for Dims<T> {
    fn deref_mut(&mut self) -> &mut [T] {
        &mut self.v[..self.len as usize]
    }
}

impl<T: Copy + Default> FromIterator<T> for Dims<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut out = Self::new();
        iter.into_iter().for_each(|x| out.push(x));
        out
    }
}

impl<T: Copy + Default> From<&[T]> for Dims<T> {
    fn from(s: &[T]) -> Self {
        Self::from_fn(s.len(), |d| s[d])
    }
}

impl<T: Copy + Default, const N: usize> From<[T; N]> for Dims<T> {
    fn from(a: [T; N]) -> Self {
        Self::from(&a[..])
    }
}

impl<T: Copy + Default> From<Vec<T>> for Dims<T> {
    fn from(v: Vec<T>) -> Self {
        Self::from(&v[..])
    }
}

impl<'a, T: Copy + Default> IntoIterator for &'a Dims<T> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl<T: Copy + Default> IntoIterator for Dims<T> {
    type Item = T;
    type IntoIter = std::iter::Take<std::array::IntoIter<T, MAX_RANK>>;

    fn into_iter(self) -> Self::IntoIter {
        self.v.into_iter().take(self.len as usize)
    }
}

impl<T: Copy + Default + PartialEq> PartialEq for Dims<T> {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl<T: Copy + Default + Eq> Eq for Dims<T> {}

impl<T: Copy + Default + PartialEq, const N: usize> PartialEq<[T; N]> for Dims<T> {
    fn eq(&self, other: &[T; N]) -> bool {
        **self == other[..]
    }
}

impl<T: Copy + Default + PartialEq> PartialEq<Vec<T>> for Dims<T> {
    fn eq(&self, other: &Vec<T>) -> bool {
        **self == other[..]
    }
}

impl<T: Copy + Default + Hash> Hash for Dims<T> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        (**self).hash(state)
    }
}

impl<T: Copy + Default + fmt::Debug> fmt::Debug for Dims<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        (**self).fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn behaves_as_its_slice() {
        let mut d: Dims = [3, -1].into();
        assert_eq!(d.len(), 2);
        assert_eq!(d, [3, -1]);
        d[1] += 2;
        d.push(7);
        assert_eq!(d, vec![3, 1, 7]);
        assert_eq!(format!("{d:?}"), "[3, 1, 7]");
        assert_eq!(d.into_iter().sum::<i64>(), 11);
        assert_eq!(d.map(|x| x * 2), [6, 2, 14]);
        assert_eq!(Dims::filled(3, 0usize), [0, 0, 0]);
    }

    #[test]
    fn unused_slots_never_compare() {
        let mut a: Dims = [1, 2, 9].into();
        a = Dims::from(&a[..2]);
        let b: Dims = [1, 2].into();
        assert_eq!(a, b);
        let h = |d: &Dims| {
            let mut s = crate::hash::FxHasher::default();
            d.hash(&mut s);
            s.finish()
        };
        assert_eq!(h(&a), h(&b));
    }

    #[test]
    #[should_panic(expected = "exceeds the maximum")]
    fn an_eighth_dimension_is_refused() {
        let _: Dims = (0..8).collect();
    }
}
